"""Tests for the S functional, its identity form, the coefficient
oracles, the printed closed forms and the two bounds.  Expected values
were derived by hand (piecewise antiderivatives) and cross-checked with
high-precision quadrature."""

import math

import pytest

from phi_ineq.bounds import (
    EvalParams,
    coef_a1,
    coef_a1_oracle,
    coef_b,
    coef_c_oracle,
    coef_weighted,
    identity_rhs,
    printed_coefficient,
    s_functional,
    theorem1_bound,
    theorem2_bound,
    weight_moment,
)
from phi_ineq.convexity import PhiKernel
from phi_ineq.errors import DomainError
from phi_ineq.fracint import Interval
from phi_ineq.functions import registry

UNIT = Interval(0.0, 1.0)
CONST = PhiKernel.constant()
MT = PhiKernel.mt()

GRID_ALPHAS = (0.5, 1.0, 2.0, 3.5)
GRID_LAMS = (0.0, 0.25, 0.5, 0.75, 1.0)


def params(x=0.5, lam=0.0, alpha=1.0, q=1.0, p=None, s=None, interval=UNIT):
    return EvalParams(interval, x=x, lam=lam, alpha=alpha, q=q, p=p, s=s)


class TestEvalParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            params(x=1.5)
        with pytest.raises(DomainError):
            params(lam=1.0001)
        with pytest.raises(DomainError):
            params(alpha=0.0)
        with pytest.raises(DomainError):
            params(q=0.5)
        with pytest.raises(DomainError):
            params(s=0.0)
        with pytest.raises(DomainError):
            params(q=2.0, p=3.0)  # not conjugate

    def test_conjugate_p(self):
        assert params(q=2.0).conjugate_p() == pytest.approx(2.0)
        assert params(q=3.0).conjugate_p() == pytest.approx(1.5)
        assert params(q=2.0, p=2.0).conjugate_p() == 2.0
        with pytest.raises(DomainError):
            params(q=1.0).conjugate_p()


class TestSFunctional:
    def test_square(self):
        fn = registry()["t^2"]
        assert s_functional(fn, params()) == pytest.approx(-1.0 / 6.0, abs=1e-11)

    def test_cube(self):
        fn = registry()["t^3"]
        assert s_functional(fn, params()) == pytest.approx(-0.25, abs=1e-11)

    def test_linear_vanishes(self):
        fn = registry()["t"]
        assert s_functional(fn, params(x=0.3, lam=0.5, alpha=1.5)) == pytest.approx(0.0, abs=1e-11)

    def test_matches_identity_rhs_at_endpoints(self):
        fn = registry()["t^3"]
        for x in (0.0, 1.0):
            p = params(x=x, lam=0.4, alpha=1.3)
            assert s_functional(fn, p) == pytest.approx(identity_rhs(fn, p), abs=1e-10)


class TestIdentityRhs:
    def test_cube(self):
        # (1/8) int (0-t^1) t * 3t dt + (1/8) int t(0-t)(6-3t) dt = -3/32 - 5/32
        fn = registry()["t^3"]
        assert identity_rhs(fn, params()) == pytest.approx(-0.25, abs=1e-12)

    def test_square(self):
        fn = registry()["t^2"]
        assert identity_rhs(fn, params()) == pytest.approx(-1.0 / 6.0, abs=1e-12)

    def test_linear(self):
        fn = registry()["t"]
        assert identity_rhs(fn, params(x=0.7, lam=0.9, alpha=0.6)) == 0.0


class TestCoefficients:
    def test_a1_closed_values(self):
        assert coef_a1(1.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert coef_a1(1.0, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert coef_a1(2.0, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_a1_closed_matches_oracle_on_grid(self):
        for alpha in GRID_ALPHAS:
            for lam in GRID_LAMS:
                assert coef_a1(alpha, lam) == pytest.approx(
                    coef_a1_oracle(alpha, lam), abs=1e-10)

    def test_weighted_values(self):
        assert coef_weighted(1.0, 0.0, CONST, "A2") == pytest.approx(0.25, abs=1e-12)
        assert coef_weighted(1.0, 1.0, CONST, "A2") == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert coef_weighted(1.0, 1.0, CONST, "A3") == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_a3_identity_on_grid(self):
        # pointwise algebra: |t(lam-t^a)|(1-t) = |t(lam-t^a)| - |t(lam-t^a)|t
        for alpha in GRID_ALPHAS:
            for lam in GRID_LAMS:
                a1 = coef_a1_oracle(alpha, lam)
                a2 = coef_weighted(alpha, lam, CONST, "A2")
                a3 = coef_weighted(alpha, lam, CONST, "A3")
                assert a3 == pytest.approx(a1 - a2, abs=1e-10)

    def test_coef_b_values(self):
        assert coef_b(1.0, 0.0, 2.0) == pytest.approx(0.2, abs=1e-12)
        assert coef_b(1.0, 1.0, 2.0) == pytest.approx(1.0 / 30.0, abs=1e-12)
        assert coef_b(1.0, 0.5, 2.0) == pytest.approx(1.0 / 30.0, abs=1e-12)

    def test_coef_b_splits_into_c1_c2(self):
        for alpha in (0.5, 1.0, 2.0):
            for lam in GRID_LAMS:
                total = coef_b(alpha, lam, 2.0)
                c1 = coef_c_oracle(alpha, lam, 2.0, "C1")
                c2 = coef_c_oracle(alpha, lam, 2.0, "C2")
                assert total == pytest.approx(c1 + c2, abs=1e-10)

    def test_weight_moments(self):
        assert weight_moment(CONST) == pytest.approx(0.5, abs=1e-12)
        assert weight_moment(PhiKernel.power(0.5)) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert weight_moment(MT) == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_oracles_nonnegative(self):
        for alpha in GRID_ALPHAS:
            for lam in GRID_LAMS:
                assert coef_a1_oracle(alpha, lam) >= 0.0
                for kernel in (CONST, PhiKernel.power(0.5), MT):
                    assert coef_weighted(alpha, lam, kernel, "A2") >= 0.0
                    assert coef_weighted(alpha, lam, kernel, "A3") >= 0.0
                assert coef_b(alpha, lam, 2.0) >= 0.0


class TestTheorem1:
    def test_equality_cube(self):
        fn = registry()["t^3"]
        p = params()
        assert theorem1_bound(fn, p, CONST) == pytest.approx(0.25, abs=1e-11)
        assert abs(s_functional(fn, p)) == pytest.approx(0.25, abs=1e-11)

    def test_equality_square(self):
        fn = registry()["t^2"]
        assert theorem1_bound(fn, params(), CONST) == pytest.approx(1.0 / 6.0, abs=1e-11)

    def test_equality_square_lam1(self):
        fn = registry()["t^2"]
        p = params(lam=1.0)
        assert theorem1_bound(fn, p, CONST) == pytest.approx(1.0 / 12.0, abs=1e-11)
        assert abs(s_functional(fn, p)) == pytest.approx(1.0 / 12.0, abs=1e-11)

    def test_power_one_kernel_reduces_to_constant(self):
        fn = registry()["exp(t)"]
        for p in (params(x=0.3, lam=0.4, alpha=1.7, q=2.0), params(q=1.0)):
            assert theorem1_bound(fn, p, PhiKernel.power(1.0)) == pytest.approx(
                theorem1_bound(fn, p, CONST), abs=1e-12)

    def test_endpoint_x_zeroes_one_term(self):
        fn = registry()["t^2"]
        left = theorem1_bound(fn, params(x=0.0, lam=0.5), CONST)
        assert left > 0.0 and math.isfinite(left)


class TestTheorem2:
    def test_constant_kernel_value(self):
        fn = registry()["t^2"]
        p = params(q=2.0, p=2.0)
        assert theorem2_bound(fn, p, CONST) == pytest.approx(
            math.sqrt(0.2) * 0.5, abs=1e-10)
        assert abs(s_functional(fn, p)) <= theorem2_bound(fn, p, CONST)

    def test_mt_kernel_value(self):
        fn = registry()["t^2"]
        p = params(q=2.0, p=2.0)
        assert theorem2_bound(fn, p, MT) == pytest.approx(
            math.sqrt(0.2) * 0.25 * math.sqrt(2.0 * math.pi), abs=1e-10)

    def test_linear_function_trivially_bounded(self):
        fn = registry()["t"]
        p = params(x=0.4, lam=0.8, alpha=2.0, q=2.0)
        assert theorem2_bound(fn, p, CONST) == pytest.approx(0.0, abs=1e-12)
        assert abs(s_functional(fn, p)) <= 1e-11

    def test_requires_q_above_one(self):
        with pytest.raises(DomainError):
            theorem2_bound(registry()["t^2"], params(q=1.0), CONST)

    def test_power_one_reduces_to_constant(self):
        fn = registry()["t^4"]
        p = params(x=0.6, lam=0.2, alpha=0.8, q=2.0)
        assert theorem2_bound(fn, p, PhiKernel.power(1.0)) == pytest.approx(
            theorem2_bound(fn, p, CONST), abs=1e-12)


class TestPrintedCoefficients:
    def test_a2c_agrees_with_oracle(self):
        r = printed_coefficient("A2C", params(lam=1.0))
        assert r.value == pytest.approx(1.0 / 12.0, abs=1e-14)
        assert r.method == "closed-identity"
        for alpha in GRID_ALPHAS:
            for lam in GRID_LAMS:
                got = printed_coefficient("A2C", params(lam=lam, alpha=alpha)).value
                assert got == pytest.approx(
                    coef_weighted(alpha, lam, CONST, "A2"), abs=1e-10)

    def test_a3c_disagrees_as_printed(self):
        assert printed_coefficient("A3C", params(lam=1.0)).value == pytest.approx(0.25, abs=1e-14)
        assert printed_coefficient("A3C", params(lam=0.0)).value == pytest.approx(-1.0 / 12.0, abs=1e-14)
        # the oracle value is +1/12 at both sanity points
        assert coef_weighted(1.0, 0.0, CONST, "A3") == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_a4_printed_vs_oracle(self):
        r = printed_coefficient("A4", params(lam=1.0, s=1.0))
        assert r.value == pytest.approx(5.0 / 12.0, abs=1e-14)
        oracle = coef_weighted(1.0, 1.0, PhiKernel.power(1.0), "A2")
        assert oracle == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_a5_boundary_agreement_interior_disagreement(self):
        power1 = PhiKernel.power(1.0)
        for lam in (0.0, 1.0):
            printed = printed_coefficient("A5", params(lam=lam, s=1.0)).value
            oracle = coef_weighted(1.0, lam, power1, "A3")
            assert printed == pytest.approx(oracle, abs=1e-10)
        interior = printed_coefficient("A5", params(lam=0.5, s=1.0)).value
        assert interior == pytest.approx(0.0, abs=1e-12)
        assert coef_weighted(1.0, 0.5, power1, "A3") == pytest.approx(1.0 / 32.0, abs=1e-10)

    def test_c1_printed_vs_oracle(self):
        p = params(lam=1.0, q=2.0, p=2.0)
        r = printed_coefficient("C1", p)
        assert r.value == pytest.approx(24.0, rel=1e-10)
        assert r.method == "closed-identity"
        assert coef_c_oracle(1.0, 1.0, 2.0, "C1") == pytest.approx(1.0 / 30.0, abs=1e-10)
        # at lam = 0 the printed prefactor vanishes and both sides are 0
        assert printed_coefficient("C1", params(lam=0.0, q=2.0, p=2.0)).value == 0.0

    def test_c2_and_b_closed_are_undefined(self):
        p = params(lam=1.0, q=2.0, p=2.0)
        for name in ("C2", "B_closed"):
            with pytest.raises(DomainError):
                printed_coefficient(name, p)

    def test_requires_parameters(self):
        with pytest.raises(DomainError):
            printed_coefficient("A4", params())  # no s
        with pytest.raises(DomainError):
            printed_coefficient("C1", params())  # q = 1, no p
        with pytest.raises(DomainError):
            printed_coefficient("A7", params())
