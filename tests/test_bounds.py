"""Tests for the S functional, its identity form, the coefficient
oracles, the printed closed forms and the two bounds.  Expected values
were derived by hand (piecewise antiderivatives) and cross-checked with
high-precision quadrature."""

import math

import pytest

from phi_ineq.bounds import (
    EvalParams,
    f2_powers,
    holder_rhs,
    identity_rhs,
    printed_coefficient,
    s_functional,
    t1_coefficients,
    t2_coefficients,
    theorem1_bound,
    theorem2_bound,
)
from phi_ineq.coefquad import coef_integral
from phi_ineq.convexity import PhiKernel
from phi_ineq.errors import DomainError
from phi_ineq.fracint import Interval
from phi_ineq.functions import registry
from phi_ineq.report import build_ledger, find_entry

UNIT = Interval(0.0, 1.0)
CONST = PhiKernel.constant()
MT = PhiKernel.mt()

GRID_ALPHAS = (0.5, 1.0, 2.0, 3.5)
GRID_LAMS = (0.0, 0.25, 0.5, 0.75, 1.0)


def params(x=0.5, lam=0.0, alpha=1.0, q=1.0, interval=UNIT):
    return EvalParams(interval, x=x, lam=lam, alpha=alpha, q=q)


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
        # verify_point read an infinite alpha as "endpoint exponents must be
        # finite" and an infinite q as "function not finite on the sample grid"
        with pytest.raises(DomainError, match="alpha must be positive and finite"):
            params(alpha=math.inf)
        with pytest.raises(DomainError, match="q must be finite"):
            params(q=math.inf)


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
        # the bounds' A1, the closed form of every kernel
        for kernel in (CONST, PhiKernel.power(0.5), MT):
            a1 = lambda alpha, lam: t1_coefficients(alpha, lam, kernel)[0]
            assert a1(1.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
            assert a1(1.0, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
            assert a1(2.0, 1.0) == pytest.approx(0.25, abs=1e-15)
            with pytest.raises(DomainError, match="alpha must be positive and finite"):
                a1(math.inf, 0.5)  # was nan

    def test_a1_closed_matches_oracle_on_grid(self):
        for alpha in GRID_ALPHAS:
            for lam in GRID_LAMS:
                assert t1_coefficients(alpha, lam, CONST)[0] == pytest.approx(
                    coef_integral("A1", alpha, lam), abs=1e-10)

    def test_weighted_values(self):
        assert coef_integral("A2", 1.0, 0.0, CONST) == pytest.approx(0.25, abs=1e-12)
        assert coef_integral("A2", 1.0, 1.0, CONST) == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert coef_integral("A3", 1.0, 1.0, CONST) == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_a3_identity_on_grid(self):
        # pointwise algebra: |t(lam-t^a)|(1-t) = |t(lam-t^a)| - |t(lam-t^a)|t
        for alpha in GRID_ALPHAS:
            for lam in GRID_LAMS:
                a1 = coef_integral("A1", alpha, lam)
                a2 = coef_integral("A2", alpha, lam, CONST)
                a3 = coef_integral("A3", alpha, lam, CONST)
                assert a3 == pytest.approx(a1 - a2, abs=1e-10)

    def test_coef_b_values(self):
        assert coef_integral("B", 1.0, 0.0, p=2.0) == pytest.approx(0.2, abs=1e-12)
        assert coef_integral("B", 1.0, 1.0, p=2.0) == pytest.approx(1.0 / 30.0, abs=1e-12)
        assert coef_integral("B", 1.0, 0.5, p=2.0) == pytest.approx(1.0 / 30.0, abs=1e-12)

    def test_coef_b_splits_into_c1_c2(self):
        # the ledger's C1/C2 oracles split B at the kink, an empty side
        # (lam = 0 or 1) counting 0
        ledger = build_ledger()
        for alpha in (0.5, 1.0, 2.0):
            for lam in GRID_LAMS:
                total = coef_integral("B", alpha, lam, p=2.0)
                c1 = find_entry(ledger, "C1", alpha, lam, p=2.0).oracle
                c2 = find_entry(ledger, "C2", alpha, lam, p=2.0).oracle
                assert total == pytest.approx(c1 + c2, abs=1e-10)

    def test_weight_moments(self):
        # M = int t*phi(t) dt does not depend on (alpha, lam, p)
        for alpha, lam, p in ((1.0, 0.0, 2.0), (0.3, 0.7, 1.5)):
            m = lambda kernel: t2_coefficients(alpha, lam, p, kernel)[1]
            assert m(CONST) == 0.5
            assert m(PhiKernel.power(0.5)) == pytest.approx(2.0 / 3.0, rel=2e-16)
            assert m(MT) == pytest.approx(math.pi / 4.0, rel=2e-16)

    def test_oracles_nonnegative(self):
        for alpha in GRID_ALPHAS:
            for lam in GRID_LAMS:
                assert coef_integral("A1", alpha, lam) >= 0.0
                for kernel in (CONST, PhiKernel.power(0.5), MT):
                    assert coef_integral("A2", alpha, lam, kernel) >= 0.0
                    assert coef_integral("A3", alpha, lam, kernel) >= 0.0
                assert coef_integral("B", alpha, lam, p=2.0) >= 0.0


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
        p = params(q=2.0)
        assert theorem2_bound(fn, p, CONST) == pytest.approx(
            math.sqrt(0.2) * 0.5, abs=1e-10)
        assert abs(s_functional(fn, p)) <= theorem2_bound(fn, p, CONST)

    def test_mt_kernel_value(self):
        fn = registry()["t^2"]
        p = params(q=2.0)
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

    def test_uses_the_conjugate_exponent(self):
        # q = 3 gives p = 3/2 in B and in the prefactor's root
        fn = registry()["exp(t)"]
        x, lam, alpha, q = 0.3, 0.4, 1.7, 3.0
        coefs = (coef_integral("B", alpha, lam, p=1.5), math.pi / 4.0)
        want = holder_rhs(0.0, 1.0, x, alpha, q, 1.5, coefs, f2_powers(fn, 0.0, 1.0, x, q))
        got = theorem2_bound(fn, params(x=x, lam=lam, alpha=alpha, q=q), MT)
        assert got == pytest.approx(want, rel=1e-14)

    def test_power_one_reduces_to_constant(self):
        fn = registry()["t^4"]
        p = params(x=0.6, lam=0.2, alpha=0.8, q=2.0)
        assert theorem2_bound(fn, p, PhiKernel.power(1.0)) == pytest.approx(
            theorem2_bound(fn, p, CONST), abs=1e-12)


class TestPrintedCoefficients:
    def test_a2c_agrees_with_oracle(self):
        assert printed_coefficient("A2C", 1.0, 1.0) == pytest.approx(1.0 / 12.0, abs=1e-14)
        for alpha in GRID_ALPHAS:
            for lam in GRID_LAMS:
                assert printed_coefficient("A2C", alpha, lam) == pytest.approx(
                    coef_integral("A2", alpha, lam, CONST), abs=1e-10)

    def test_a3c_disagrees_as_printed(self):
        assert printed_coefficient("A3C", 1.0, 1.0) == pytest.approx(0.25, abs=1e-14)
        assert printed_coefficient("A3C", 1.0, 0.0) == pytest.approx(-1.0 / 12.0, abs=1e-14)
        # the oracle value is +1/12 at both sanity points
        assert coef_integral("A3", 1.0, 0.0, CONST) == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_a4_printed_vs_oracle(self):
        assert printed_coefficient("A4", 1.0, 1.0, s=1.0) == pytest.approx(5.0 / 12.0, abs=1e-14)
        oracle = coef_integral("A2", 1.0, 1.0, PhiKernel.power(1.0))
        assert oracle == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_a5_boundary_agreement_interior_disagreement(self):
        power1 = PhiKernel.power(1.0)
        for lam in (0.0, 1.0):
            printed = printed_coefficient("A5", 1.0, lam, s=1.0)
            oracle = coef_integral("A3", 1.0, lam, power1)
            assert printed == pytest.approx(oracle, abs=1e-10)
        interior = printed_coefficient("A5", 1.0, 0.5, s=1.0)
        assert interior == pytest.approx(0.0, abs=1e-12)
        assert coef_integral("A3", 1.0, 0.5, power1) == pytest.approx(1.0 / 32.0, abs=1e-10)

    def test_c1_printed_vs_oracle(self):
        assert printed_coefficient("C1", 1.0, 1.0, p=2.0) == pytest.approx(24.0, rel=1e-10)
        oracle = find_entry(build_ledger(), "C1", 1.0, 1.0, p=2.0).oracle
        assert oracle == pytest.approx(1.0 / 30.0, abs=1e-10)
        # at lam = 0 the printed prefactor vanishes and both sides are 0
        assert printed_coefficient("C1", 1.0, 0.0, p=2.0) == 0.0

    def test_c2_and_b_closed_are_undefined(self):
        for name in ("C2", "B_closed"):
            with pytest.raises(DomainError):
                printed_coefficient(name, 1.0, 1.0, p=2.0)

    def test_requires_parameters(self):
        with pytest.raises(DomainError):
            printed_coefficient("A4", 1.0, 0.0)  # no s
        with pytest.raises(DomainError):
            printed_coefficient("C1", 1.0, 0.0)  # no p
        with pytest.raises(DomainError):
            printed_coefficient("A7", 1.0, 0.0)
        # alpha = 0 was a ZeroDivisionError, lambda = 2 returned 2.25, and
        # s = 5 and p = 0.5 were evaluated
        for name, alpha, lam, s, p, match in (
            ("A2C", 0.0, 0.5, None, None, "alpha"),
            ("A3C", math.inf, 0.5, None, None, "alpha"),
            ("A2C", 1.0, 2.0, None, None, "lambda"),
            ("A4", 1.0, -0.1, 0.5, None, "lambda"),
            ("A4", 1.0, 0.5, 5.0, None, "s in"),
            ("A5", 1.0, 0.5, 0.0, None, "s in"),
            ("C1", 1.0, 0.5, None, 0.5, "p > 1"),
            ("B_closed", 1.0, 0.5, None, math.inf, "p > 1"),
        ):
            with pytest.raises(DomainError, match=match):
                printed_coefficient(name, alpha, lam, s=s, p=p)
