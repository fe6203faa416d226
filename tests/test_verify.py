"""Verification-harness tests: point checks, hypothesis gating, identity
and warm-up checks, sweeps and fault injection."""

import math

import pytest

from phi_ineq.bounds import EvalParams, theorem1_bound
from phi_ineq.convexity import PhiKernel
from phi_ineq.errors import DomainError
from phi_ineq.fracint import Interval
from phi_ineq.functions import registry
from phi_ineq.verify import (
    SweepPlan,
    hermite_hadamard_check,
    identity_check,
    sweep,
    sweep_summary,
    verify_point,
)

UNIT = Interval(0.0, 1.0)
CONST = PhiKernel.constant()


def params(fn, x=0.5, lam=0.0, alpha=1.0, q=1.0):
    return EvalParams(fn.domain, x=x, lam=lam, alpha=alpha, q=q)


class TestVerifyPoint:
    def test_equality_case_cube(self):
        fn = registry()["t^3"]
        r = verify_point(fn, params(fn), CONST, "T1")
        assert r.status == "PASS"
        assert r.hypothesis_ok
        assert abs(r.margin) <= 1e-9
        assert r.lhs == pytest.approx(0.25, abs=1e-10)

    def test_t2_margin(self):
        fn = registry()["t^2"]
        r = verify_point(fn, params(fn, q=2.0), CONST, "T2")
        assert r.status == "PASS"
        assert r.p == pytest.approx(2.0)
        assert r.margin == pytest.approx(math.sqrt(0.2) * 0.5 - 1.0 / 6.0, abs=1e-9)

    def test_hypothesis_gate_fires(self):
        fn = registry()["sqrt_control"]
        r = verify_point(fn, params(fn), CONST, "T1")
        assert r.status == "HYPOTHESIS_UNMET"
        assert not r.hypothesis_ok
        # the bound is still computed for reporting
        assert r.rhs is not None and r.lhs is not None

    def test_control_passes_at_q2(self):
        fn = registry()["sqrt_control"]
        r = verify_point(fn, params(fn, q=2.0), CONST, "T1")
        assert r.status == "PASS"

    def test_error_status_on_numerical_failure(self):
        fn = registry()["t^2"]
        r = verify_point(fn, params(fn), CONST, "T1", quad_tol=1e-30)
        assert r.status == "ERROR"
        assert r.message

    def test_degenerate_x_at_endpoints(self):
        fn = registry()["t^2"]
        for x in (0.0, 1.0):
            r = verify_point(fn, params(fn, x=x, lam=0.5), CONST, "T1")
            assert r.status == "PASS"

    def test_fault_injection_forces_fail(self):
        fn = registry()["t^2"]
        r = verify_point(fn, params(fn), CONST, "T1", rhs_scale=1e-3)
        assert r.status == "FAIL"

    def test_report_fields_are_builtin_floats(self):
        # exp(t) and -ln(t) evaluate to numpy scalars; every check must
        # still hand out builtin floats, or the CSV shows np.float64(...)
        fn = registry()["-ln(t)"]
        r = verify_point(fn, params(fn, x=1.0), CONST, "T1")
        for v in (r.lhs, r.rhs, r.margin, r.x, r.a, r.b):
            assert type(v) is float
        for name in ("exp(t)", "-ln(t)"):
            fn = registry()[name]
            x = 0.5 * (fn.domain.a + fn.domain.b)
            r = identity_check(fn, params(fn, x=x, lam=0.7, alpha=2.5))
            assert r.status == "PASS"
            for v in (r.lhs, r.rhs, r.margin):
                assert type(v) is float
            r = hermite_hadamard_check(fn)
            assert r.status == "PASS"
            for v in (r.lhs, r.rhs, r.margin, *r.oracle_residuals.values()):
                assert type(v) is float

    def test_rejects_non_bound_theorems(self):
        fn = registry()["t^2"]
        with pytest.raises(DomainError):
            verify_point(fn, params(fn), CONST, "HH")


class TestIdentityCheck:
    def test_cube(self):
        fn = registry()["t^3"]
        r = identity_check(fn, params(fn))
        assert r.status == "PASS"
        assert r.lhs == pytest.approx(-0.25, abs=1e-10)
        assert r.rhs == pytest.approx(-0.25, abs=1e-10)

    def test_linear(self):
        fn = registry()["t"]
        r = identity_check(fn, params(fn, x=0.7, lam=0.3, alpha=2.0))
        assert r.status == "PASS"
        assert r.margin <= 1e-12

    def test_exponential_nontrivial_params(self):
        fn = registry()["exp(t)"]
        r = identity_check(fn, params(fn, x=0.3, lam=0.7, alpha=2.5))
        assert r.status == "PASS"
        assert r.margin <= 1e-8 * max(1.0, abs(r.lhs))


class TestHermiteHadamard:
    def test_square(self):
        r = hermite_hadamard_check(registry()["t^2"])
        assert r.status == "PASS"
        assert r.oracle_residuals["midpoint"] == pytest.approx(0.25, abs=1e-12)
        assert r.oracle_residuals["integral_mean"] == pytest.approx(1.0 / 3.0, abs=1e-11)
        assert r.oracle_residuals["endpoint_avg"] == pytest.approx(0.5, abs=1e-12)

    def test_exponential(self):
        r = hermite_hadamard_check(registry()["exp(t)"])
        assert r.status == "PASS"
        assert r.oracle_residuals["midpoint"] == pytest.approx(math.exp(0.5), abs=1e-10)
        assert r.oracle_residuals["integral_mean"] == pytest.approx(math.e - 1.0, abs=1e-10)
        assert r.oracle_residuals["endpoint_avg"] == pytest.approx(0.5 * (1 + math.e), abs=1e-10)

    def test_linear_equality(self):
        r = hermite_hadamard_check(registry()["t"])
        assert r.status == "PASS"
        assert abs(r.margin) <= 1e-10
        triple = (r.oracle_residuals["midpoint"], r.oracle_residuals["integral_mean"],
                  r.oracle_residuals["endpoint_avg"])
        assert triple == pytest.approx((0.5, 0.5, 0.5), abs=1e-12)

    def test_concave_function_gated(self):
        from phi_ineq.functions import resolve_function
        r = hermite_hadamard_check(resolve_function("-t^2"))
        assert r.status == "HYPOTHESIS_UNMET"


class TestSweep:
    def test_plan_validation(self):
        with pytest.raises(DomainError):
            SweepPlan(("t^2",), (CONST,), (0.5,), (1.5,), (1.0,), (1.0,))
        with pytest.raises(DomainError):
            SweepPlan(("t^2",), (CONST,), (0.5,), (0.5,), (-1.0,), (1.0,))
        with pytest.raises(DomainError):
            SweepPlan(("t^2",), (CONST,), (0.5,), (0.5,), (1.0,), ())

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_plan_rejects_non_positive_tol(self, tol):
        # a margin tolerance <= 0 turns rounding in an equality case into FAIL
        with pytest.raises(DomainError, match="tol"):
            SweepPlan(("t^2",), (CONST,), (0.5,), (0.0,), (1.0,), (1.0,), tol=tol)

    def test_spec_example_shape(self):
        plan = SweepPlan(
            function_names=("t^2", "t^3", "exp(t)"),
            kernels=(CONST,),
            x_rel=(0.25, 0.5, 0.75),
            lam=(0.0, 1.0 / 3.0, 1.0),
            alpha=(0.5, 1.0, 2.0),
            q=(1.0, 2.0),
            theorems=("T1",),
        )
        reports = sweep(plan)
        assert len(reports) == 162
        assert sweep_summary(reports)["FAIL"] == 0

    def test_empty_function_list(self):
        plan = SweepPlan((), (CONST,), (0.5,), (0.0,), (1.0,), (1.0,))
        assert sweep(plan) == []

    def test_unknown_function_rejected(self):
        plan = SweepPlan(("nope",), (CONST,), (0.5,), (0.0,), (1.0,), (1.0,))
        with pytest.raises(DomainError):
            sweep(plan)

    def test_determinism(self):
        plan = SweepPlan(("t^2", "t^3"), (CONST,), (0.25, 0.75), (0.0, 1.0),
                         (0.5, 2.0), (1.0, 2.0))
        assert sweep(plan) == sweep(plan)

    def test_reports_sorted(self):
        plan = SweepPlan(("t^3", "t^2"), (CONST, PhiKernel.mt()), (0.75, 0.25),
                         (1.0, 0.0), (2.0, 0.5), (2.0, 1.0))
        reports = sweep(plan)
        keys = [(r.function, r.kernel, r.theorem, r.x, r.lam, r.alpha, r.q) for r in reports]
        assert keys == sorted(keys)

    def test_fault_injection_produces_fails(self):
        plan = SweepPlan(("t^2",), (CONST,), (0.5,), (0.0,), (1.0,), (1.0,))
        reports = sweep(plan, rhs_scale=1e-3)
        assert sweep_summary(reports)["FAIL"] >= 1

    def test_relative_x_maps_into_each_domain(self):
        plan = SweepPlan(("-ln(t)",), (CONST,), (0.25,), (0.0,), (1.0,), (1.0,))
        (r,) = sweep(plan)
        assert r.a == 0.5 and r.b == 2.0
        assert r.x == pytest.approx(0.875)
        assert r.status == "PASS"

    def test_holder_dominance_on_convex_registry(self):
        # empirical q = p = 2 sanity: the Holder bound dominates |S|
        plan = SweepPlan(("t^2", "t^3", "t^4", "exp(t)"), (CONST,),
                         (0.25, 0.5, 0.75), (0.0, 0.5, 1.0), (0.5, 1.0, 2.0), (2.0,),
                         theorems=("T2",))
        for r in sweep(plan):
            assert r.status == "PASS"
            assert r.rhs >= r.lhs - 1e-9


def _reference_sweep(plan, *, quad_tol=1e-12, rhs_scale=1.0):
    """The point-by-point sweep: one verify_point call per report."""
    reg = registry()
    reports = []
    for name in plan.function_names:
        fn = reg[name]
        a, b = fn.domain.a, fn.domain.b
        for kernel in plan.kernels:
            for q in plan.q:
                for xi in plan.x_rel:
                    x = a + (b - a) * xi
                    for lam in plan.lam:
                        for alpha in plan.alpha:
                            p = EvalParams(fn.domain, x=x, lam=lam, alpha=alpha, q=q)
                            for theorem in plan.theorems:
                                if theorem == "T2" and q <= 1.0:
                                    continue
                                reports.append(verify_point(
                                    fn, p, kernel, theorem,
                                    tol=plan.tol, quad_tol=quad_tol, rhs_scale=rhs_scale,
                                ))
    reports.sort(key=lambda r: (r.function, r.kernel, r.theorem, r.x, r.lam, r.alpha, r.q))
    return reports


@pytest.mark.parametrize("rhs_scale", [1.0, 0.5])
def test_sweep_matches_point_by_point_reference(rhs_scale):
    # PASS everywhere convex, HYPOTHESIS_UNMET for sqrt_control at q = 1,
    # FAIL (after the tight re-run) at half the bound, ERROR at alpha = 200
    # (Gamma overflows); x = 0.5 is repeated, and lambda = -0.0 sorts level
    # with 0.0 but prints differently, so reports are compared by repr
    plan = SweepPlan(("t^2", "sqrt_control"), (CONST, PhiKernel.mt()),
                     (0.0, 0.5, 0.5, 1.0), (0.0, -0.0, 0.5), (1.0, 200.0), (1.0, 2.0))
    reports = sweep(plan, rhs_scale=rhs_scale)
    reference = _reference_sweep(plan, rhs_scale=rhs_scale)
    assert [repr(r) for r in reports] == [repr(r) for r in reference]
    counts = sweep_summary(reports)
    assert counts["PASS"] > 0 and counts["HYPOTHESIS_UNMET"] > 0 and counts["ERROR"] > 0
    assert (counts["FAIL"] > 0) == (rhs_scale < 1.0)


def test_corollary_preset_consistency():
    # at phi = 1 and x = (a+b)/2 the report rhs equals the bound called directly
    fn = registry()["t^3"]
    for lam in (1.0 / 3.0, 0.0, 1.0):
        p = EvalParams(fn.domain, x=0.5, lam=lam, alpha=1.0, q=1.0)
        r = verify_point(fn, p, CONST, "T1")
        assert r.rhs == pytest.approx(theorem1_bound(fn, p, CONST), abs=1e-12)
