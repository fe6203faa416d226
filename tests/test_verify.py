"""Verification-harness tests: point checks, hypothesis gating, identity
and warm-up checks, sweeps and fault injection."""

import math
from contextlib import nullcontext

import pytest

from phi_ineq import bounds, verify
from phi_ineq.bounds import (
    EvalParams,
    identity_rhs,
    s_functional,
    theorem1_bound,
    theorem2_bound,
)
from phi_ineq.convexity import PhiKernel, check_phi_convex
from phi_ineq.errors import DomainError, PhiIneqError
from phi_ineq.fracint import Interval
from phi_ineq.functions import registry, resolve_function
from phi_ineq.verify import (
    BoundReport,
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
            # -ln(t) is negative on (1, 2]
            with (pytest.warns(UserWarning, match="negative values") if name == "-ln(t)"
                  else nullcontext()):
                r = hermite_hadamard_check(fn)
            assert r.status == "PASS"
            for v in (r.lhs, r.rhs, r.margin, *r.oracle_residuals.values()):
                assert type(v) is float

    def test_rejects_non_bound_theorems(self):
        fn = registry()["t^2"]
        with pytest.raises(DomainError):
            verify_point(fn, params(fn), CONST, "HH")

    def test_t2_at_q_one_raises(self):
        # the Holder exponent p = q/(q-1) does not exist; this is a wrong
        # call, not a numerical failure of the point
        fn = registry()["t^2"]
        with pytest.raises(DomainError, match="q > 1"):
            verify_point(fn, params(fn), CONST, "T2")


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
        with pytest.warns(UserWarning, match="negative values"):
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
        )
        reports = sweep(plan)
        # 162 T1 points (q = 1 and 2) and 81 T2 points (q = 2 only)
        assert len(reports) == 243
        assert sum(r.theorem == "T1" for r in reports) == 162
        assert sweep_summary(reports)["FAIL"] == 0

    def test_empty_function_list(self):
        plan = SweepPlan((), (CONST,), (0.5,), (0.0,), (1.0,), (1.0,))
        assert sweep(plan) == []

    def test_unknown_function_rejected(self):
        with pytest.raises(DomainError, match="unknown registry function 'nope'"):
            SweepPlan(("nope",), (CONST,), (0.5,), (0.0,), (1.0,), (1.0,))

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
                         (0.25, 0.5, 0.75), (0.0, 0.5, 1.0), (0.5, 1.0, 2.0), (2.0,))
        for r in sweep(plan):
            assert r.status == "PASS"
            assert r.rhs >= r.lhs - 1e-9


def _reference_point(fn, params, kernel, theorem, *, tol=1e-9, quad_tol=1e-12, rhs_scale=1.0):
    """The per-point assembly, kept here as the reference for the staged
    grid: the gate, S and the bound called directly, a FAIL candidate's
    lhs taken again from Lemma 1's form at the same tolerance, and ERROR
    on a numerical failure."""
    base = dict(function=fn.name, kernel=kernel.label, theorem=theorem,
                a=params.a, b=params.b, x=params.x, lam=params.lam, alpha=params.alpha,
                q=params.q, p=None, s=kernel.s if kernel.kind == "power" else None)
    bound = theorem1_bound if theorem == "T1" else theorem2_bound

    try:
        holds = check_phi_convex(lambda u: abs(fn.f2(u)) ** params.q, kernel, fn.domain).holds
        if theorem == "T2":
            base["p"] = params.q / (params.q - 1.0)
        lhs = float(abs(s_functional(fn, params, quad_tol=quad_tol)))
        rhs = float(bound(fn, params, kernel, quad_tol=quad_tol) * rhs_scale)
        if holds and rhs - lhs < -tol:
            lhs = float(abs(identity_rhs(fn, params, quad_tol=quad_tol)))
    except (PhiIneqError, OverflowError, ZeroDivisionError) as exc:
        return BoundReport(**base, lhs=None, rhs=None, margin=None, hypothesis_ok=False,
                           status="ERROR", message=str(exc))
    margin = rhs - lhs
    if not holds:
        status = "HYPOTHESIS_UNMET"
    else:
        status = "PASS" if margin >= -tol else "FAIL"
    return BoundReport(**base, lhs=lhs, rhs=rhs, margin=margin, hypothesis_ok=holds,
                       status=status)


def _reference_sweep(plan, *, quad_tol=1e-12, rhs_scale=1.0):
    """The point-by-point sweep: one reference point per report."""
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
                            for theorem in ("T1", "T2"):
                                if theorem == "T2" and q <= 1.0:
                                    continue
                                reports.append(_reference_point(
                                    fn, p, kernel, theorem,
                                    tol=plan.tol, quad_tol=quad_tol, rhs_scale=rhs_scale,
                                ))
    reports.sort(key=lambda r: (r.function, r.kernel, r.theorem, r.x, r.lam, r.alpha, r.q))
    return reports


KERNELS = (CONST, PhiKernel.power(0.5), PhiKernel.mt())


@pytest.mark.parametrize("rhs_scale", [1.0, 0.5])
def test_sweep_matches_point_by_point_reference(rhs_scale):
    # PASS everywhere convex, HYPOTHESIS_UNMET for sqrt_control at q = 1,
    # FAIL (confirmed by Lemma 1's form) at half the bound, ERROR at alpha = 200
    # (Gamma overflows) and alpha = 1e-9 (the RL weight underflows); x = 0.5
    # is repeated, and lambda = -0.0 sorts level with 0.0 but prints
    # differently, so reports are compared by repr
    plan = SweepPlan(("t^2", "sqrt_control"), KERNELS,
                     (0.0, 0.5, 0.5, 1.0), (0.0, -0.0, 0.5), (1.0, 200.0, 1e-9), (1.0, 2.0))
    reports = sweep(plan, rhs_scale=rhs_scale)
    reference = _reference_sweep(plan, rhs_scale=rhs_scale)
    assert [repr(r) for r in reports] == [repr(r) for r in reference]
    counts = sweep_summary(reports)
    assert counts["PASS"] > 0 and counts["HYPOTHESIS_UNMET"] > 0 and counts["ERROR"] > 0
    assert (counts["FAIL"] > 0) == (rhs_scale < 1.0)


def _point_grid():
    """(fn, (x, lam, alpha), kernel, rhs_scale) to compare."""
    pairs = ((0.5, 2.5), (0.5, 200.0), (0.5, 1e-9), (0.0, 1.0), (1.0, 0.5))
    for name in ("t", "t^2", "sqrt_control", "-ln(t)"):
        fn = registry()[name]
        a, b = fn.domain.a, fn.domain.b
        for kernel in KERNELS:
            for xi in (0.0, 0.5, 1.0):
                for lam, alpha in pairs:
                    for rhs_scale in (1.0, 0.5):
                        yield fn, (a + (b - a) * xi, lam, alpha), kernel, rhs_scale


@pytest.mark.parametrize("quad_tol", [1e-12, 1e-30])
@pytest.mark.parametrize("theorem, q", [("T1", 1.0), ("T1", 2.0), ("T2", 2.0)])
def test_verify_point_matches_reference(theorem, q, quad_tol):
    # rhs_scale = 0.5 forces the Lemma 1 confirmation; 1e-30 lies below the
    # quadrature's rounding floor, so there every point is an ERROR whose
    # message is the first failure in the reference's order
    statuses = set()
    for fn, (x, lam, alpha), kernel, rhs_scale in _point_grid():
        p = EvalParams(fn.domain, x=x, lam=lam, alpha=alpha, q=q)
        got = verify_point(fn, p, kernel, theorem, quad_tol=quad_tol, rhs_scale=rhs_scale)
        want = _reference_point(fn, p, kernel, theorem, quad_tol=quad_tol, rhs_scale=rhs_scale)
        assert repr(got) == repr(want)
        statuses.add(got.status)
    if quad_tol == 1e-12:
        assert {"PASS", "FAIL", "ERROR"} <= statuses
    else:
        assert statuses == {"ERROR"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gate_failure_leaves_p_empty():
    # ln(t) on [0, 1]: |f''|^q is infinite at the gate's grid point t = 0
    fn = resolve_function("ln(t)", 0.0, 1.0)
    p = params(fn, lam=0.5, q=2.0)
    for theorem in ("T1", "T2"):
        got = verify_point(fn, p, CONST, theorem)
        assert got.status == "ERROR" and got.p is None
        assert got.message == "function not finite on the sample grid"
        assert repr(got) == repr(_reference_point(fn, p, CONST, theorem))


@pytest.mark.parametrize("theorem, failing, first", [
    ("T1", ("A3", "f2_powers"), "A3"),
    ("T1", ("A2", "A3"), "A2"),
    ("T1", ("f2_powers",), "f2_powers"),
    ("T2", ("B", "M"), "B"),
    ("T2", ("M", "f2_powers"), "M"),
])
def test_error_names_first_failure_in_bound_order(monkeypatch, theorem, failing, first):
    # the grid computes coefficients and |f''|^q in tables of their own;
    # its ERROR message must still be the failure the bound meets first
    real = {name: getattr(bounds, name) for name in ("coef_integral", "f2_powers")}
    label = {"coef_integral": lambda args: args[0], "f2_powers": lambda args: "f2_powers"}

    def guarded(name):
        def call(*args, **kwargs):
            if label[name](args) in failing:
                raise PhiIneqError(f"{label[name](args)} failed")
            return real[name](*args, **kwargs)
        return call

    for name in real:
        for module in (bounds, verify):
            monkeypatch.setattr(module, name, guarded(name))
    fn = registry()["t^2"]
    p = params(fn, lam=0.5, alpha=1.5, q=2.0)
    got = verify_point(fn, p, CONST, theorem)
    assert got.status == "ERROR" and got.message == f"{first} failed"
    assert repr(got) == repr(_reference_point(fn, p, CONST, theorem))


@pytest.mark.parametrize("c", [0.0, 1e2, 1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("name, lam", [("t^3", 0.0), ("t^2", 0.0), ("t^2", 1.0)])
def test_equality_cases_translated_pass(name, lam, c):
    # the four-term S cancels terms of size c**3 (t^3) or c**2 (t^2) down
    # to 1/4, 1/6 or 1/12; 3 of these 18 points used to FAIL, one each at
    # c = 1e4, 1e5 and 1e6
    fn = resolve_function(name, c, c + 1.0)
    r = verify_point(fn, EvalParams(fn.domain, x=c + 0.5, lam=lam, alpha=1.0), CONST, "T1")
    assert r.status == "PASS"


def test_far_from_the_origin_fails_are_rare():
    # t^2, t^3, t^4 on [c, c+w], midpoint x, q = 1, phi = 1: 118 of these
    # 243 points were FAIL.  Left: 4 FAIL with |S| >= 8e5, where the
    # absolute tolerance 1e-9 lies below rounding, and 4 ERROR at
    # lam = 2/(alpha+2), where Lemma 1's integrand cancels.
    statuses = {}
    for name in ("t^2", "t^3", "t^4"):
        for c in (1e4, 1e5, 1e6):
            for w in (1.0, 1e-2, 1e-4):
                fn = resolve_function(name, c, c + w)
                for lam in (0.0, 0.5, 1.0):
                    for alpha in (0.5, 1.0, 2.0):
                        p = EvalParams(fn.domain, x=0.5 * (2.0 * c + w), lam=lam, alpha=alpha)
                        r = verify_point(fn, p, CONST, "T1")
                        statuses.setdefault(r.status, []).append((lam, alpha, r.lhs))
    assert len(statuses.get("FAIL", [])) + len(statuses.get("ERROR", [])) <= 8
    assert all(lhs >= 8e5 for _, _, lhs in statuses.get("FAIL", []))
    assert all((lam, alpha) == (0.5, 2.0) for lam, alpha, _ in statuses.get("ERROR", []))


def test_corollary_preset_consistency():
    # at phi = 1 and x = (a+b)/2 the report rhs equals the bound called directly
    fn = registry()["t^3"]
    for lam in (1.0 / 3.0, 0.0, 1.0):
        p = EvalParams(fn.domain, x=0.5, lam=lam, alpha=1.0, q=1.0)
        r = verify_point(fn, p, CONST, "T1")
        assert r.rhs == pytest.approx(theorem1_bound(fn, p, CONST), abs=1e-12)
