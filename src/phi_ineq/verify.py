"""Verification harness: point checks of the two bounds, the integral
identity residual, the classical midpoint/mean/endpoint warm-up check and
deterministic parameter sweeps.

Every check produces a :class:`BoundReport`.  A report FAILs only when
the hypothesis gate (phi-convexity of |f''|**q, checked empirically on a
grid) passed and the bound is still violated beyond tolerance; a point
whose hypothesis fails is tagged HYPOTHESIS_UNMET and never counts as a
violation.  Before declaring FAIL the point is re-run at 10x tighter
quadrature tolerance to rule out integration noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .bounds import (
    EvalParams,
    coef_a1,
    coef_a1_oracle,
    identity_rhs,
    s_functional,
    theorem1_bound,
    theorem2_bound,
    weight_moment,
    weight_moment_closed,
)
from .convexity import KIND_POWER, PhiKernel, check_phi_convex
from .errors import DomainError, PhiIneqError
from .fracint import Interval
from .functions import registry
from .quadrature import QuadratureSpec, integrate

THEOREMS = ("T1", "T2", "HH", "LEMMA1")
STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_HYPOTHESIS = "HYPOTHESIS_UNMET"
STATUS_ERROR = "ERROR"


@dataclass(frozen=True)
class BoundReport:
    """One verification record."""

    function: str
    kernel: str
    theorem: str
    a: float
    b: float
    x: float | None
    lam: float | None
    alpha: float | None
    q: float | None
    p: float | None
    s: float | None
    lhs: float | None
    rhs: float | None
    margin: float | None
    hypothesis_ok: bool
    status: str
    oracle_residuals: dict = field(default_factory=dict)
    message: str = ""

    def __post_init__(self):
        # numpy scalars leak in through vectorized test functions; pin every
        # numeric field to a builtin float so serialized output is uniform
        for name in ("a", "b", "x", "lam", "alpha", "q", "p", "s", "lhs", "rhs", "margin"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))
        object.__setattr__(self, "hypothesis_ok", bool(self.hypothesis_ok))
        object.__setattr__(
            self,
            "oracle_residuals",
            {k: float(v) for k, v in self.oracle_residuals.items()},
        )


def _sort_key(r):
    none = float("-inf")
    return (
        r.function, r.kernel, r.theorem,
        r.x if r.x is not None else none,
        r.lam if r.lam is not None else none,
        r.alpha if r.alpha is not None else none,
        r.q if r.q is not None else none,
    )


@lru_cache(maxsize=512)
def _hypothesis_witness(fn, q, kernel, interval):
    def g(u):
        return abs(fn.f2(u)) ** q
    return check_phi_convex(g, kernel, interval)


@lru_cache(maxsize=512)
def _convexity_witness(fn, interval):
    return check_phi_convex(fn.f, PhiKernel.constant(), interval)


def _report_s(params, kernel):
    if kernel.kind == KIND_POWER:
        return kernel.s
    return params.s


def verify_point(fn, params, kernel, theorem, *, tol=1e-9, quad_tol=1e-12, rhs_scale=1.0):
    """Check |S| against the T1 (power-mean) or T2 (Holder) bound at one
    parameter point, gating on the phi-convexity hypothesis."""
    if theorem not in ("T1", "T2"):
        raise DomainError(f"verify_point handles T1/T2 only, got {theorem!r}")
    base = dict(
        function=fn.name, kernel=kernel.label, theorem=theorem,
        a=params.a, b=params.b, x=params.x, lam=params.lam, alpha=params.alpha,
        q=params.q, p=None, s=_report_s(params, kernel),
    )
    try:
        witness = _hypothesis_witness(fn, params.q, kernel, params.interval)
        bound = theorem1_bound if theorem == "T1" else theorem2_bound
        if theorem == "T2":
            base["p"] = params.conjugate_p()

        def evaluate(qt):
            lhs = abs(s_functional(fn, params, quad_tol=qt))
            rhs = bound(fn, params, kernel, quad_tol=qt) * rhs_scale
            return lhs, rhs

        lhs, rhs = evaluate(quad_tol)
        if witness.holds and rhs - lhs < -tol:
            lhs, rhs = evaluate(quad_tol / 10.0)

        residuals = {
            "A1_closed_vs_oracle": abs(
                coef_a1(params.alpha, params.lam)
                - coef_a1_oracle(params.alpha, params.lam, quad_tol=quad_tol)
            )
        }
        if theorem == "T2":
            residuals["M_quadrature_vs_closed"] = abs(
                weight_moment(kernel, quad_tol=quad_tol) - weight_moment_closed(kernel)
            )
        margin = rhs - lhs
        if not witness.holds:
            status = STATUS_HYPOTHESIS
        elif margin >= -tol:
            status = STATUS_PASS
        else:
            status = STATUS_FAIL
        return BoundReport(
            **base, lhs=lhs, rhs=rhs, margin=margin,
            hypothesis_ok=witness.holds, status=status,
            oracle_residuals=residuals,
        )
    except (PhiIneqError, OverflowError, ZeroDivisionError) as exc:
        return BoundReport(
            **base, lhs=None, rhs=None, margin=None,
            hypothesis_ok=False, status=STATUS_ERROR, message=str(exc),
        )


def identity_check(fn, params, *, quad_tol=1e-12):
    """Residual of S against its second-derivative integral form.  PASS
    when |S - rhs| <= 1e-8 * max(1, |S|)."""
    base = dict(
        function=fn.name, kernel="", theorem="LEMMA1",
        a=params.a, b=params.b, x=params.x, lam=params.lam, alpha=params.alpha,
        q=None, p=None, s=None,
    )
    try:
        lhs = s_functional(fn, params, quad_tol=quad_tol)
        rhs = identity_rhs(fn, params, quad_tol=quad_tol)
        resid = abs(lhs - rhs)
        ok = resid <= 1e-8 * max(1.0, abs(lhs))
        return BoundReport(
            **base, lhs=lhs, rhs=rhs, margin=resid,
            hypothesis_ok=True, status=STATUS_PASS if ok else STATUS_FAIL,
            oracle_residuals={"identity_residual": resid},
        )
    except (PhiIneqError, OverflowError, ZeroDivisionError) as exc:
        return BoundReport(
            **base, lhs=None, rhs=None, margin=None,
            hypothesis_ok=False, status=STATUS_ERROR, message=str(exc),
        )


def hermite_hadamard_check(fn, interval=None, *, tol=1e-10, quad_tol=1e-12):
    """Classical Hermite-Hadamard warm-up:
    f((a+b)/2) <= mean of f over [a, b] <= (f(a)+f(b))/2 for convex f."""
    if interval is None:
        interval = fn.domain
    elif not isinstance(interval, Interval):
        interval = Interval(*interval)
    a, b = interval.a, interval.b
    base = dict(
        function=fn.name, kernel="", theorem="HH",
        a=a, b=b, x=None, lam=None, alpha=None, q=None, p=None, s=None,
    )
    try:
        witness = _convexity_witness(fn, interval)
        mid = fn.f(0.5 * (a + b))
        res = integrate(fn.f, a, b, QuadratureSpec(abs_tol=0.1 * quad_tol, rel_tol=10.0 * quad_tol))
        mean = res.value / (b - a)
        end_avg = 0.5 * (fn.f(a) + fn.f(b))
        margin = min(mean - mid, end_avg - mean)
        residuals = {"midpoint": mid, "integral_mean": mean, "endpoint_avg": end_avg}
        if not witness.holds:
            status = STATUS_HYPOTHESIS
        elif margin >= -tol:
            status = STATUS_PASS
        else:
            status = STATUS_FAIL
        return BoundReport(
            **base, lhs=mid, rhs=end_avg, margin=margin,
            hypothesis_ok=witness.holds, status=status, oracle_residuals=residuals,
        )
    except (PhiIneqError, OverflowError, ZeroDivisionError) as exc:
        return BoundReport(
            **base, lhs=None, rhs=None, margin=None,
            hypothesis_ok=False, status=STATUS_ERROR, message=str(exc),
        )


@dataclass(frozen=True)
class SweepPlan:
    """Grids for a Cartesian sweep.  ``x_rel`` holds relative positions
    in [0, 1] mapped onto each function's own interval, so one plan can
    mix functions with different domains."""

    function_names: tuple[str, ...]
    kernels: tuple[PhiKernel, ...]
    x_rel: tuple[float, ...]
    lam: tuple[float, ...]
    alpha: tuple[float, ...]
    q: tuple[float, ...]
    tol: float = 1e-9
    theorems: tuple[str, ...] = ("T1", "T2")

    def __post_init__(self):
        problems = []
        for name, values in (("function_names", self.function_names),
                             ("kernels", self.kernels), ("x_rel", self.x_rel),
                             ("lam", self.lam), ("alpha", self.alpha), ("q", self.q)):
            if len(values) == 0 and name != "function_names":
                problems.append(f"{name} grid is empty")
        for v in self.x_rel:
            if not 0.0 <= v <= 1.0:
                problems.append(f"x position {v} outside [0, 1]")
        for v in self.lam:
            if not 0.0 <= v <= 1.0:
                problems.append(f"lambda {v} outside [0, 1]")
        for v in self.alpha:
            if not v > 0.0:
                problems.append(f"alpha {v} not positive")
        for v in self.q:
            if not v >= 1.0:
                problems.append(f"q {v} below 1")
        for t in self.theorems:
            if t not in ("T1", "T2"):
                problems.append(f"unknown sweep theorem {t!r}")
        if problems:
            raise DomainError("; ".join(problems))


def default_sweep_plan():
    """Registry x {constant, power(0.5), mt} x standard parameter grids."""
    return SweepPlan(
        function_names=tuple(registry()),
        kernels=(PhiKernel.constant(), PhiKernel.power(0.5), PhiKernel.mt()),
        x_rel=(0.25, 0.5, 0.75),
        lam=(0.0, 1.0 / 3.0, 1.0),
        alpha=(0.5, 1.0, 2.0),
        q=(1.0, 2.0),
    )


def sweep(plan, *, quad_tol=1e-12, rhs_scale=1.0):
    """Run the full Cartesian product of the plan; T2 points exist only
    where q > 1 (p is derived as q/(q-1)).  Reports come back sorted by
    (function, kernel, theorem, x, lambda, alpha, q)."""
    reg = registry()
    reports = []
    for name in plan.function_names:
        if name not in reg:
            raise DomainError(f"unknown registry function {name!r}")
        fn = reg[name]
        a, b = fn.domain.a, fn.domain.b
        for kernel in plan.kernels:
            for q in plan.q:
                for xi in plan.x_rel:
                    x = a + (b - a) * xi
                    for lam in plan.lam:
                        for alpha in plan.alpha:
                            params = EvalParams(fn.domain, x=x, lam=lam, alpha=alpha, q=q)
                            for theorem in plan.theorems:
                                if theorem == "T2" and q <= 1.0:
                                    continue
                                reports.append(verify_point(
                                    fn, params, kernel, theorem,
                                    tol=plan.tol, quad_tol=quad_tol, rhs_scale=rhs_scale,
                                ))
    reports.sort(key=_sort_key)
    return reports


def sweep_summary(reports):
    counts = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_HYPOTHESIS: 0, STATUS_ERROR: 0}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    counts["total"] = len(reports)
    return counts
