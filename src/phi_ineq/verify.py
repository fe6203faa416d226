"""Verification harness: point checks of the two bounds, the integral
identity residual, the classical midpoint/mean/endpoint warm-up check and
deterministic parameter sweeps.

Every check produces a :class:`BoundReport` carrying only what a verdict
emits: lhs, rhs, margin, the hypothesis flag and the status (plus the
warm-up's midpoint/mean/endpoint triple).  Values are builtin floats,
coerced once where they are computed.  A report FAILs only when the
hypothesis gate (phi-convexity of |f''|**q, checked empirically on a grid)
passed and the bound is still violated beyond tolerance; a point whose
hypothesis fails is tagged HYPOTHESIS_UNMET and never counts as a
violation.  Before declaring FAIL the point is re-run at 10x tighter
quadrature tolerance to rule out integration noise.  A numerical failure
(PhiIneqError, overflow, division by zero) becomes an ERROR report with
the failure's message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .bounds import (
    EvalParams,
    identity_rhs,
    s_functional,
    theorem1_bound,
    theorem2_bound,
)
from .convexity import KIND_POWER, PhiKernel, check_phi_convex
from .errors import DomainError, PhiIneqError
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


def _sort_key(r):
    return (r.function, r.kernel, r.theorem, r.x, r.lam, r.alpha, r.q)


def _status(hypothesis_ok, margin, tol):
    if not hypothesis_ok:
        return STATUS_HYPOTHESIS
    return STATUS_PASS if margin >= -tol else STATUS_FAIL


def _report(base, check):
    """The report of ``check()``'s verdict fields, or an ERROR report when
    the check fails numerically.  ``base`` is read after the check, so a
    field the check fills in before failing reaches the ERROR report."""
    try:
        verdict = check()
    except (PhiIneqError, OverflowError, ZeroDivisionError) as exc:
        return BoundReport(
            **base, lhs=None, rhs=None, margin=None,
            hypothesis_ok=False, status=STATUS_ERROR, message=str(exc),
        )
    return BoundReport(**base, **verdict)


@lru_cache(maxsize=512)
def _hypothesis_witness(fn, q, kernel, interval):
    def g(u):
        return abs(fn.f2(u)) ** q
    return check_phi_convex(g, kernel, interval)


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

    def check():
        witness = _hypothesis_witness(fn, params.q, kernel, params.interval)
        bound = theorem1_bound if theorem == "T1" else theorem2_bound
        if theorem == "T2":
            base["p"] = params.conjugate_p()

        def evaluate(qt):
            lhs = float(abs(s_functional(fn, params, quad_tol=qt)))
            rhs = float(bound(fn, params, kernel, quad_tol=qt) * rhs_scale)
            return lhs, rhs

        lhs, rhs = evaluate(quad_tol)
        if witness.holds and rhs - lhs < -tol:
            lhs, rhs = evaluate(quad_tol / 10.0)
        margin = rhs - lhs
        return dict(lhs=lhs, rhs=rhs, margin=margin, hypothesis_ok=witness.holds,
                    status=_status(witness.holds, margin, tol))

    return _report(base, check)


def identity_check(fn, params, *, quad_tol=1e-12):
    """Residual of S against its second-derivative integral form.  PASS
    when |S - rhs| <= 1e-8 * max(1, |S|)."""
    base = dict(
        function=fn.name, kernel="", theorem="LEMMA1",
        a=params.a, b=params.b, x=params.x, lam=params.lam, alpha=params.alpha,
        q=None, p=None, s=None,
    )

    def check():
        lhs = float(s_functional(fn, params, quad_tol=quad_tol))
        rhs = float(identity_rhs(fn, params, quad_tol=quad_tol))
        resid = abs(lhs - rhs)
        ok = resid <= 1e-8 * max(1.0, abs(lhs))
        return dict(lhs=lhs, rhs=rhs, margin=resid, hypothesis_ok=True,
                    status=STATUS_PASS if ok else STATUS_FAIL)

    return _report(base, check)


def hermite_hadamard_check(fn, *, quad_tol=1e-12):
    """Classical Hermite-Hadamard warm-up on fn's domain [a, b]:
    f((a+b)/2) <= mean of f over [a, b] <= (f(a)+f(b))/2 for convex f,
    up to a margin tolerance of 1e-10."""
    a, b = fn.domain.a, fn.domain.b
    base = dict(
        function=fn.name, kernel="", theorem="HH",
        a=a, b=b, x=None, lam=None, alpha=None, q=None, p=None, s=None,
    )

    def check():
        witness = check_phi_convex(fn.f, PhiKernel.constant(), fn.domain)
        mid = float(fn.f(0.5 * (a + b)))
        res = integrate(fn.f, a, b, QuadratureSpec(abs_tol=0.1 * quad_tol, rel_tol=10.0 * quad_tol))
        mean = res.value / (b - a)
        end_avg = float(0.5 * (fn.f(a) + fn.f(b)))
        margin = min(mean - mid, end_avg - mean)
        return dict(
            lhs=mid, rhs=end_avg, margin=margin, hypothesis_ok=witness.holds,
            status=_status(witness.holds, margin, 1e-10),
            oracle_residuals={"midpoint": mid, "integral_mean": mean, "endpoint_avg": end_avg},
        )

    return _report(base, check)


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
        if not self.tol > 0.0:
            problems.append(f"tol {self.tol} not positive")
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
