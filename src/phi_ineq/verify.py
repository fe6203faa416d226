"""Verification harness: point checks of the two bounds, the integral
identity residual, the classical midpoint/mean/endpoint warm-up check and
deterministic parameter sweeps.

Every check produces a :class:`BoundReport` carrying only what a verdict
emits, as builtin floats.  All four checks take their verdict from one
rule, :func:`_status`: HYPOTHESIS_UNMET when the hypothesis gate failed
(phi-convexity of |f''|**q, or of f for HH, checked empirically on a
grid), else PASS iff margin >= -tol.  T1/T2 pass rhs - lhs and ``tol``
(default MARGIN_TOL), with a FAIL's |S| taken again from Lemma 1's form
(:func:`identity_rhs`); LEMMA1 passes -|S - identity_rhs| and
:func:`identity_tolerance`; HH passes min(mean - mid, end - mean) and
1e-10.  A numerical failure (PhiIneqError, overflow, division by zero, a
nan side) becomes the ERROR report of :func:`_error_report`.

Every T1/T2 verdict comes from :func:`verify_grid`: :func:`verify_point`
is its one-point form and :func:`sweep` calls it once per function.  Two
caches outlive a run, because one-point callers repeat their keys across
calls: the gate witnesses of :func:`_hypothesis_witness` and the
coefficient integrals of :mod:`phi_ineq.coefquad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .bounds import (
    EvalParams,
    coef_a1,
    f2_powers,
    fractional_sum,
    holder_rhs,
    identity_rhs,
    power_mean_rhs,
    s_functional,
)
from .coefquad import coef_integral
from .convexity import PhiKernel, check_phi_convex
from .errors import DomainError, PhiIneqError
from .functions import registry
from .quadrature import QUAD_TOL, QuadratureSpec, integrate

STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_HYPOTHESIS = "HYPOTHESIS_UNMET"
STATUS_ERROR = "ERROR"

MARGIN_TOL = 1e-9  # the default tol of the T1/T2 checks


@dataclass(slots=True)
class BoundReport:
    """One verification record: a mutable, slotted record, built once per
    verdict (a frozen dataclass costs several times as much to build)."""

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


# The failures a check turns into an ERROR report.
_NUMERICAL = (PhiIneqError, OverflowError, ZeroDivisionError)


def _raise_if_nan(lhs, rhs):
    """Raise for a nan side, whose nan margin would read as a violation."""
    for side, value in (("lhs", lhs), ("rhs", rhs)):
        if value != value:
            raise PhiIneqError(f"{side} is nan: an intermediate value overflowed or is undefined")


def _error_report(fields, exc):
    """The ERROR report of a check that failed with ``exc``; ``fields``
    holds its leading fields, function to s."""
    return BoundReport(*fields, None, None, None, False, STATUS_ERROR, message=str(exc))


# Kept across calls: one process of the points-scatter benchmark makes
# 1,029 verify_point calls over only 84 distinct gate keys.  A gate scan
# takes about 0.7 ms on a 2-vCPU Xeon VM, so without this cache the 945
# repeated scans would add about 0.7 s to each session.
@lru_cache(maxsize=512)
def _hypothesis_witness(fn, q, kernel):
    def g(u):
        return abs(fn.f2(u)) ** q
    return check_phi_convex(g, kernel, fn.domain)


def verify_point(fn, params, kernel, theorem, *, tol=MARGIN_TOL, quad_tol=QUAD_TOL,
                 rhs_scale=1.0):
    """Check |S| against the T1 (power-mean) or T2 (Holder) bound at one
    parameter point on fn's domain, gating on the phi-convexity
    hypothesis: the one-point :func:`verify_grid`.  p is derived from q,
    and T2 needs q > 1."""
    if params.interval != fn.domain:
        raise DomainError(f"params interval {params.interval} is not fn's domain {fn.domain}")
    if theorem == "T2" and params.q <= 1.0:
        raise DomainError("Holder bound requires q > 1")
    (report,) = verify_grid(fn, (kernel,), (params.q,), (params.x,), (params.lam,),
                            (params.alpha,), (theorem,), tol=tol, quad_tol=quad_tol,
                            rhs_scale=rhs_scale)
    return report


def identity_tolerance(s):
    """The largest residual |S - identity_rhs| that passes: 1e-8 * max(1, |S|)."""
    return 1e-8 * max(1.0, abs(s))


def identity_check(fn, params, *, quad_tol=QUAD_TOL):
    """Residual of S against its second-derivative integral form.  PASS
    when the residual is at most :func:`identity_tolerance`."""
    fields = (fn.name, "", "LEMMA1", params.a, params.b, params.x, params.lam, params.alpha,
              None, None, None)
    try:
        lhs = float(s_functional(fn, params, quad_tol=quad_tol))
        rhs = float(identity_rhs(fn, params, quad_tol=quad_tol))
        _raise_if_nan(lhs, rhs)
    except _NUMERICAL as exc:
        return _error_report(fields, exc)
    resid = abs(lhs - rhs)
    return BoundReport(*fields, lhs, rhs, resid, True,
                       _status(True, -resid, identity_tolerance(lhs)))


def hermite_hadamard_check(fn, *, quad_tol=QUAD_TOL):
    """Classical Hermite-Hadamard warm-up on fn's domain [a, b]:
    f((a+b)/2) <= mean of f over [a, b] <= (f(a)+f(b))/2 for convex f,
    up to a margin tolerance of 1e-10."""
    a, b = fn.domain.a, fn.domain.b
    fields = (fn.name, "", "HH", a, b, None, None, None, None, None, None)
    try:
        witness = check_phi_convex(fn.f, PhiKernel.constant(), fn.domain)
        mid = float(fn.f(0.5 * a + 0.5 * b))
        res = integrate(fn.f, a, b, QuadratureSpec.for_quad_tol(quad_tol))
        mean = res.value / (b - a)
        end_avg = float(0.5 * (fn.f(a) + fn.f(b)))
        margin = min(mean - mid, end_avg - mean)
    except _NUMERICAL as exc:
        return _error_report(fields, exc)
    return BoundReport(*fields, mid, end_avg, margin, witness.holds,
                       _status(witness.holds, margin, 1e-10),
                       {"midpoint": mid, "integral_mean": mean, "endpoint_avg": end_avg})


@dataclass(frozen=True)
class SweepPlan:
    """Grids for a Cartesian sweep of both theorems.  ``x_rel`` holds
    relative positions in [0, 1] mapped onto each function's own interval,
    so one plan can mix functions with different domains."""

    function_names: tuple[str, ...]
    kernels: tuple[PhiKernel, ...]
    x_rel: tuple[float, ...]
    lam: tuple[float, ...]
    alpha: tuple[float, ...]
    q: tuple[float, ...]
    tol: float = MARGIN_TOL

    def __post_init__(self):
        problems = []
        reg = registry()
        for name in self.function_names:
            if name not in reg:
                problems.append(f"unknown registry function {name!r}")
        for name, values in (("kernels", self.kernels), ("x_rel", self.x_rel),
                             ("lam", self.lam), ("alpha", self.alpha), ("q", self.q)):
            if len(values) == 0:
                problems.append(f"{name} grid is empty")
        for v in self.x_rel:
            if not 0.0 <= v <= 1.0:
                problems.append(f"x position {v} outside [0, 1]")
        for v in self.lam:
            if not 0.0 <= v <= 1.0:
                problems.append(f"lambda {v} outside [0, 1]")
        for v in self.alpha:
            if not 0.0 < v < math.inf:
                problems.append(f"alpha {v} outside (0, inf)")
        for v in self.q:
            if not 1.0 <= v < math.inf:
                problems.append(f"q {v} outside [1, inf)")
        if not 0.0 < self.tol < math.inf:
            problems.append(f"tol {self.tol} outside (0, inf)")
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


class _Table(dict):
    """A per-run table: ``table[key]`` is ``compute(*key)``, computed on
    first use and kept for the rest of the run.  A numerical failure is
    kept as the entry's value and appended to ``failures``, a list the
    run's tables share, so the hot loop tests values only once the run
    has a failure."""

    def __init__(self, compute, failures):
        super().__init__()
        self._compute = compute
        self._failures = failures

    def __missing__(self, key):
        try:
            value = self._compute(*key)
        except _NUMERICAL as exc:
            self._failures.append(exc)
            value = exc
        self[key] = value
        return value


def _raise_failure(*values):
    """Raise the first of ``values`` that is a stored failure, without the
    traceback of its earlier raises."""
    for value in values:
        if isinstance(value, Exception):
            raise value.with_traceback(None)


def verify_grid(fn, kernels, qs, xs, lams, alphas, theorems, *, tol=MARGIN_TOL,
                quad_tol=QUAD_TOL, rhs_scale=1.0):
    """The T1/T2 report of every point of a product grid for one function,
    in the order of the nested loops kernel, q, x, lambda, alpha, theorem;
    T2 points exist only where q > 1.

    The work is staged over per-run tables, dicts that live for this call:
    the gate witness per (kernel, q), J1+J2 per (x, alpha), S per (x,
    lambda, alpha), |f''|^q at x, a and b per (x, q), and per kernel the
    coefficients (A1, A2, A3) per (alpha, lambda) and (B, M) per (alpha,
    lambda, p).  Each report is assembled with the bound formulas of
    :mod:`phi_ineq.bounds`.

    A FAIL takes its lhs again from :func:`identity_rhs` at the same
    ``quad_tol`` and gets its verdict from that lhs.  A point that fails
    numerically gets an ERROR report with the first failure in the order
    gate, S (whose table holds J1+J2's failure), coefficients, |f''|^q,
    assembly and that confirmation; p is left empty when the gate itself
    failed."""
    for theorem in theorems:
        if theorem not in ("T1", "T2"):
            raise DomainError(f"T1/T2 bounds only, got theorem {theorem!r}")
    dom = fn.domain
    a, b = dom.a, dom.b
    qs = [float(q) for q in qs]
    for q in qs:
        if not q >= 1.0:
            raise DomainError(f"q must be >= 1, got {q}")
    xs = [float(x) for x in xs]
    lams = [float(lam) for lam in lams]
    alphas = [float(alpha) for alpha in alphas]
    # every (x, lam, alpha) is checked as EvalParams checks it
    params = {(x, lam, alpha): EvalParams(dom, x=x, lam=lam, alpha=alpha)
              for x in xs for lam in lams for alpha in alphas}

    failures = []
    witnesses = _Table(lambda kernel, q: _hypothesis_witness(fn, q, kernel), failures)
    j_sums = _Table(lambda x, alpha: fractional_sum(fn, a, b, x, alpha, quad_tol=quad_tol),
                    failures)

    def s_value(x, lam, alpha):
        j_sum = j_sums[x, alpha]
        _raise_failure(j_sum)
        return s_functional(fn, params[x, lam, alpha], quad_tol=quad_tol, j_sum=j_sum)

    s_values = _Table(s_value, failures)
    powers = _Table(lambda x, q: f2_powers(fn, a, b, x, q), failures)

    reports = []
    append = reports.append
    for kernel in kernels:
        label = kernel.label

        def t1_coefficients(alpha, lam):
            a2 = coef_integral("A2", alpha, lam, kernel, quad_tol=quad_tol)
            a3 = coef_integral("A3", alpha, lam, kernel, quad_tol=quad_tol)
            return coef_a1(alpha, lam), a2, a3

        def t2_coefficients(alpha, lam, p):
            return (coef_integral("B", alpha, lam, p=p, quad_tol=quad_tol),
                    coef_integral("M", 1.0, 0.0, kernel, quad_tol=quad_tol))

        t1_coefs = _Table(t1_coefficients, failures)
        t2_coefs = _Table(t2_coefficients, failures)
        for q in qs:
            row_theorems = [t for t in theorems if t == "T1" or q > 1.0]
            if not row_theorems:
                continue
            witness = witnesses[kernel, q]
            p = q / (q - 1.0) if q > 1.0 else None
            for x in xs:
                fq = powers[x, q]
                for lam in lams:
                    for alpha in alphas:
                        s = s_values[x, lam, alpha]
                        for theorem in row_theorems:
                            t1 = theorem == "T1"
                            row_p = None if t1 else p
                            try:
                                if failures:
                                    _raise_failure(witness, s)
                                coefs = t1_coefs[alpha, lam] if t1 else t2_coefs[alpha, lam, p]
                                if failures:
                                    _raise_failure(coefs, fq)
                                if t1:
                                    bound = power_mean_rhs(a, b, x, alpha, q, coefs, fq)
                                else:
                                    bound = holder_rhs(a, b, x, alpha, q, p, coefs, fq)
                                lhs = float(abs(s))
                                rhs = float(bound * rhs_scale)
                                _raise_if_nan(lhs, rhs)
                                holds = witness.holds
                                margin = rhs - lhs
                                status = _status(holds, margin, tol)
                                if status == STATUS_FAIL:
                                    lhs = float(abs(identity_rhs(
                                        fn, params[x, lam, alpha], quad_tol=quad_tol)))
                                    _raise_if_nan(lhs, rhs)
                                    margin = rhs - lhs
                                    status = _status(holds, margin, tol)
                            except _NUMERICAL as exc:
                                append(_error_report(
                                    (fn.name, label, theorem, a, b, x, lam, alpha, q,
                                     None if exc is witness else row_p, kernel.s), exc))
                                continue
                            append(BoundReport(
                                fn.name, label, theorem, a, b, x, lam, alpha, q, row_p,
                                kernel.s, lhs, rhs, margin, holds, status,
                            ))
    return reports


def sweep(plan, *, quad_tol=QUAD_TOL, rhs_scale=1.0):
    """Run the full Cartesian product of the plan through one
    :func:`verify_grid` per function; T2 points exist only where q > 1 (p
    is derived as q/(q-1)).  Reports come back sorted by (function,
    kernel, theorem, x, lambda, alpha, q)."""
    reg = registry()
    reports = []
    for name in plan.function_names:
        fn = reg[name]
        a, b = fn.domain.a, fn.domain.b
        reports.extend(verify_grid(
            fn, plan.kernels, plan.q, [a + (b - a) * xi for xi in plan.x_rel],
            plan.lam, plan.alpha, ("T1", "T2"), tol=plan.tol, quad_tol=quad_tol,
            rhs_scale=rhs_scale,
        ))
    reports.sort(key=_sort_key)
    return reports


def sweep_summary(reports):
    counts = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_HYPOTHESIS: 0, STATUS_ERROR: 0}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    counts["total"] = len(reports)
    return counts
