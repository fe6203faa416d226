"""Discrepancy ledger: every printed closed-form coefficient compared
against its quadrature oracle over a parameter grid.

The oracles are the same functions the theorem bounds consume, so the
ledger and the bounds cannot drift apart.  A printed form that requests
an undefined quantity (the complete Beta with a negative second
parameter, as B_closed and C2 do) is recorded as PRINTED_UNDEFINED rather
than an error: that a formula cannot be evaluated as written is itself
the finding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import (
    EvalParams,
    coef_b,
    coef_c_oracle,
    coef_weighted,
    printed_coefficient,
)
from .convexity import PhiKernel
from .errors import DomainError
from .fracint import Interval

AGREE_TOL = 1e-8

VERDICT_AGREES = "AGREES"
VERDICT_DISAGREES = "DISAGREES"
VERDICT_UNDEFINED = "PRINTED_UNDEFINED"


@dataclass(frozen=True)
class DiscrepancyEntry:
    coefficient: str
    alpha: float
    lam: float
    s: float | None
    p: float | None
    printed: float | None
    oracle: float
    abs_diff: float | None
    verdict: str


def _entry(name, alpha, lam, s, p, oracle):
    params = EvalParams(
        Interval(0.0, 1.0), x=0.5, lam=lam, alpha=alpha,
        q=(p / (p - 1.0)) if p is not None else 1.0, p=p, s=s,
    )
    try:
        printed = printed_coefficient(name, params).value
    except DomainError:
        return DiscrepancyEntry(name, alpha, lam, s, p, None, oracle, None, VERDICT_UNDEFINED)
    diff = abs(printed - oracle)
    verdict = VERDICT_AGREES if diff <= AGREE_TOL else VERDICT_DISAGREES
    return DiscrepancyEntry(name, alpha, lam, s, p, printed, oracle, diff, verdict)


def build_ledger(alphas=(0.5, 1.0, 2.0), lams=(0.0, 0.25, 0.5, 0.75, 1.0),
                 s_values=(0.5, 1.0), p_values=(2.0,), *, quad_tol=1e-12):
    """One entry per (coefficient, grid point); sorted and deterministic.
    The default grid covers both lambda boundaries, where several printed
    forms fail sanity checks."""
    constant = PhiKernel.constant()
    entries = []
    for alpha in alphas:
        for lam in lams:
            a2 = coef_weighted(alpha, lam, constant, "A2", quad_tol=quad_tol)
            a3 = coef_weighted(alpha, lam, constant, "A3", quad_tol=quad_tol)
            entries.append(_entry("A2C", alpha, lam, None, None, a2))
            entries.append(_entry("A3C", alpha, lam, None, None, a3))
            for s in s_values:
                power = PhiKernel.power(s)
                a4 = coef_weighted(alpha, lam, power, "A2", quad_tol=quad_tol)
                a5 = coef_weighted(alpha, lam, power, "A3", quad_tol=quad_tol)
                entries.append(_entry("A4", alpha, lam, s, None, a4))
                entries.append(_entry("A5", alpha, lam, s, None, a5))
            for p in p_values:
                b_val = coef_b(alpha, lam, p, quad_tol=quad_tol)
                c1 = coef_c_oracle(alpha, lam, p, "C1", quad_tol=quad_tol)
                c2 = coef_c_oracle(alpha, lam, p, "C2", quad_tol=quad_tol)
                entries.append(_entry("B_closed", alpha, lam, None, p, b_val))
                entries.append(_entry("C1", alpha, lam, None, p, c1))
                entries.append(_entry("C2", alpha, lam, None, p, c2))
    entries.sort(key=lambda e: (
        e.coefficient, e.alpha, e.lam,
        e.s if e.s is not None else -1.0,
        e.p if e.p is not None else -1.0,
    ))
    return entries


def find_entry(entries, coefficient, alpha, lam, s=None, p=None):
    for e in entries:
        if (e.coefficient == coefficient and e.alpha == alpha and e.lam == lam
                and e.s == s and e.p == p):
            return e
    raise KeyError(f"no ledger entry for {coefficient} at alpha={alpha}, lam={lam}, s={s}, p={p}")
