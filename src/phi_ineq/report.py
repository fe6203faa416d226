"""Discrepancy ledger: every printed closed-form coefficient compared
against its quadrature oracle over a parameter grid.

The oracles come from :func:`phi_ineq.coefquad.coef_integral`, the same
function the theorem bounds consume, so the ledger and the bounds cannot
drift apart.  A printed form that requests an undefined quantity (the
complete Beta with a negative second parameter, as B_closed and C2 do) is
recorded as PRINTED_UNDEFINED rather than an error: that a formula cannot
be evaluated as written is itself the finding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import printed_coefficient
from .coefquad import coef_integral, kink
from .convexity import PhiKernel
from .errors import DomainError
from .quadrature import QUAD_TOL

AGREE_TOL = 1e-8

LEDGER_ALPHAS = (0.5, 1.0, 2.0)
LEDGER_LAMS = (0.0, 0.25, 0.5, 0.75, 1.0)
LEDGER_S = (0.5, 1.0)
LEDGER_P = (2.0,)

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
    try:
        printed = printed_coefficient(name, alpha, lam, s=s, p=p)
    except DomainError:
        return DiscrepancyEntry(name, alpha, lam, s, p, None, oracle, None, VERDICT_UNDEFINED)
    diff = abs(printed - oracle)
    verdict = VERDICT_AGREES if diff <= AGREE_TOL else VERDICT_DISAGREES
    return DiscrepancyEntry(name, alpha, lam, s, p, printed, oracle, diff, verdict)


def build_ledger(*, quad_tol=QUAD_TOL):
    """One entry per (coefficient, grid point) of the LEDGER_* grid; sorted
    and deterministic.  The grid covers both lambda boundaries, where
    several printed forms fail sanity checks.  The oracles of C1 and C2 are
    B over [0, m] and [m, 1], split at the kink m; an empty side is 0."""
    constant = PhiKernel.constant()
    entries = []
    for alpha in LEDGER_ALPHAS:
        for lam in LEDGER_LAMS:
            a2 = coef_integral("A2", alpha, lam, constant, quad_tol=quad_tol)
            a3 = coef_integral("A3", alpha, lam, constant, quad_tol=quad_tol)
            entries.append(_entry("A2C", alpha, lam, None, None, a2))
            entries.append(_entry("A3C", alpha, lam, None, None, a3))
            for s in LEDGER_S:
                power = PhiKernel.power(s)
                a4 = coef_integral("A2", alpha, lam, power, quad_tol=quad_tol)
                a5 = coef_integral("A3", alpha, lam, power, quad_tol=quad_tol)
                entries.append(_entry("A4", alpha, lam, s, None, a4))
                entries.append(_entry("A5", alpha, lam, s, None, a5))
            m = kink(alpha, lam)
            for p in LEDGER_P:
                b_val = coef_integral("B", alpha, lam, p=p, quad_tol=quad_tol)
                c1 = c2 = 0.0
                if m > 0.0:
                    c1 = coef_integral("B", alpha, lam, p=p, hi=m, quad_tol=quad_tol)
                if m < 1.0:
                    c2 = coef_integral("B", alpha, lam, p=p, lo=m, quad_tol=quad_tol)
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
