"""Coefficient-family integrals on the adaptive Gauss-Kronrod engine.

Every bound coefficient is an integral over (a sub-range of) [0, 1] of
one of five integrand families built from ``base(t) = t*(lam - t**alpha)``:

    A1:  |base(t)|
    A2:  |base(t)| * t * phi(t)
    A3:  |base(t)| * (1-t) * phi(1-t)
    B:   |base(t)| ** p
    M:   t * phi(t)

Each family is handed to :func:`phi_ineq.quadrature.integrate` with the
kink of ``|base|`` at ``lam**(1/alpha)`` as a split point and the MT
kernel's inverse-square-root endpoint declared, so the adaptive loop never
has to discover either.

Every T1/T2 verdict asks once per key of the per-run tables of
:func:`phi_ineq.verify.verify_grid` (A1-A3 per (alpha, lam, kernel), B and
M per (alpha, lam, kernel, p)), which hold the values for one call; the
grid's tight re-run asks again through the bound functions.  The
process-wide cache on :func:`_cached` answers the repeats those keys leave
(B is the same for every kernel, M for every (alpha, lam, p)) and the
repeats across calls: ``verify_point`` is a one-point grid whose tables
die with it, and the discrepancy ledger and the selftest ask for the same
integrals again.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .convexity import KIND_CONSTANT, KIND_MT, KIND_POWER
from .errors import DomainError
from .quadrature import QuadratureSpec, integrate

FAMILIES = ("A1", "A2", "A3", "B", "M")


def _phi_factory(kernel):
    if kernel is None or kernel.kind == KIND_CONSTANT:
        return lambda t: 1.0
    if kernel.kind == KIND_POWER:
        s = kernel.s
        return lambda t: t ** (s - 1.0)
    return lambda t: 0.5 / (math.sqrt(t) * math.sqrt(1.0 - t))  # MT


def _integrand(family, alpha, lam, kernel, p):
    phi = _phi_factory(kernel)
    if family == "A1":
        return lambda t: abs(t * (lam - t ** alpha))
    if family == "A2":
        return lambda t: abs(t * (lam - t ** alpha)) * t * phi(t)
    if family == "A3":
        return lambda t: abs(t * (lam - t ** alpha)) * (1.0 - t) * phi(1.0 - t)
    if family == "B":
        return lambda t: abs(t * (lam - t ** alpha)) ** p
    return lambda t: t * phi(t)  # M


def _validate(family, alpha, lam, kernel, p, lo, hi):
    if family not in FAMILIES:
        raise DomainError(f"unknown coefficient family {family!r}")
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    if family == "B" and not p > 0.0:
        raise DomainError(f"family B needs a positive exponent p, got {p}")
    if family in ("A2", "A3", "M") and kernel is None:
        raise DomainError(f"family {family} needs a weight kernel")
    if not 0.0 <= lo < hi <= 1.0:
        raise DomainError(f"family integrals live on sub-ranges of [0, 1], got [{lo}, {hi}]")


# Kept across calls: one process of the points-scatter benchmark makes
# 1,029 verify_point calls whose 441 T2 points need only 3 distinct M (one
# per kernel); 438 of its 2,058 coefficient calls are answered here.
@lru_cache(maxsize=16384)
def _cached(family, alpha, lam, kernel, p, lo, hi, abs_tol, rel_tol, max_subdivisions):
    splits = []
    if family != "M" and 0.0 < lam < 1.0:
        kink = lam ** (1.0 / alpha)
        if lo < kink < hi:
            splits.append(kink)
    left_e = 0.0
    right_e = 0.0
    if kernel is not None and kernel.kind == KIND_MT:
        if family == "A3" and lo == 0.0:
            left_e = -0.5
        if family in ("A2", "M") and hi == 1.0:
            right_e = -0.5
    spec = QuadratureSpec(
        abs_tol=abs_tol,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
        split_points=tuple(splits),
        left_exponent=left_e,
        right_exponent=right_e,
    )
    return integrate(_integrand(family, alpha, lam, kernel, p), lo, hi, spec).value


def coef_integral(family, alpha, lam, kernel=None, *, p=1.0, lo=0.0, hi=1.0,
                  abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=2000):
    """Adaptive quadrature value of one coefficient-family integral."""
    alpha = float(alpha)
    lam = float(lam)
    p = float(p)
    lo = float(lo)
    hi = float(hi)
    _validate(family, alpha, lam, kernel, p, lo, hi)
    return _cached(family, alpha, lam, kernel, p, lo, hi,
                   float(abs_tol), float(rel_tol), int(max_subdivisions))
