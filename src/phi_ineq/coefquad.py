"""Coefficient-family integrals on the adaptive Gauss-Kronrod engine.

Every bound coefficient is an integral over (a sub-range of) [0, 1] of
one of five integrand families built from ``base(t) = t*(lam - t**alpha)``:

    A1:  |base(t)|
    A2:  |base(t)| * t * phi(t)
    A3:  |base(t)| * (1-t) * phi(1-t)
    B:   |base(t)| ** p
    M:   t * phi(t)

:func:`coef_integral` is the only way to ask for one: the theorem bounds,
the per-run tables of :func:`phi_ineq.verify.verify_grid`, the
discrepancy ledger (which also asks for B on [0, m] and [m, 1], the C1/C2
split at the kink m) and the selftest all call it.  M does not depend on
(alpha, lam); callers pass (1.0, 0.0).  Each family is handed to
:func:`phi_ineq.quadrature.integrate` under the spec of ``quad_tol``
(:meth:`~phi_ineq.quadrature.QuadratureSpec.for_quad_tol`), with the kink
of ``|base|`` at ``lam**(1/alpha)`` (:func:`kink`) as a split point and
the exponent of the integrand's leading non-integer power declared at
each end, so the adaptive loop never has to discover either.  The
engine grades a positive non-integer end, removes a negative one and
leaves an integer one alone (:mod:`phi_ineq.quadrature`).  The declared
exponents, where 0 is a smooth end, s the power kernel's exponent and m
the kink:

    family  kernel    t = lo                          t = hi
    A1      -         0                               0
    A2, A3  constant  0                               0
    A2      power(s)  1 + s (alpha + 1 + s at lam=0)  0
    A2      MT        3/2 (alpha + 3/2 at lam=0)      -1/2
    A3      power(s)  alpha + 1                       s (1 + s at lam=1)
    A3      MT        -1/2                            1/2 (3/2 at lam=1)
    B       -         p; p + alpha for an integer p;  p at lam=1 or at m
                      p*(alpha + 1) at lam=0; p at m
    M       power(s)  s                               0
    M       MT        1/2                             -1/2

The constant kernel's families, smooth but for ``t**(alpha+1)`` in
``|base|`` at t = 0, are left undeclared, so their coefficients keep
their bytes: they set the zero margins of the equality cases, which are
judged at an absolute tolerance.  A3's MT end at t = 0 keeps the
weight's -1/2 although ``|base|`` lifts the integrand there to
``t**(1/2)``: its substitution t = u**2 makes that power smooth, where
grading would not.

The process-wide cache on :func:`_cached` answers the repeats the
callers' keys leave (B is the same for every kernel, M for every
(alpha, lam, p)) and the repeats across calls: ``verify_point`` is a
one-point grid whose tables die with it, and the ledger and the selftest
ask for the same integrals again.
"""

from __future__ import annotations

from functools import lru_cache

from .convexity import KIND_CONSTANT, KIND_MT, phi_function
from .errors import DomainError
from .quadrature import QUAD_TOL, QuadratureSpec, integrate

FAMILIES = ("A1", "A2", "A3", "B", "M")


def kink(alpha, lam):
    """lam**(1/alpha), where ``|t*(lam - t**alpha)|`` has its kink."""
    return lam ** (1.0 / alpha)


def kink_splits(alpha, lam, lo=0.0, hi=1.0):
    """The kink as split points of [lo, hi]: none unless strictly inside,
    so a kink that underflowed to 0.0 or rounded to 1.0 is not passed."""
    m = kink(alpha, lam)
    return (m,) if lo < m < hi else ()


def _integrand(family, alpha, lam, kernel, p):
    if family == "A1":
        return lambda t: abs(t * (lam - t ** alpha))
    if family == "B":
        return lambda t: abs(t * (lam - t ** alpha)) ** p
    phi = phi_function(kernel)
    if family == "A2":
        return lambda t: abs(t * (lam - t ** alpha)) * t * phi(t)
    if family == "A3":
        return lambda t: abs(t * (lam - t ** alpha)) * (1.0 - t) * phi(1.0 - t)
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


def _end_exponents(family, alpha, lam, kernel, p, lo, hi):
    """(left, right): the exponents of the integrand's leading non-integer
    powers at lo and at hi, as tabled in the module docstring."""
    if family == "B":
        m = kink(alpha, lam)
        if lo == 0.0 and lam == 0.0:
            left = p * (alpha + 1.0)
        elif lo == 0.0:
            left = p + alpha if p.is_integer() else p
        else:
            left = p if lo == m else 0.0
        right = p if hi == m or (hi == 1.0 and lam == 1.0) else 0.0
        return left, right
    if family == "A1" or kernel.kind == KIND_CONSTANT:
        return 0.0, 0.0
    mt = kernel.kind == KIND_MT
    w = 0.5 if mt else kernel.s  # the weight's power at its vanishing end
    left = 0.0
    right = 0.0
    if family == "A3":
        if lo == 0.0:
            left = -0.5 if mt else alpha + 1.0
        if hi == 1.0:
            right = w + (1.0 if lam == 1.0 else 0.0)
        return left, right
    if lo == 0.0:
        left = w if family == "M" else w + (1.0 if lam > 0.0 else alpha + 1.0)
    if hi == 1.0 and mt:
        right = -0.5
    return left, right


# Kept across calls: one process of the points-scatter benchmark makes
# 1,029 verify_point calls whose 441 T2 points need only 3 distinct M (one
# per kernel); 438 of its 2,058 coefficient calls are answered here.
@lru_cache(maxsize=16384)
def _cached(family, alpha, lam, kernel, p, lo, hi, quad_tol):
    splits = () if family == "M" else kink_splits(alpha, lam, lo, hi)
    left_e, right_e = _end_exponents(family, alpha, lam, kernel, p, lo, hi)
    spec = QuadratureSpec.for_quad_tol(
        quad_tol, split_points=splits, left_exponent=left_e, right_exponent=right_e,
    )
    return integrate(_integrand(family, alpha, lam, kernel, p), lo, hi, spec).value


def coef_integral(family, alpha, lam, kernel=None, *, p=1.0, lo=0.0, hi=1.0, quad_tol=QUAD_TOL):
    """Adaptive quadrature value of one coefficient-family integral over
    [lo, hi]; A2, A3 and M need a kernel, B a positive exponent p."""
    alpha = float(alpha)
    lam = float(lam)
    p = float(p)
    lo = float(lo)
    hi = float(hi)
    _validate(family, alpha, lam, kernel, p, lo, hi)
    return _cached(family, alpha, lam, kernel, p, lo, hi, float(quad_tol))
