"""Adaptive one-dimensional quadrature with kink splitting and algebraic
endpoint singularities.

The engine is a classic globally-adaptive Gauss-Kronrod scheme: each panel
is integrated with the 15-point Kronrod rule, the embedded 7-point Gauss
rule supplies the error estimate, and the panel with the largest error is
bisected until the requested tolerance is met.

Two features matter for the integrands in this package:

* ``split_points`` let the caller place panel boundaries exactly at known
  derivative kinks (the integrand ``|t(lam - t**alpha)|`` has one at
  ``lam**(1/alpha)``), so the adaptive loop never has to discover
  non-smoothness on its own.

* declared algebraic endpoint behaviour ``(t - lo)**left_exponent`` (and
  symmetrically on the right) with exponent in (-1, 0) is removed by the
  power substitution ``t = lo + u**kappa`` with ``kappa = 1/(1+exponent)``,
  which makes the transformed integrand bounded. Exponents >= 0 are
  regular and need no transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonFiniteSample, ToleranceNotMet

# 15-point Kronrod abscissae (positive half; XGK[7] = 0 is the centre) and
# weights, with the embedded 7-point Gauss weights.  Values are the standard
# double-precision tables; test_quadrature.py checks polynomial exactness.
XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EPS = 2.220446049250313e-16
# No panel error estimate falls below this multiple of the panel's
# integral of |f| (QUADPACK's roundoff bound).
_ROUNDING_FLOOR = 50.0 * _EPS
# The most bisections one integral may take before ToleranceNotMet.
MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and integrand structure hints."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    split_points: tuple[float, ...] = ()
    left_exponent: float = 0.0
    right_exponent: float = 0.0

    def __post_init__(self):
        if not (self.abs_tol > 0.0) or not (self.rel_tol > 0.0):
            raise DomainError("abs_tol and rel_tol must be positive")
        if self.left_exponent <= -1.0 or self.right_exponent <= -1.0:
            raise DomainError("endpoint exponents must exceed -1 (integrability)")
        object.__setattr__(self, "split_points", tuple(float(p) for p in self.split_points))

    @classmethod
    def for_quad_tol(cls, quad_tol, **hints):
        """The spec of one ``--quad-tol`` value: an absolute tolerance of
        0.1x and a relative tolerance of 10x ``quad_tol``, with the given
        structure hints.  Every integral that a ``quad_tol`` controls is
        built here."""
        return cls(abs_tol=0.1 * quad_tol, rel_tol=10.0 * quad_tol, **hints)


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    subdivisions_used: int


@dataclass(frozen=True)
class Segment:
    """One initial panel in transformed coordinates.

    mode 0: t = u                     (plain)
    mode 1: t = anchor + u**kappa     (left-singular end)
    mode 2: t = anchor - u**kappa     (right-singular end)
    """

    u_lo: float
    u_hi: float
    mode: int = 0
    kappa: float = 1.0
    anchor: float = 0.0


def build_segments(lo, hi, split_points, left_exponent, right_exponent):
    """Partition [lo, hi] at the split points and attach the power
    substitution to singular ends."""
    splits = sorted(set(float(p) for p in split_points))
    for p in splits:
        if not (lo < p < hi):
            raise DomainError(f"split point {p} not strictly inside ({lo}, {hi})")
    left_sing = left_exponent < 0.0
    right_sing = right_exponent < 0.0
    bounds = [lo] + splits + [hi]
    if left_sing and right_sing and len(bounds) == 2:
        bounds.insert(1, 0.5 * (lo + hi))
    segments = []
    last = len(bounds) - 2
    for i in range(len(bounds) - 1):
        p0, p1 = bounds[i], bounds[i + 1]
        if i == 0 and left_sing:
            kappa = 1.0 / (1.0 + left_exponent)
            segments.append(Segment(0.0, (p1 - lo) ** (1.0 / kappa), 1, kappa, lo))
        elif i == last and right_sing:
            kappa = 1.0 / (1.0 + right_exponent)
            segments.append(Segment(0.0, (hi - p0) ** (1.0 / kappa), 2, kappa, hi))
        else:
            segments.append(Segment(p0, p1))
    return segments


def _segment_integrand(f, seg):
    if seg.mode == 0:
        return f
    kappa, anchor = seg.kappa, seg.anchor
    if seg.mode == 1:
        def g(u):
            return f(anchor + u ** kappa) * kappa * u ** (kappa - 1.0)
    else:
        def g(u):
            return f(anchor - u ** kappa) * kappa * u ** (kappa - 1.0)
    return g


# The tables unpacked, for the unrolled panel rule below.
_XK0, _XK1, _XK2, _XK3, _XK4, _XK5, _XK6 = XGK[:7]
_WK0, _WK1, _WK2, _WK3, _WK4, _WK5, _WK6, _WK7 = WGK
_WG0, _WG1, _WG2, _WG3 = WG


def _non_finite(f1, f2, left, right):
    bad = left if not math.isfinite(f1) else right
    return NonFiniteSample(f"integrand returned a non-finite value at {bad!r}")


def _gk15(g, a, b):
    """Kronrod / Gauss pair on one panel with a QUADPACK-style error
    estimate.  Returns (value, err).

    The loop over the seven node pairs is unrolled, so the samples stay in
    locals; every sum still adds the centre term first and then the pairs
    in table order, outermost first.  The Gauss nodes are pairs 1, 3, 5."""
    isfinite = math.isfinite
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = g(c)
    if not isfinite(fc):
        raise NonFiniteSample(f"integrand returned {fc!r} at {c!r}")
    dx = h * _XK0
    l0 = g(c - dx)
    r0 = g(c + dx)
    if not (isfinite(l0) and isfinite(r0)):
        raise _non_finite(l0, r0, c - dx, c + dx)
    dx = h * _XK1
    l1 = g(c - dx)
    r1 = g(c + dx)
    if not (isfinite(l1) and isfinite(r1)):
        raise _non_finite(l1, r1, c - dx, c + dx)
    dx = h * _XK2
    l2 = g(c - dx)
    r2 = g(c + dx)
    if not (isfinite(l2) and isfinite(r2)):
        raise _non_finite(l2, r2, c - dx, c + dx)
    dx = h * _XK3
    l3 = g(c - dx)
    r3 = g(c + dx)
    if not (isfinite(l3) and isfinite(r3)):
        raise _non_finite(l3, r3, c - dx, c + dx)
    dx = h * _XK4
    l4 = g(c - dx)
    r4 = g(c + dx)
    if not (isfinite(l4) and isfinite(r4)):
        raise _non_finite(l4, r4, c - dx, c + dx)
    dx = h * _XK5
    l5 = g(c - dx)
    r5 = g(c + dx)
    if not (isfinite(l5) and isfinite(r5)):
        raise _non_finite(l5, r5, c - dx, c + dx)
    dx = h * _XK6
    l6 = g(c - dx)
    r6 = g(c + dx)
    if not (isfinite(l6) and isfinite(r6)):
        raise _non_finite(l6, r6, c - dx, c + dx)
    resk = (_WK7 * fc + _WK0 * (l0 + r0) + _WK1 * (l1 + r1) + _WK2 * (l2 + r2)
            + _WK3 * (l3 + r3) + _WK4 * (l4 + r4) + _WK5 * (l5 + r5) + _WK6 * (l6 + r6))
    resg = _WG3 * fc + _WG0 * (l1 + r1) + _WG1 * (l3 + r3) + _WG2 * (l5 + r5)
    resabs = (_WK7 * abs(fc) + _WK0 * (abs(l0) + abs(r0)) + _WK1 * (abs(l1) + abs(r1))
              + _WK2 * (abs(l2) + abs(r2)) + _WK3 * (abs(l3) + abs(r3))
              + _WK4 * (abs(l4) + abs(r4)) + _WK5 * (abs(l5) + abs(r5))
              + _WK6 * (abs(l6) + abs(r6)))
    reskh = 0.5 * resk
    resasc = (_WK7 * abs(fc - reskh)
              + _WK0 * (abs(l0 - reskh) + abs(r0 - reskh))
              + _WK1 * (abs(l1 - reskh) + abs(r1 - reskh))
              + _WK2 * (abs(l2 - reskh) + abs(r2 - reskh))
              + _WK3 * (abs(l3 - reskh) + abs(r3 - reskh))
              + _WK4 * (abs(l4 - reskh) + abs(r4 - reskh))
              + _WK5 * (abs(l5 - reskh) + abs(r5 - reskh))
              + _WK6 * (abs(l6 - reskh) + abs(r6 - reskh)))
    value = resk * h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, _ROUNDING_FLOOR * resabs)
    return value, err


def integrate(f, lo, hi, spec=None):
    """Integrate ``f`` over ``[lo, hi]`` under the given spec.

    Raises ToleranceNotMet when more than ``MAX_SUBDIVISIONS`` bisections
    would be needed or when the tolerance lies below the rounding floor
    (rel_tol < 50*eps and abs_tol < 50*eps*|value|), which no error
    estimate can pass, so the loop could only bisect to the budget; and
    NonFiniteSample when ``f`` produces nan/inf at a sample point.
    """
    if spec is None:
        spec = QuadratureSpec()
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise DomainError(f"invalid integration interval [{lo}, {hi}]")

    segments = build_segments(lo, hi, spec.split_points, spec.left_exponent, spec.right_exponent)
    # panels: list of (err, seq, g, a, b, value); worst panel by err, ties by seq
    panels = []
    seq = 0
    for seg in segments:
        g = _segment_integrand(f, seg)
        value, err = _gk15(g, seg.u_lo, seg.u_hi)
        panels.append([err, seq, g, seg.u_lo, seg.u_hi, value])
        seq += 1

    n_bisect = 0
    while True:
        total = math.fsum(p[5] for p in panels)
        total_err = math.fsum(p[0] for p in panels)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return QuadResult(total, total_err, n_bisect)
        if spec.rel_tol < _ROUNDING_FLOOR and spec.abs_tol < _ROUNDING_FLOOR * abs(total):
            raise ToleranceNotMet(
                f"tolerance (abs {spec.abs_tol:.1e}, rel {spec.rel_tol:.1e}) lies below "
                f"the rounding floor 50*eps*|value| (error estimate {total_err:.3e}, "
                f"value {total:.6e})"
            )
        if n_bisect >= MAX_SUBDIVISIONS:
            raise ToleranceNotMet(
                f"needed more than {MAX_SUBDIVISIONS} subdivisions "
                f"(error estimate {total_err:.3e}, value {total:.6e})"
            )
        worst = max(panels, key=lambda p: (p[0], -p[1]))
        panels.remove(worst)
        _, _, g, a, b, _ = worst
        mid = 0.5 * (a + b)
        v1, e1 = _gk15(g, a, mid)
        v2, e2 = _gk15(g, mid, b)
        panels.append([e1, seq, g, a, mid, v1])
        seq += 1
        panels.append([e2, seq, g, mid, b, v2])
        seq += 1
        n_bisect += 1
