"""Adaptive one-dimensional quadrature with kink splitting and graded
substitutions at non-smooth ends.

The engine is a classic globally-adaptive Gauss-Kronrod scheme: each panel
is integrated with the 15-point Kronrod rule, the embedded 7-point Gauss
rule supplies the error estimate, and the panel with the largest error is
bisected until the requested tolerance is met.  The live panels sit in a
heap keyed on (-error, age), so each bisection pops the panel with the
largest error, ties going to the oldest, in O(log n); the value and error
totals are ``math.fsum`` over the live panels, correctly rounded and so
independent of the order the panels are kept in.

Two features matter for the integrands in this package:

* ``split_points`` let the caller place panel boundaries exactly at known
  derivative kinks (the integrand ``|t(lam - t**alpha)|`` has one at
  ``lam**(1/alpha)``), so the adaptive loop never has to discover
  non-smoothness on its own.

* declared endpoint behaviour ``(t - lo)**left_exponent`` (and
  symmetrically on the right).  The exponent is that of the integrand's
  leading non-integer power at the end; an integer exponent (0 included)
  is smooth there and the end is left alone.  Every other end is
  substituted, ``t = lo + u**kappa``, with the Jacobian
  ``kappa * u**(kappa - 1)`` multiplied into the integrand, so the
  tolerances keep their meaning:

  - an exponent in (-1, 0) takes ``kappa = 1/(1+exponent)``, which makes
    the transformed integrand bounded;
  - a positive non-integer exponent e takes the graded ``kappa = 3``.
    The end then behaves like ``u**(3e + 2)``: still not smooth, but
    about 3e + 2 of its derivatives stay bounded instead of about e, so
    GK15 stops bisecting towards it.  3 is the measured best: on the points-scatter benchmark
    workload (seed 7) kappa = 2, 3 and 4 take 34,736, 33,236 and 33,706
    panels.  Above e ~ 4 a plain end is already cheap and grading costs a
    few panels more (``t**5.25`` takes 3 panels plain, 7 graded); not
    grading there would save under 2% of that workload's evaluations,
    too little for a second rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

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
# The default quad_tol of every function and of --quad-tol (see for_quad_tol).
QUAD_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and integrand structure hints.

    ``split_points`` are panel boundaries strictly inside the interval.
    ``left_exponent`` and ``right_exponent`` declare the integrand's
    leading non-integer power ``(t - lo)**e`` and ``(hi - t)**e`` at each
    end.  An integer e (the default 0.0) declares a smooth end; e in
    (-1, 0) is removed by ``t = lo + u**(1/(1+e))``; a positive
    non-integer e is graded by ``t = lo + u**3`` (see the module
    docstring).  Exponents at or below -1 are not integrable and are
    rejected.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    split_points: tuple[float, ...] = ()
    left_exponent: float = 0.0
    right_exponent: float = 0.0

    def __post_init__(self):
        if not (self.abs_tol > 0.0) or not (self.rel_tol > 0.0):
            raise DomainError("abs_tol and rel_tol must be positive")
        for name in ("left_exponent", "right_exponent"):
            e = float(getattr(self, name))
            if not (math.isfinite(e) and e > -1.0):
                raise DomainError("endpoint exponents must be finite and exceed -1 "
                                  "(integrability)")
            object.__setattr__(self, name, e)
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


def _kappa(exponent):
    """The substitution power for an end declared ``(t - end)**exponent``:
    None for an integer (smooth) exponent, 1/(1+exponent) below 0 and the
    graded 3 above."""
    if exponent.is_integer():
        return None
    return 1.0 / (1.0 + exponent) if exponent < 0.0 else 3.0


def _panels(f, lo, hi, spec):
    """The initial panels of [lo, hi] as (g, u_lo, u_hi) triples: [lo, hi]
    is split at the split points, and the panel at a transformed end
    integrates g(u) = f(lo + u**kappa) * kappa * u**(kappa - 1) (or its
    mirror at hi) over u in [0, width**(1/kappa)]."""
    splits = sorted(set(spec.split_points))
    for p in splits:
        if not (lo < p < hi):
            raise DomainError(f"split point {p} not strictly inside ({lo}, {hi})")
    k_lo = _kappa(spec.left_exponent)
    k_hi = _kappa(spec.right_exponent)
    bounds = [lo] + splits + [hi]
    if k_lo and k_hi and len(bounds) == 2:
        bounds.insert(1, 0.5 * (lo + hi))
    panels = [(f, p0, p1) for p0, p1 in zip(bounds, bounds[1:])]
    if k_lo:
        e_lo = k_lo - 1.0

        def left(u):
            return f(lo + u ** k_lo) * k_lo * u ** e_lo
        panels[0] = (left, 0.0, (bounds[1] - lo) ** (1.0 / k_lo))
    if k_hi:
        e_hi = k_hi - 1.0

        def right(u):
            return f(hi - u ** k_hi) * k_hi * u ** e_hi
        panels[-1] = (right, 0.0, (hi - bounds[-2]) ** (1.0 / k_hi))
    return panels


# The tables unpacked, for the unrolled panel rule below.
_XK0, _XK1, _XK2, _XK3, _XK4, _XK5, _XK6 = XGK[:7]
_WK0, _WK1, _WK2, _WK3, _WK4, _WK5, _WK6, _WK7 = WGK
_WG0, _WG1, _WG2, _WG3 = WG


def _not_finite(a, b, samples):
    """The error of a panel whose scaled |f| sum is not finite: the first
    non-finite sample in evaluation order (centre, then l0, r0, l1, ...),
    or an overflow when every sample is finite."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = samples[0]
    if not math.isfinite(fc):
        return NonFiniteSample(f"integrand returned {fc!r} at {c!r}")
    for k in range(7):
        dx = h * XGK[k]
        for t, v in ((c - dx, samples[2 * k + 1]), (c + dx, samples[2 * k + 2])):
            if not math.isfinite(v):
                return NonFiniteSample(f"integrand returned a non-finite value at {t!r}")
    return OverflowError(f"integral over the panel [{a!r}, {b!r}] exceeds the "
                         "double-precision range")


def _gk15(g, a, b):
    """Kronrod / Gauss pair on one panel with a QUADPACK-style error
    estimate.  Returns (value, err, resabs), resabs estimating int|g|.

    The loop over the seven node pairs is unrolled, so the samples stay in
    locals; every sum still adds the centre term first and then the pairs
    in table order, outermost first.  The Gauss nodes are pairs 1, 3, 5.
    The one finiteness test is on the scaled |f| sum, which a non-finite
    sample or an overflowing panel makes infinite or nan."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = g(c)
    dx = h * _XK0
    l0 = g(c - dx)
    r0 = g(c + dx)
    dx = h * _XK1
    l1 = g(c - dx)
    r1 = g(c + dx)
    dx = h * _XK2
    l2 = g(c - dx)
    r2 = g(c + dx)
    dx = h * _XK3
    l3 = g(c - dx)
    r3 = g(c + dx)
    dx = h * _XK4
    l4 = g(c - dx)
    r4 = g(c + dx)
    dx = h * _XK5
    l5 = g(c - dx)
    r5 = g(c + dx)
    dx = h * _XK6
    l6 = g(c - dx)
    r6 = g(c + dx)
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
    if not math.isfinite(resabs):
        raise _not_finite(a, b, (fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6))
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, _ROUNDING_FLOOR * resabs)
    return value, err, resabs


def integrate(f, lo, hi, spec=None):
    """Integrate ``f`` over ``[lo, hi]`` under the given spec.

    Raises ToleranceNotMet when more than ``MAX_SUBDIVISIONS`` bisections
    would be needed or when the tolerance lies below the rounding floor
    (max(abs_tol, rel_tol*|value|) < 50*eps*int|f|), which no error
    estimate can pass, so the loop could only bisect to the budget;
    NonFiniteSample when ``f`` produces nan/inf at a sample point; and
    OverflowError when a panel's integral exceeds the double range.
    """
    if spec is None:
        spec = QuadratureSpec()
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise DomainError(f"invalid integration interval [{lo}, {hi}]")

    # Live panel ``slot`` integrates segs[slot] = (g, a, b) to values[slot]
    # with error errs[slot] and int|g| estimate masses[slot]; the heap holds
    # (-err, seq, slot) for each, so it pops the largest error, ties going
    # to the oldest panel.  mass is the running sum of masses.
    segs = []
    values = []
    errs = []
    masses = []
    heap = []
    mass = 0.0
    for g, u_lo, u_hi in _panels(f, lo, hi, spec):
        value, err, resabs = _gk15(g, u_lo, u_hi)
        heap.append((-err, len(segs), len(segs)))
        segs.append((g, u_lo, u_hi))
        values.append(value)
        errs.append(err)
        masses.append(resabs)
        mass += resabs
    heapify(heap)
    seq = len(segs)

    abs_tol = spec.abs_tol
    rel_tol = spec.rel_tol
    n_bisect = 0
    while True:
        total = math.fsum(values)
        total_err = math.fsum(errs)
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
            return QuadResult(total, total_err, n_bisect)
        if tol < _ROUNDING_FLOOR * mass:
            raise ToleranceNotMet(
                f"tolerance (abs {abs_tol:.1e}, rel {rel_tol:.1e}) lies below "
                f"the rounding floor 50*eps*int|f| (error estimate {total_err:.3e}, "
                f"value {total:.6e})"
            )
        if n_bisect >= MAX_SUBDIVISIONS:
            raise ToleranceNotMet(
                f"needed more than {MAX_SUBDIVISIONS} subdivisions "
                f"(error estimate {total_err:.3e}, value {total:.6e})"
            )
        slot = heappop(heap)[2]
        g, a, b = segs[slot]
        mid = 0.5 * (a + b)
        v1, e1, r1 = _gk15(g, a, mid)
        v2, e2, r2 = _gk15(g, mid, b)
        mass += r1 + r2 - masses[slot]
        # the left half takes over the bisected panel's slot
        segs[slot] = (g, a, mid)
        values[slot] = v1
        errs[slot] = e1
        masses[slot] = r1
        heappush(heap, (-e1, seq, slot))
        heappush(heap, (-e2, seq + 1, len(segs)))
        segs.append((g, mid, b))
        values.append(v2)
        errs.append(e2)
        masses.append(r2)
        seq += 2
        n_bisect += 1
