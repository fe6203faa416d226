"""Scalar special functions: Gamma, Beta, incomplete Beta and the Gauss
hypergeometric function 2F1 at z = 1.

All routines are deterministic pure functions.  Gamma and log Gamma come
from the standard library's :func:`math.gamma` and :func:`math.lgamma`,
with this package's errors for x <= 0 and on overflow.  The incomplete
Beta with a *nonpositive* second parameter -- which the closed-form
coefficient formulas request -- is defined only for an upper limit
strictly below 1 and is computed by adaptive quadrature at the default
``quad_tol`` of :func:`~phi_ineq.quadrature.integrate`; the complete
case diverges and raises :class:`DomainError`, as does 2F1 at z = 1 with
c - a - b <= 0.  Every function returns a float.
"""

from __future__ import annotations

import math

from .errors import DomainError, ToleranceNotMet
from .quadrature import integrate


def gamma(x):
    """Gamma(x) for real x > 0, from :func:`math.gamma`.  Overflow raises
    OverflowError instead of returning inf."""
    x = float(x)
    if not x > 0.0 or not math.isfinite(x):
        raise DomainError(f"gamma requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"gamma({x}) exceeds the double-precision range") from None


def log_gamma(x):
    """log Gamma(x) for x > 0, from :func:`math.lgamma`."""
    x = float(x)
    if not x > 0.0 or not math.isfinite(x):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta_fn(x, y):
    """Euler Beta B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y), x, y > 0."""
    x = float(x)
    y = float(y)
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta_fn requires positive arguments, got ({x}, {y})")
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))


def _beta_cf(a, b, x):
    """Continued fraction for the regularized incomplete Beta (modified
    Lentz iteration)."""
    max_iter = 400
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ToleranceNotMet(f"incomplete Beta continued fraction stalled at ({a}, {b}, {x})")


def _regularized_beta(a, b, x):
    """The regularized incomplete Beta I_x(a, b) for 0 < x < 1."""
    log_bt = (
        log_gamma(a + b) - log_gamma(a) - log_gamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    bt = math.exp(log_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _beta_cf(a, b, x) / a
    return 1.0 - bt * _beta_cf(b, a, 1.0 - x) / b


def incomplete_beta(upper, x, y):
    """B(upper; x, y) = integral of t**(x-1) (1-t)**(y-1) over [0, upper].

    upper must lie in (0, 1] and x must be positive.  y may be any real;
    for y <= 0 the integrand is non-integrable at t = 1, so upper = 1 is
    rejected and upper < 1 is integrated at the default ``quad_tol``.
    """
    upper, x, y = float(upper), float(x), float(y)
    if not 0.0 < upper <= 1.0:
        raise DomainError(f"upper limit must lie in (0, 1], got {upper}")
    if not x > 0.0:
        raise DomainError(f"incomplete Beta requires x > 0, got {x}")
    if y <= 0.0:
        if upper == 1.0:
            raise DomainError(f"complete Beta with nonpositive second parameter y={y} diverges")
        return integrate(lambda t: t ** (x - 1.0) * (1.0 - t) ** (y - 1.0), 0.0, upper,
                         left_exponent=x - 1.0 if x < 1.0 else 0.0).value
    if upper == 1.0:
        return beta_fn(x, y)
    return beta_fn(x, y) * _regularized_beta(x, y, upper)


def gauss_2f1(a, b, c):
    """2F1(a, b; c; 1), summed in closed form by Gauss's theorem:
    Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)), which requires
    c - a - b > 0.  The printed C1 needs no other z."""
    a, b, c = float(a), float(b), float(c)
    if not c > 0.0:
        raise DomainError(f"2F1 requires c > 0, got c={c}")
    cab = c - a - b
    if cab <= 0.0:
        raise DomainError(f"2F1 diverges at z=1 when c-a-b <= 0 (got c-a-b={cab})")
    if c - a <= 0.0 or c - b <= 0.0:
        raise DomainError(
            "closed-form summation at z=1 needs c-a > 0 and c-b > 0"
        )
    return math.exp(log_gamma(c) + log_gamma(cab) - log_gamma(c - a) - log_gamma(c - b))


# perfbench's tracer wraps these two names; ROADMAP item 1 deletes them
incomplete_beta_detailed = incomplete_beta
gauss_2f1_detailed = gauss_2f1
