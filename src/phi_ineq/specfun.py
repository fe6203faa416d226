"""Scalar special functions: Gamma, Beta, incomplete Beta and the Gauss
hypergeometric function 2F1 at z = 1.

All routines are deterministic pure functions.  Gamma uses the Lanczos
approximation (g = 7, 9 coefficients), which keeps relative error near
machine precision over the range used here.  The incomplete Beta with a
*nonpositive* second parameter -- which the closed-form coefficient
formulas request -- is defined only for an upper limit strictly below 1
and is computed by adaptive quadrature; the complete case diverges and
raises :class:`NonIntegrableError`.

Every function has a ``*_detailed`` twin returning a
:class:`SpecFunResult` carrying an error estimate and the method tag
(``continued-expansion`` / ``quadrature-fallback`` /
``closed-identity``); the plain version returns only the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergenceError, DomainError, NonIntegrableError, ToleranceNotMet
from .quadrature import QuadratureSpec, integrate

METHOD_CONTINUED = "continued-expansion"
METHOD_QUADRATURE = "quadrature-fallback"
METHOD_CLOSED = "closed-identity"

_METHODS = (METHOD_CLOSED, METHOD_CONTINUED, METHOD_QUADRATURE)


@dataclass(frozen=True)
class SpecFunResult:
    value: float
    abs_err_estimate: float
    method: str

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DomainError(f"unknown method tag {self.method!r}")
        if not self.abs_err_estimate >= 0.0:
            raise DomainError("abs_err_estimate must be nonnegative")


# Lanczos g = 7 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_2PI = 0.9189385332046727417803297364056176
_EXP_OVERFLOW = 709.78


def _lanczos_pieces(x):
    """For x >= 0.5 return (log_prefactor, series_sum) with
    Gamma(x) = exp(log_prefactor) * series_sum."""
    z = x - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, 9):
        s += _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return (z + 0.5) * math.log(t) - t + _LOG_SQRT_2PI, s


def gamma(x):
    """Gamma(x) for real x > 0.  Overflow raises OverflowError instead of
    returning inf."""
    x = float(x)
    if not x > 0.0 or not math.isfinite(x):
        raise DomainError(f"gamma requires x > 0, got {x}")
    if x < 0.5:
        return gamma(x + 1.0) / x
    log_pre, s = _lanczos_pieces(x)
    if log_pre + math.log(s) > _EXP_OVERFLOW:
        raise OverflowError(f"gamma({x}) exceeds the double-precision range")
    return math.exp(log_pre) * s


def log_gamma(x):
    """log Gamma(x) for x > 0 (same Lanczos core as :func:`gamma`)."""
    x = float(x)
    if not x > 0.0 or not math.isfinite(x):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    log_pre, s = _lanczos_pieces(x)
    return log_pre + math.log(s)


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
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_bt = (
        log_gamma(a + b) - log_gamma(a) - log_gamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    bt = math.exp(log_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _beta_cf(a, b, x) / a
    return 1.0 - bt * _beta_cf(b, a, 1.0 - x) / b


def incomplete_beta_detailed(upper, x, y):
    """B(upper; x, y) = integral of t**(x-1) (1-t)**(y-1) over [0, upper].

    upper must lie in (0, 1] and x must be positive.  y may be any real;
    for y <= 0 the integrand is non-integrable at t = 1, so upper = 1 is
    rejected and upper < 1 falls back to adaptive quadrature.
    """
    upper = float(upper)
    x = float(x)
    y = float(y)
    if not 0.0 < upper <= 1.0:
        raise DomainError(f"upper limit must lie in (0, 1], got {upper}")
    if not x > 0.0:
        raise DomainError(f"incomplete Beta requires x > 0, got {x}")
    if y <= 0.0:
        if upper == 1.0:
            raise NonIntegrableError(
                f"complete Beta with nonpositive second parameter y={y} diverges"
            )
        spec = QuadratureSpec(
            abs_tol=1e-12,
            rel_tol=1e-11,
            left_exponent=x - 1.0 if x < 1.0 else 0.0,
        )
        res = integrate(lambda t: t ** (x - 1.0) * (1.0 - t) ** (y - 1.0), 0.0, upper, spec)
        return SpecFunResult(res.value, res.err_estimate, METHOD_QUADRATURE)
    if upper == 1.0:
        value = beta_fn(x, y)
        return SpecFunResult(value, 4.0 * 2.2e-16 * abs(value), METHOD_CLOSED)
    reg = _regularized_beta(x, y, upper)
    value = beta_fn(x, y) * reg
    return SpecFunResult(value, 1e-14 * max(abs(value), 1e-300), METHOD_CONTINUED)


def incomplete_beta(upper, x, y):
    return incomplete_beta_detailed(upper, x, y).value


def gauss_2f1_detailed(a, b, c, z):
    """2F1(a, b; c; z) at z = 1, summed in closed form by Gauss's theorem:
    Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)), which requires
    c - a - b > 0.  The printed C1 needs no other z."""
    a = float(a)
    b = float(b)
    c = float(c)
    z = float(z)
    if not c > 0.0:
        raise DomainError(f"2F1 requires c > 0, got c={c}")
    if z != 1.0:
        raise DomainError(f"2F1 supported only at z = 1, got z={z}")
    cab = c - a - b
    if cab <= 0.0:
        raise DivergenceError(
            f"2F1 diverges at z=1 when c-a-b <= 0 (got c-a-b={cab})"
        )
    if c - a <= 0.0 or c - b <= 0.0:
        raise DomainError(
            "closed-form summation at z=1 needs c-a > 0 and c-b > 0"
        )
    value = math.exp(log_gamma(c) + log_gamma(cab) - log_gamma(c - a) - log_gamma(c - b))
    return SpecFunResult(value, 4.0 * 2.2e-16 * abs(value), METHOD_CLOSED)


def gauss_2f1(a, b, c, z):
    return gauss_2f1_detailed(a, b, c, z).value
