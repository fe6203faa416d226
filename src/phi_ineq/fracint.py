"""Left and right Riemann-Liouville fractional integrals.

``rl_left(f, a, alpha, x)``  = (1/Gamma(alpha)) * integral_a^x (x-t)**(alpha-1) f(t) dt
``rl_right(f, b, alpha, x)`` = (1/Gamma(alpha)) * integral_x^b (t-x)**(alpha-1) f(t) dt

The kernel behaves like (distance)**(alpha-1) at the evaluation point,
and that exponent is declared to the quadrature engine for every order:
below 1 it is an integrable singularity, which the engine removes by
substitution; at a non-integer order above 1 it is a non-smooth end,
which the engine grades; at an integer order the end is smooth and left
alone, and at alpha = 1 both operators reduce to the plain integral.
Only a positive, finite order is accepted: the order-zero convention
J^0 f = f is not supported, and no bound formula needs it.

The interval endpoints may be any finite reals with a < b; nonnegativity
of ``a`` is not required by any formula in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_ranges
from .quadrature import QUAD_TOL, integrate
from .specfun import gamma


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("interval endpoints must be finite")
        if not self.a < self.b:
            raise DomainError(f"interval requires a < b, got [{self.a}, {self.b}]")
        check_ranges(("b - a", self.b - self.a))


def _kernel_weighted(integrand, length, alpha, quad_tol):
    """integral over [0, length] of ``integrand(tau)``, which is
    tau**(alpha-1) * f at distance tau from the evaluation point.

    Both operators are computed in the shifted variable tau = distance
    from the evaluation point, putting the kernel's non-smooth end at
    tau = 0, where it is declared as ``tau**(alpha-1)``: the engine
    substitutes tau = u**kappa there unless alpha is an integer.  With
    the anchor at zero the substitution is exact in floating point (no
    cancellation recovering the distance), which keeps strongly singular
    orders (alpha well below 1) accurate.
    """
    res = integrate(integrand, 0.0, length, quad_tol=quad_tol, left_exponent=alpha - 1.0)
    return res.value / gamma(alpha)


def rl_left(f, a, alpha, x, *, quad_tol=QUAD_TOL):
    """Left fractional integral of order alpha evaluated at x > a."""
    a = float(a)
    x = float(x)
    alpha = float(alpha)
    check_ranges(("fractional order", alpha), ("quad_tol", quad_tol))
    if not x > a:
        raise DomainError(f"rl_left requires x > a, got x={x}, a={a}")
    e = alpha - 1.0
    return _kernel_weighted(lambda tau: tau ** e * f(x - tau), x - a, alpha, quad_tol)


def rl_right(f, b, alpha, x, *, quad_tol=QUAD_TOL):
    """Right fractional integral of order alpha evaluated at x < b."""
    b = float(b)
    x = float(x)
    alpha = float(alpha)
    check_ranges(("fractional order", alpha), ("quad_tol", quad_tol))
    if not x < b:
        raise DomainError(f"rl_right requires x < b, got x={x}, b={b}")
    e = alpha - 1.0
    return _kernel_weighted(lambda tau: tau ** e * f(x + tau), b - x, alpha, quad_tol)
