"""Left and right Riemann-Liouville fractional integrals.

``rl_left(f, a, alpha, x)``  = (1/Gamma(alpha)) * integral_a^x (x-t)**(alpha-1) f(t) dt
``rl_right(f, b, alpha, x)`` = (1/Gamma(alpha)) * integral_x^b (t-x)**(alpha-1) f(t) dt

For alpha < 1 the kernel has an integrable algebraic singularity at the
evaluation point; it is declared to the quadrature engine, which removes
it by substitution.  At alpha = 1 both operators reduce to the plain
integral.  The order must be positive: the order-zero convention J^0 f = f
is not supported, and no bound formula needs it.

The interval endpoints may be any finite reals with a < b; nonnegativity
of ``a`` is not required by any formula in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .quadrature import QuadratureSpec, integrate
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

    @property
    def width(self):
        return self.b - self.a


def _kernel_weighted(integrand, length, alpha, quad_tol):
    """integral over [0, length] of ``integrand(tau)``, which is
    tau**(alpha-1) * f at distance tau from the evaluation point.

    Both operators are computed in the shifted variable tau = distance
    from the evaluation point, putting the kernel singularity at tau = 0.
    With the anchor at zero the power substitution tau = u**kappa is
    exact in floating point (no cancellation recovering the distance),
    which keeps strongly singular orders (alpha well below 1) accurate.
    """
    spec = QuadratureSpec(
        abs_tol=0.1 * quad_tol,
        rel_tol=10.0 * quad_tol,
        left_exponent=alpha - 1.0 if alpha < 1.0 else 0.0,
    )
    return integrate(integrand, 0.0, length, spec).value / gamma(alpha)


def rl_left(f, a, alpha, x, *, quad_tol=1e-12):
    """Left fractional integral of order alpha evaluated at x > a."""
    a = float(a)
    x = float(x)
    alpha = float(alpha)
    if not alpha > 0.0:
        raise DomainError(f"fractional order must be positive, got {alpha}")
    if not x > a:
        raise DomainError(f"rl_left requires x > a, got x={x}, a={a}")
    e = alpha - 1.0
    return _kernel_weighted(lambda tau: tau ** e * f(x - tau), x - a, alpha, quad_tol)


def rl_right(f, b, alpha, x, *, quad_tol=1e-12):
    """Right fractional integral of order alpha evaluated at x < b."""
    b = float(b)
    x = float(x)
    alpha = float(alpha)
    if not alpha > 0.0:
        raise DomainError(f"fractional order must be positive, got {alpha}")
    if not x < b:
        raise DomainError(f"rl_right requires x < b, got x={x}, b={b}")
    e = alpha - 1.0
    return _kernel_weighted(lambda tau: tau ** e * f(x + tau), b - x, alpha, quad_tol)
