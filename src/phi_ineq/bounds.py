"""The quadrature-difference functional S, its integral identity, the
closed form of A1, the printed closed-form coefficients and the two
theorem bounds.

For a twice-differentiable f on [a, b], x in [a, b], lam in [0, 1] and
alpha > 0 the functional is

    S(x, lam, alpha; a, b) =
        (1-lam) * ((b-x)**(alpha+1) - (x-a)**(alpha+1))/(b-a) * f'(x)
      + (1+alpha-lam) * ((x-a)**alpha + (b-x)**alpha)/(b-a) * f(x)
      + lam * ((x-a)**alpha * f(a) + (b-x)**alpha * f(b))/(b-a)
      - Gamma(alpha+2)/(b-a) * (J1 + J2)

with J1 = (1/Gamma(alpha)) * int_a^x (t-a)**(alpha-1) f(t) dt and
J2 = (1/Gamma(alpha)) * int_x^b (b-t)**(alpha-1) f(t) dt.  Specializing
(x, lam, alpha) recovers midpoint / trapezoid / Simpson / Ostrowski-type
quantities.  S equals the two-integral second-derivative form computed by
:func:`identity_rhs`, which is what :func:`phi_ineq.verify.identity_check`
certifies numerically.

The theorem bounds are always assembled from quadrature oracles of the
coefficient integrals A2, A3 (T1) and B, M (T2), which come from
:func:`phi_ineq.coefquad.coef_integral`; A1, the T1 prefactor's base, has
the closed form :func:`coef_a1`.  The printed closed forms (A2C, A3C, A4,
A5, B_closed, C1, C2) are evaluated by :func:`printed_coefficient`
exactly as written, for the discrepancy ledger only -- several of them
fail sanity checks at lam in {0, 1} -- and never feed a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefquad import coef_integral, kink, kink_splits
from .errors import DomainError
from .fracint import Interval, rl_left, rl_right
from .quadrature import QUAD_TOL, QuadratureSpec, integrate
from .specfun import gamma, gauss_2f1, incomplete_beta

PRINTED_NAMES = ("A2C", "A3C", "A4", "A5", "B_closed", "C1", "C2")


@dataclass(frozen=True)
class EvalParams:
    """One parameter point (a, b, x, lam, alpha, q)."""

    interval: Interval
    x: float
    lam: float
    alpha: float
    q: float = 1.0

    def __post_init__(self):
        for name in ("x", "lam", "alpha", "q"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.interval.a <= self.x <= self.interval.b:
            raise DomainError(f"x={self.x} outside [{self.interval.a}, {self.interval.b}]")
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lambda must lie in [0, 1], got {self.lam}")
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.q >= 1.0:
            raise DomainError(f"q must be >= 1, got {self.q}")

    @property
    def a(self):
        return self.interval.a

    @property
    def b(self):
        return self.interval.b


def fractional_sum(fn, a, b, x, alpha, *, quad_tol=QUAD_TOL):
    """J1 + J2: the two composite fractional integrals entering S.  They
    depend on (x, alpha) but not on lambda, so a sweep computes the sum
    once per (fn, x, alpha) and hands it to :func:`s_functional`."""
    j1 = rl_right(fn.f, b=x, alpha=alpha, x=a, quad_tol=quad_tol) if x > a else 0.0
    j2 = rl_left(fn.f, a=x, alpha=alpha, x=b, quad_tol=quad_tol) if x < b else 0.0
    return j1 + j2


def s_functional(fn, params, *, quad_tol=QUAD_TOL, j_sum=None):
    """The four-term functional S(x, lam, alpha; a, b) for fn.  ``j_sum``
    is J1 + J2 from :func:`fractional_sum` at the same (x, alpha) and
    quad_tol; it is computed here when not given."""
    a, b = params.a, params.b
    x, lam, alpha = params.x, params.lam, params.alpha
    w = b - a
    dxa = x - a
    dbx = b - x
    term1 = (1.0 - lam) * (dbx ** (alpha + 1.0) - dxa ** (alpha + 1.0)) / w * fn.f1(x)
    term2 = (1.0 + alpha - lam) * (dxa ** alpha + dbx ** alpha) / w * fn.f(x)
    term3 = lam * (dxa ** alpha * fn.f(a) + dbx ** alpha * fn.f(b)) / w if lam != 0.0 else 0.0
    if j_sum is None:
        j_sum = fractional_sum(fn, a, b, x, alpha, quad_tol=quad_tol)
    term4 = gamma(alpha + 2.0) / w * j_sum
    return term1 + term2 + term3 - term4


def identity_rhs(fn, params, *, quad_tol=QUAD_TOL):
    """The second-derivative representation of S: the weighted pair of
    integrals of t*(lam - t**alpha) * f''(t*x + (1-t)*end) over [0, 1].
    Near t = 0 the integrand is lam*t*f'' - t**(alpha+1)*f'', so that end
    is declared with exponent alpha + 1."""
    a, b = params.a, params.b
    x, lam, alpha = params.x, params.lam, params.alpha
    w = b - a
    spec = QuadratureSpec.for_quad_tol(quad_tol, split_points=kink_splits(alpha, lam),
                                       left_exponent=alpha + 1.0)
    f2 = fn.f2
    total = 0.0
    for end, weight in ((a, (x - a) ** (alpha + 2.0) / w), (b, (b - x) ** (alpha + 2.0) / w)):
        if weight == 0.0:
            continue
        res = integrate(
            lambda t: t * (lam - t ** alpha) * f2(t * x + (1.0 - t) * end),
            0.0, 1.0, spec,
        )
        total += weight * res.value
    return total


def coef_a1(alpha, lam):
    """Closed form of A1 = int_0^1 |t*(lam - t**alpha)| dt:
    (alpha*lam**(1 + 2/alpha) + 1)/(alpha + 2) - lam/2."""
    alpha = float(alpha)
    lam = float(lam)
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    lam_pow = lam ** (1.0 + 2.0 / alpha) if lam > 0.0 else 0.0
    return (alpha * lam_pow + 1.0) / (alpha + 2.0) - 0.5 * lam


def theorem1_bound(fn, params, kernel, *, quad_tol=QUAD_TOL):
    """Power-mean bound (T1):

    A1**(1-1/q) * [ (x-a)**(a+2)/(b-a) * (A2*|f''(x)|^q + A3*|f''(a)|^q)**(1/q)
                  + (b-x)**(a+2)/(b-a) * (A2*|f''(x)|^q + A3*|f''(b)|^q)**(1/q) ]

    with A2, A3 from their quadrature oracles.  The prefactor is exactly 1
    at q = 1.
    """
    a, b = params.a, params.b
    x, lam, alpha, q = params.x, params.lam, params.alpha, params.q
    a2 = coef_integral("A2", alpha, lam, kernel, quad_tol=quad_tol)
    a3 = coef_integral("A3", alpha, lam, kernel, quad_tol=quad_tol)
    a1 = None if q == 1.0 else coef_a1(alpha, lam)
    return power_mean_rhs(a, b, x, alpha, q, (a1, a2, a3), f2_powers(fn, a, b, x, q))


def f2_powers(fn, a, b, x, q):
    """(|f''(x)|^q, |f''(a)|^q, |f''(b)|^q), the values both bounds weigh."""
    f2 = fn.f2
    return abs(f2(x)) ** q, abs(f2(a)) ** q, abs(f2(b)) ** q


def power_mean_rhs(a, b, x, alpha, q, coefs, powers):
    """The T1 bound from its coefficients ``(A1, A2, A3)`` (A1 is read
    only when q != 1) and the :func:`f2_powers` at x."""
    a1, a2, a3 = coefs
    fx, fa, fb = powers
    w = b - a
    term_a = (x - a) ** (alpha + 2.0) / w * (a2 * fx + a3 * fa) ** (1.0 / q)
    term_b = (b - x) ** (alpha + 2.0) / w * (a2 * fx + a3 * fb) ** (1.0 / q)
    prefactor = 1.0 if q == 1.0 else a1 ** (1.0 - 1.0 / q)
    return prefactor * (term_a + term_b)


def theorem2_bound(fn, params, kernel, *, quad_tol=QUAD_TOL):
    """Holder bound (T2), for q > 1 and its conjugate p = q/(q-1):

    B**(1/p) * [ (x-a)**(a+2)/(b-a) * ((|f''(x)|^q + |f''(a)|^q) * M)**(1/q)
               + (b-x)**(a+2)/(b-a) * ((|f''(x)|^q + |f''(b)|^q) * M)**(1/q) ]

    with B and M = int t*phi(t) dt from quadrature.
    """
    a, b = params.a, params.b
    x, lam, alpha, q = params.x, params.lam, params.alpha, params.q
    if q <= 1.0:
        raise DomainError("Holder bound requires q > 1")
    p = q / (q - 1.0)
    b_val = coef_integral("B", alpha, lam, p=p, quad_tol=quad_tol)
    m = coef_integral("M", 1.0, 0.0, kernel, quad_tol=quad_tol)
    return holder_rhs(a, b, x, alpha, q, p, (b_val, m), f2_powers(fn, a, b, x, q))


def holder_rhs(a, b, x, alpha, q, p, coefs, powers):
    """The T2 bound from its coefficients ``(B, M)`` and the
    :func:`f2_powers` at x."""
    b_val, m = coefs
    fx, fa, fb = powers
    w = b - a
    term_a = (x - a) ** (alpha + 2.0) / w * ((fx + fa) * m) ** (1.0 / q)
    term_b = (b - x) ** (alpha + 2.0) / w * ((fx + fb) * m) ** (1.0 / q)
    return b_val ** (1.0 / p) * (term_a + term_b)


def _incomplete_beta_term(upper, x, y):
    """Incomplete-Beta subterm of a printed formula; an upper limit of 0
    contributes an exact empty integral."""
    return 0.0 if upper == 0.0 else incomplete_beta(upper, x, y)


def printed_coefficient(name, alpha, lam, *, s=None, p=None):
    """Evaluate a printed closed-form coefficient exactly as written; A4
    and A5 need the power kernel's exponent s, B_closed, C1 and C2 the
    Holder exponent p.

    Used only for discrepancy reporting against the quadrature oracles,
    never inside a bound.  Raises DomainError when the formula requests an
    undefined quantity (the complete Beta with a negative second
    parameter, as B_closed and C2 do); that error is itself a ledger
    finding.
    """
    if name not in PRINTED_NAMES:
        raise DomainError(f"unknown printed coefficient {name!r}")

    if name == "A2C":
        lam_pow = lam ** (1.0 + 3.0 / alpha) if lam > 0.0 else 0.0
        return (3.0 - (alpha + 3.0) * lam + 2.0 * alpha * lam_pow) / (3.0 * (alpha + 3.0))

    if name == "A3C":
        lp2 = lam ** (1.0 + 2.0 / alpha) if lam > 0.0 else 0.0
        lp3 = lam ** (1.0 + 3.0 / alpha) if lam > 0.0 else 0.0
        return (
            alpha * lp2 / (alpha + 2.0)
            - 2.0 * lp3 / (3.0 * (alpha + 3.0))
            + alpha * lam / 6.0
            - alpha / ((alpha + 2.0) * (alpha + 3.0))
        )

    if name in ("A4", "A5"):
        if s is None:
            raise DomainError(f"printed {name} requires the kernel exponent s")
        if name == "A4":
            lam_pow = lam ** ((s + 2.0) / alpha + 1.0) if lam > 0.0 else 0.0
            return (
                2.0 * lam_pow / (s + 2.0)
                - 2.0 * lam_pow / (alpha + s + 2.0)
                + 1.0 / (alpha + s + 2.0)
            )
        m = kink(alpha, lam)
        return (lam * _incomplete_beta_term(m, 2.0, s + 1.0)
                - _incomplete_beta_term(m, alpha + 2.0, s + 1.0)
                + _incomplete_beta_term(1.0 - m, alpha + 2.0, s + 1.0)
                - lam * _incomplete_beta_term(1.0 - m, 2.0, s + 1.0))

    # B_closed, C1, C2 need the Holder exponent
    if p is None:
        raise DomainError(f"printed {name} requires the Holder exponent p")
    prefactor = (lam ** ((1.0 + p + alpha * p) / alpha) if lam > 0.0 else 0.0) / alpha

    def c1():
        hyp = gauss_2f1(1.0, 1.0 + p, 2.0 + p + (1.0 + p) / alpha)
        return prefactor * gamma(1.0 + p) * gamma((1.0 + p + alpha) / alpha) * hyp

    def c2():
        y_neg = -(1.0 + p + alpha * p) / alpha
        complete = incomplete_beta(1.0, 1.0 + p, y_neg)  # raises: y_neg < 0
        return prefactor * (complete - _incomplete_beta_term(lam, 1.0 + p, y_neg))

    if name == "C1":
        return c1()
    if name == "C2":
        return c2()
    return c1() + c2()
