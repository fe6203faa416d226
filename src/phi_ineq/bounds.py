"""The quadrature-difference functional S, its integral identity, the
theorem bounds and their coefficients, and the printed closed-form
coefficients.

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

The theorem bounds read their coefficients from :func:`t1_coefficients`
(A1, A2, A3) and :func:`t2_coefficients` (B, M).  A1, the T1 prefactor's
base, A2 under the constant and power(s) kernels and A3 under the
constant kernel have the closed forms of :func:`_moment` and
:func:`_a3_constant`, and M = int_0^1 t*phi(t) dt is 1/2, 1/(s+1) or
pi/4.  A3 under power(s), A2 and A3 under MT and B need incomplete Betas
and come from the quadrature of :func:`phi_ineq.coefquad.coef_integral`,
the oracle of every family for the ledger, the selftest and the tests.
The printed closed forms (A2C, A3C, A4, A5, B_closed, C1, C2) are
evaluated by :func:`printed_coefficient` exactly as written, for the
discrepancy ledger only -- several of them fail sanity checks at lam in
{0, 1} -- and never feed a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coefquad import coef_integral, kink, kink_splits
from .convexity import KIND_CONSTANT, KIND_MT
from .errors import DomainError, check_ranges
from .fracint import Interval, rl_left, rl_right
from .quadrature import QUAD_TOL, integrate
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
            raise DomainError(f"x must lie in [{self.interval.a}, {self.interval.b}], got {self.x}")
        check_ranges(("alpha", self.alpha), ("lambda", self.lam), ("q", self.q))

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
    check_ranges(("quad_tol", quad_tol))
    a, b = params.a, params.b
    x, lam, alpha = params.x, params.lam, params.alpha
    w = b - a
    splits = kink_splits(alpha, lam)
    f2 = fn.f2
    total = 0.0
    for end, weight in ((a, (x - a) ** (alpha + 2.0) / w), (b, (b - x) ** (alpha + 2.0) / w)):
        if weight == 0.0:
            continue
        res = integrate(
            lambda t: t * (lam - t ** alpha) * f2(t * x + (1.0 - t) * end),
            0.0, 1.0, quad_tol=quad_tol, split_points=splits, left_exponent=alpha + 1.0,
        )
        total += weight * res.value
    return total


def _moment(k, alpha, lam):
    """int_0^1 |t*(lam - t**alpha)| * t**k dt in closed form, k > -2: with
    kappa = k + 2 and mu = lam**(kappa/alpha), the kink m = lam**(1/alpha)
    raised to kappa,

        ((1 - lam) + alpha/kappa * lam*(2*mu - 1)) / (alpha + kappa),

    the printed A2C at k = 1 and the printed A4 with its missing
    -lam/(s+2) at k = s, over one denominator."""
    kappa = k + 2.0
    mu = lam ** (kappa / alpha)
    return ((1.0 - lam) + alpha / kappa * lam * (2.0 * mu - 1.0)) / (alpha + kappa)


def _a3_constant(alpha, lam):
    """A3 under the constant kernel, int_0^1 |t*(lam - t**alpha)| * (1-t) dt,
    as A1 - A2 over one denominator, which keeps the small A3 of a large
    alpha at lam = 0 without the subtraction's cancellation; no product
    overflows before alpha does."""
    mu2 = lam ** (2.0 / alpha)
    mu3 = lam ** (3.0 / alpha)
    g = 6.0 * (alpha + 3.0) * mu2 - 4.0 * (alpha + 2.0) * mu3 - (alpha + 5.0)
    num = 6.0 * (1.0 - lam) / (alpha + 2.0) + alpha / (alpha + 2.0) * lam * g
    return num / (6.0 * (alpha + 3.0))


def t1_coefficients(alpha, lam, kernel, *, quad_tol=QUAD_TOL):
    """(A1, A2, A3) of the T1 bound under ``kernel``.  A1 is
    :func:`_moment` at k = 0, and so is A2 at k = 1 under the constant
    kernel and at k = s under power(s) (t*phi(t) is t or t**s); A3 under
    the constant kernel is :func:`_a3_constant`.  A3 under power(s), and
    A2 and A3 under MT, need incomplete Betas and come from
    :func:`~phi_ineq.coefquad.coef_integral`, A2 first."""
    check_ranges(("alpha", alpha), ("lambda", lam), ("quad_tol", quad_tol))
    a1 = _moment(0.0, alpha, lam)
    if kernel.kind == KIND_MT:
        a2 = coef_integral("A2", alpha, lam, kernel, quad_tol=quad_tol)
    else:
        a2 = _moment(1.0 if kernel.kind == KIND_CONSTANT else kernel.s, alpha, lam)
    if kernel.kind == KIND_CONSTANT:
        a3 = _a3_constant(alpha, lam)
    else:
        a3 = coef_integral("A3", alpha, lam, kernel, quad_tol=quad_tol)
    return a1, a2, a3


def theorem1_bound(fn, params, kernel, *, quad_tol=QUAD_TOL):
    """Power-mean bound (T1):

    A1**(1-1/q) * [ (x-a)**(a+2)/(b-a) * (A2*|f''(x)|^q + A3*|f''(a)|^q)**(1/q)
                  + (b-x)**(a+2)/(b-a) * (A2*|f''(x)|^q + A3*|f''(b)|^q)**(1/q) ]

    with A1, A2, A3 from :func:`t1_coefficients`.  The prefactor is
    exactly 1 at q = 1.
    """
    coefs = t1_coefficients(params.alpha, params.lam, kernel, quad_tol=quad_tol)
    a, b, x = params.a, params.b, params.x
    return power_mean_rhs(a, b, x, params.alpha, params.q, coefs,
                          f2_powers(fn, a, b, x, params.q))


def f2_powers(fn, a, b, x, q):
    """(|f''(x)|^q, |f''(a)|^q, |f''(b)|^q), the values both bounds weigh."""
    f2 = fn.f2
    return abs(f2(x)) ** q, abs(f2(a)) ** q, abs(f2(b)) ** q


def power_mean_rhs(a, b, x, alpha, q, coefs, powers):
    """The T1 bound from its coefficients ``(A1, A2, A3)`` and the
    :func:`f2_powers` at x; at q = 1 the prefactor A1**0.0 is exactly 1."""
    a1, a2, a3 = coefs
    fx, fa, fb = powers
    w = b - a
    term_a = (x - a) ** (alpha + 2.0) / w * (a2 * fx + a3 * fa) ** (1.0 / q)
    term_b = (b - x) ** (alpha + 2.0) / w * (a2 * fx + a3 * fb) ** (1.0 / q)
    return a1 ** (1.0 - 1.0 / q) * (term_a + term_b)


def t2_coefficients(alpha, lam, p, kernel, *, quad_tol=QUAD_TOL):
    """(B, M) of the T2 bound at the Holder exponent p.  B comes from
    :func:`~phi_ineq.coefquad.coef_integral`, as the sum of its pieces
    either side of the kink; M = int_0^1 t*phi(t) dt is 1/2 under the
    constant kernel, 1/(s+1) under power(s) and pi/4 under MT."""
    b_val = coef_integral("B", alpha, lam, p=p, quad_tol=quad_tol)
    if kernel.kind == KIND_CONSTANT:
        return b_val, 0.5
    if kernel.kind == KIND_MT:
        return b_val, math.pi / 4.0
    return b_val, 1.0 / (kernel.s + 1.0)


def theorem2_bound(fn, params, kernel, *, quad_tol=QUAD_TOL):
    """Holder bound (T2), for q > 1 and its conjugate p = q/(q-1):

    B**(1/p) * [ (x-a)**(a+2)/(b-a) * ((|f''(x)|^q + |f''(a)|^q) * M)**(1/q)
               + (b-x)**(a+2)/(b-a) * ((|f''(x)|^q + |f''(b)|^q) * M)**(1/q) ]

    with B and M = int t*phi(t) dt from :func:`t2_coefficients`.
    """
    a, b = params.a, params.b
    x, alpha, q = params.x, params.alpha, params.q
    if q <= 1.0:
        raise DomainError("Holder bound requires q > 1")
    p = q / (q - 1.0)
    coefs = t2_coefficients(alpha, params.lam, p, kernel, quad_tol=quad_tol)
    return holder_rhs(a, b, x, alpha, q, p, coefs, f2_powers(fn, a, b, x, q))


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
    check_ranges(("alpha", alpha), ("lambda", lam))

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
        if not 0.0 < s <= 1.0:
            raise DomainError(f"printed {name} requires s in (0, 1], got {s}")
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
    if not 1.0 < p < math.inf:
        raise DomainError(f"printed {name} requires a finite p > 1, got {p}")
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
