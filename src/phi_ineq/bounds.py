"""The quadrature-difference functional S, its integral identity, the
coefficient integrals A1-A5 / B / C1 / C2 and the two theorem bounds.

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
coefficient integrals.  The printed closed forms (A2C, A3C, A4, A5,
B_closed, C1, C2) are evaluated by :func:`printed_coefficient` exactly as
written, for the discrepancy ledger only -- several of them fail sanity
checks at lam in {0, 1} -- and never feed a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefquad import coef_integral
from .errors import DomainError
from .fracint import Interval, rl_left, rl_right
from .quadrature import QuadratureSpec, integrate
from .specfun import (
    METHOD_CLOSED,
    SpecFunResult,
    dominant_method,
    gamma,
    gauss_2f1_detailed,
    incomplete_beta_detailed,
)

PRINTED_NAMES = ("A2C", "A3C", "A4", "A5", "B_closed", "C1", "C2")


@dataclass(frozen=True)
class EvalParams:
    """One parameter point (a, b, x, lam, alpha, q, p, s)."""

    interval: Interval
    x: float
    lam: float
    alpha: float
    q: float = 1.0
    p: float | None = None
    s: float | None = None

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
        if self.p is not None:
            object.__setattr__(self, "p", float(self.p))
            if not self.p > 1.0:
                raise DomainError(f"p must exceed 1, got {self.p}")
            if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-12:
                raise DomainError(
                    f"p={self.p} and q={self.q} are not conjugate (1/p + 1/q != 1)"
                )
        if self.s is not None:
            object.__setattr__(self, "s", float(self.s))
            if not 0.0 < self.s <= 1.0:
                raise DomainError(f"s must lie in (0, 1], got {self.s}")

    @property
    def a(self):
        return self.interval.a

    @property
    def b(self):
        return self.interval.b

    def conjugate_p(self):
        if self.p is not None:
            return self.p
        if self.q <= 1.0:
            raise DomainError("p is undefined for q = 1 (Holder bound needs q > 1)")
        return self.q / (self.q - 1.0)


def _coef_tols(quad_tol):
    return 0.1 * quad_tol, 10.0 * quad_tol


def fractional_sum(fn, a, b, x, alpha, *, quad_tol=1e-12):
    """J1 + J2: the two composite fractional integrals entering S.  They
    depend on (x, alpha) but not on lambda, so a sweep computes the sum
    once per (fn, x, alpha) and hands it to :func:`s_functional`."""
    j1 = rl_right(fn.f, b=x, alpha=alpha, x=a, quad_tol=quad_tol) if x > a else 0.0
    j2 = rl_left(fn.f, a=x, alpha=alpha, x=b, quad_tol=quad_tol) if x < b else 0.0
    return j1 + j2


def s_functional(fn, params, *, quad_tol=1e-12, j_sum=None):
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


def identity_rhs(fn, params, *, quad_tol=1e-12):
    """The second-derivative representation of S: the weighted pair of
    integrals of t*(lam - t**alpha) * f''(t*x + (1-t)*end) over [0, 1]."""
    a, b = params.a, params.b
    x, lam, alpha = params.x, params.lam, params.alpha
    w = b - a
    kink = lam ** (1.0 / alpha) if 0.0 < lam < 1.0 else None
    spec = QuadratureSpec(
        abs_tol=0.1 * quad_tol,
        rel_tol=10.0 * quad_tol,
        split_points=(kink,) if kink is not None else (),
    )
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


def coef_a1_oracle(alpha, lam, *, quad_tol=1e-12):
    """Quadrature cross-check of :func:`coef_a1`."""
    abs_tol, rel_tol = _coef_tols(quad_tol)
    return coef_integral("A1", alpha, lam, abs_tol=abs_tol, rel_tol=rel_tol)


def coef_weighted(alpha, lam, kernel, which, *, quad_tol=1e-12):
    """Oracle value of A2 = int |t(lam-t^alpha)| t phi(t) dt or
    A3 = int |t(lam-t^alpha)| (1-t) phi(1-t) dt.  Authoritative for the
    theorem bounds."""
    if which not in ("A2", "A3"):
        raise DomainError(f"which must be 'A2' or 'A3', got {which!r}")
    abs_tol, rel_tol = _coef_tols(quad_tol)
    return coef_integral(which, alpha, lam, kernel, abs_tol=abs_tol, rel_tol=rel_tol)


def coef_b(alpha, lam, p, *, quad_tol=1e-12):
    """Oracle value of B = int_0^1 |t*(lam - t**alpha)|**p dt."""
    if not p > 1.0:
        raise DomainError(f"coef_b requires p > 1, got {p}")
    abs_tol, rel_tol = _coef_tols(quad_tol)
    return coef_integral("B", alpha, lam, p=p, abs_tol=abs_tol, rel_tol=rel_tol)


def coef_c_oracle(alpha, lam, p, which, *, quad_tol=1e-12):
    """Quadrature oracles for the split of B at the kink m = lam**(1/alpha):
    C1 over [0, m], C2 over [m, 1]."""
    if which not in ("C1", "C2"):
        raise DomainError(f"which must be 'C1' or 'C2', got {which!r}")
    alpha = float(alpha)
    lam = float(lam)
    m = lam ** (1.0 / alpha) if lam > 0.0 else 0.0
    abs_tol, rel_tol = _coef_tols(quad_tol)
    if which == "C1":
        if m == 0.0:
            return 0.0
        return coef_integral("B", alpha, lam, p=p, hi=m, abs_tol=abs_tol, rel_tol=rel_tol)
    if m == 1.0:
        return 0.0
    return coef_integral("B", alpha, lam, p=p, lo=m, abs_tol=abs_tol, rel_tol=rel_tol)


def weight_moment(kernel, *, quad_tol=1e-12):
    """M = int_0^1 t*phi(t) dt, by quadrature (1/2 for the constant
    kernel, 1/(s+1) for t**(s-1), pi/4 for MT)."""
    abs_tol, rel_tol = _coef_tols(quad_tol)
    return coef_integral("M", 1.0, 0.0, kernel, abs_tol=abs_tol, rel_tol=rel_tol)


def theorem1_bound(fn, params, kernel, *, quad_tol=1e-12):
    """Power-mean bound (T1):

    A1**(1-1/q) * [ (x-a)**(a+2)/(b-a) * (A2*|f''(x)|^q + A3*|f''(a)|^q)**(1/q)
                  + (b-x)**(a+2)/(b-a) * (A2*|f''(x)|^q + A3*|f''(b)|^q)**(1/q) ]

    with A2, A3 from their quadrature oracles.  The prefactor is exactly 1
    at q = 1.
    """
    a, b = params.a, params.b
    x, lam, alpha, q = params.x, params.lam, params.alpha, params.q
    a2 = coef_weighted(alpha, lam, kernel, "A2", quad_tol=quad_tol)
    a3 = coef_weighted(alpha, lam, kernel, "A3", quad_tol=quad_tol)
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


def theorem2_bound(fn, params, kernel, *, quad_tol=1e-12):
    """Holder bound (T2), for conjugate p, q with q > 1:

    B**(1/p) * [ (x-a)**(a+2)/(b-a) * ((|f''(x)|^q + |f''(a)|^q) * M)**(1/q)
               + (b-x)**(a+2)/(b-a) * ((|f''(x)|^q + |f''(b)|^q) * M)**(1/q) ]

    with B and M = int t*phi(t) dt from quadrature.
    """
    if params.q <= 1.0:
        raise DomainError("Holder bound requires q > 1")
    p = params.conjugate_p()
    a, b = params.a, params.b
    x, lam, alpha, q = params.x, params.lam, params.alpha, params.q
    b_val = coef_b(alpha, lam, p, quad_tol=quad_tol)
    m = weight_moment(kernel, quad_tol=quad_tol)
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
    if upper == 0.0:
        return SpecFunResult(0.0, 0.0, METHOD_CLOSED)
    return incomplete_beta_detailed(upper, x, y)


def printed_coefficient(name, params):
    """Evaluate a printed closed-form coefficient exactly as written.

    Used only for discrepancy reporting against the quadrature oracles,
    never inside a bound.  Raises DomainError when the formula requests an
    undefined quantity (the complete Beta with a negative second
    parameter, as B_closed and C2 do); that error is itself a ledger
    finding.
    """
    if name not in PRINTED_NAMES:
        raise DomainError(f"unknown printed coefficient {name!r}")
    alpha, lam = params.alpha, params.lam
    noise = 4.0 * 2.2e-16

    if name == "A2C":
        lam_pow = lam ** (1.0 + 3.0 / alpha) if lam > 0.0 else 0.0
        value = (3.0 - (alpha + 3.0) * lam + 2.0 * alpha * lam_pow) / (3.0 * (alpha + 3.0))
        return SpecFunResult(value, noise * max(1.0, abs(value)), METHOD_CLOSED)

    if name == "A3C":
        lp2 = lam ** (1.0 + 2.0 / alpha) if lam > 0.0 else 0.0
        lp3 = lam ** (1.0 + 3.0 / alpha) if lam > 0.0 else 0.0
        value = (
            alpha * lp2 / (alpha + 2.0)
            - 2.0 * lp3 / (3.0 * (alpha + 3.0))
            + alpha * lam / 6.0
            - alpha / ((alpha + 2.0) * (alpha + 3.0))
        )
        return SpecFunResult(value, noise * max(1.0, abs(value)), METHOD_CLOSED)

    if name in ("A4", "A5"):
        if params.s is None:
            raise DomainError(f"printed {name} requires params.s")
        s = params.s
        if name == "A4":
            lam_pow = lam ** ((s + 2.0) / alpha + 1.0) if lam > 0.0 else 0.0
            value = (
                2.0 * lam_pow / (s + 2.0)
                - 2.0 * lam_pow / (alpha + s + 2.0)
                + 1.0 / (alpha + s + 2.0)
            )
            return SpecFunResult(value, noise * max(1.0, abs(value)), METHOD_CLOSED)
        m = lam ** (1.0 / alpha) if lam > 0.0 else 0.0
        parts = (
            _incomplete_beta_term(m, 2.0, s + 1.0),
            _incomplete_beta_term(m, alpha + 2.0, s + 1.0),
            _incomplete_beta_term(1.0 - m, alpha + 2.0, s + 1.0),
            _incomplete_beta_term(1.0 - m, 2.0, s + 1.0),
        )
        value = lam * parts[0].value - parts[1].value + parts[2].value - lam * parts[3].value
        err = sum(p.abs_err_estimate for p in parts) + noise * max(1.0, abs(value))
        return SpecFunResult(value, err, dominant_method(METHOD_CLOSED, *(p.method for p in parts)))

    # B_closed, C1, C2 need the Holder exponent
    p_exp = params.conjugate_p()
    prefactor = (lam ** ((1.0 + p_exp + alpha * p_exp) / alpha) if lam > 0.0 else 0.0) / alpha

    def c1_part():
        hyp = gauss_2f1_detailed(1.0, 1.0 + p_exp, 2.0 + p_exp + (1.0 + p_exp) / alpha, 1.0)
        value = prefactor * gamma(1.0 + p_exp) * gamma((1.0 + p_exp + alpha) / alpha) * hyp.value
        return value, prefactor * hyp.abs_err_estimate + noise * max(1.0, abs(value)), hyp.method

    def c2_part():
        y_neg = -(1.0 + p_exp + alpha * p_exp) / alpha
        complete = incomplete_beta_detailed(1.0, 1.0 + p_exp, y_neg)  # raises: y_neg < 0
        partial = _incomplete_beta_term(lam, 1.0 + p_exp, y_neg)
        value = prefactor * (complete.value - partial.value)
        err = prefactor * (complete.abs_err_estimate + partial.abs_err_estimate)
        return value, err + noise * max(1.0, abs(value)), dominant_method(complete.method, partial.method)

    if name == "C1":
        value, err, method = c1_part()
        return SpecFunResult(value, err, method)
    if name == "C2":
        value, err, method = c2_part()
        return SpecFunResult(value, err, method)
    v1, e1, m1 = c1_part()
    v2, e2, m2 = c2_part()
    return SpecFunResult(v1 + v2, e1 + e2, dominant_method(m1, m2))
