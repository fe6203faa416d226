"""S on polynomials from an exact oracle in rational arithmetic: no
quadrature and no mpmath.

For a polynomial f, Gamma(alpha+2)*J1 = alpha(alpha+1) * sum_k c_k
(x-a)^(alpha+k)/(alpha+k), where c_k are the Taylor coefficients of f at
a, and Gamma(alpha+2)*J2 is the same at b.  Grouping the four terms of S
by their power of (x-a) and (b-x) gives

    S * (b-a) = (x-a)^alpha * P_a + (b-x)^alpha * P_b

with P_a and P_b exact in :class:`fractions.Fraction`.  Only the two
powers are rounded, and only at non-integer alpha."""

from fractions import Fraction
from math import comb

import pytest

from phi_ineq.bounds import EvalParams, identity_rhs, s_functional
from phi_ineq.functions import resolve_function

# expression -> coefficients of t^0, t^1, ...
POLYNOMIALS = {
    "t^2": (0, 0, 1),
    "t^3": (0, 0, 0, 1),
    "t^4": (0, 0, 0, 0, 1),
    "2*t^4 - t": (0, -1, 0, 0, 2),
}


def _taylor(coefs, c):
    """The Taylor coefficients of the polynomial ``coefs`` at c."""
    return [sum(coefs[j] * comb(j, k) * c ** (j - k) for j in range(k, len(coefs)))
            for k in range(len(coefs))]


def _power(base, alpha):
    """base^alpha: exact at integer alpha, else rounded once."""
    if alpha.denominator == 1:
        return base ** alpha.numerator
    return Fraction(float(base) ** float(alpha))


def exact_s(coefs, a, b, x, lam, alpha):
    """S(x, lam, alpha; a, b) of the polynomial ``coefs``, as a float."""
    a, b, x, lam, alpha = (Fraction(v) for v in (a, b, x, lam, alpha))
    at_x = _taylor(coefs, x)
    f_x, f1_x = at_x[0], at_x[1]
    pairs = []
    for end, h, sign in ((a, x - a, -1), (b, b - x, 1)):
        # f(t) = sum_k c_k (t - end)^k, and t - end = -sign * (distance to end)
        c = _taylor(coefs, end)
        frac = sum(ck * (-sign) ** k * h ** k / (alpha + k) for k, ck in enumerate(c))
        p = sign * (1 - lam) * h * f1_x + (1 + alpha - lam) * f_x + lam * c[0]
        pairs.append((_power(h, alpha), p - alpha * (alpha + 1) * frac))
    return float(sum(w * p for w, p in pairs) / (b - a))


def _worst_error(name, a, b, functional, lams, alphas=(0.5, 1.0, 1.5, 2.5)):
    """The largest relative error of ``functional`` against the oracle at x
    0.1, 0.5 and 0.77 of the way across [a, b]."""
    fn = resolve_function(name, a, b)
    worst = 0.0
    for x in (a + (b - a) * rel for rel in (0.1, 0.5, 0.77)):
        for lam in lams:
            for alpha in alphas:
                got = float(functional(fn, EvalParams(fn.domain, x=x, lam=lam, alpha=alpha)))
                want = exact_s(POLYNOMIALS[name], a, b, x, lam, alpha)
                worst = max(worst, abs(got - want) / abs(want))
    return worst


def test_oracle_matches_closed_form_equality_case():
    # t^3 on [0, 1] at the midpoint, lam = 0, alpha = 1: |S| = 1/4
    assert exact_s(POLYNOMIALS["t^3"], 0.0, 1.0, 0.5, 0.0, 1.0) == -0.25


@pytest.mark.parametrize("functional", [s_functional, identity_rhs])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (2.0, 3.0), (0.3, 1.7)])
@pytest.mark.parametrize("name", list(POLYNOMIALS))
def test_well_scaled_intervals(name, a, b, functional):
    assert _worst_error(name, a, b, functional, (0.0, 0.3, 1.0)) <= 1e-11


# Lemma 1's integrals fall below the absolute quadrature tolerance
# (0.1 * quad_tol) on a short interval at the origin, and the quadrature
# then stops short of its relative tolerance: t^4 at lam = 0.3, where the
# integrand changes sign inside [0, 1], is off by 2.4e-11
_ABSOLUTE_TOL_LOSS = pytest.mark.xfail(
    strict=True, reason="identity_rhs meets its absolute tolerance first on small integrals")


def _extreme_cases():
    for name in POLYNOMIALS:
        for a, b in ((1e2, 1e2 + 1.0), (1e4, 1e4 + 1.0), (1e6, 1e6 + 1.0),
                     (0.0, 1e-2), (0.0, 1e-4), (0.0, 1e-6)):
            for lam in (0.0, 0.3, 1.0):
                lost = "t^4" in name and lam == 0.3 and b <= 1e-4
                yield pytest.param(name, a, b, lam, marks=[_ABSOLUTE_TOL_LOSS] if lost else [])


@pytest.mark.parametrize("name, a, b, lam", list(_extreme_cases()))
def test_identity_rhs_at_extreme_scales(name, a, b, lam):
    # far from the origin the four-term form cancels (see s_functional);
    # Lemma 1's form does not
    assert _worst_error(name, a, b, identity_rhs, (lam,)) <= 1e-12
