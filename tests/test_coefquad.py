"""Coefficient-family integrals against closed forms at lam = 0, where
|t*(lam - t**alpha)| = t**(alpha+1) has no kink, against mpmath at an
interior lam, where it has one, plus argument validation.  The weight
moment M = int_0^1 t*phi(t) dt, which the bounds take in closed form
and which has no family here, is checked against the same mpmath
integrand."""

import math

import pytest

from phi_ineq.bounds import t2_coefficients
from phi_ineq.coefquad import coef_integral
from phi_ineq.convexity import PhiKernel
from phi_ineq.errors import DomainError

CONST = PhiKernel.constant()
MT = PhiKernel.mt()
ALPHAS = (0.3, 1.0, 2.5)


def beta(x, y):
    return math.gamma(x) * math.gamma(y) / math.gamma(x + y)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_a2_constant_kernel_at_lambda_zero(alpha):
    assert coef_integral("A2", alpha, 0.0, CONST) == pytest.approx(1.0 / (alpha + 3.0), rel=1e-10)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_a3_constant_kernel_at_lambda_zero(alpha):
    want = 1.0 / (alpha + 2.0) - 1.0 / (alpha + 3.0)
    assert coef_integral("A3", alpha, 0.0, CONST) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_mt_kernel_singular_ends_at_lambda_zero(alpha):
    # A2 puts the MT singularity at t = 1, A3 at t = 0; both reduce to Beta values
    assert coef_integral("A2", alpha, 0.0, MT) == pytest.approx(
        0.5 * beta(alpha + 2.5, 0.5), rel=1e-10)
    assert coef_integral("A3", alpha, 0.0, MT) == pytest.approx(
        0.5 * beta(alpha + 1.5, 1.5), rel=1e-10)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("p", (1.5, 2.0, 7.0))
def test_b_at_lambda_zero(alpha, p):
    want = 1.0 / ((1.0 + alpha) * p + 1.0)
    assert coef_integral("B", alpha, 0.0, p=p) == pytest.approx(want, rel=1e-10)


def test_m_closed_forms():
    # M is 1/2, 1/(s+1) or pi/4 in t2_coefficients, not a quadrature
    with pytest.raises(DomainError, match="unknown coefficient family 'M'"):
        coef_integral("M", 1.0, 0.0, MT)


ORACLE_CASES = (
    [("A1", None, 1.0)]
    + [(family, kernel, 1.0) for family in ("A2", "A3", "M")
       for kernel in (CONST, PhiKernel.power(0.5), MT)]
    + [("B", None, p) for p in (1.5, 3.0)]
    + [("M", PhiKernel.power(s), 1.0) for s in (0.25, 1.0)]
)


def _value(family, kernel, p, alpha, lam):
    """coef_integral's value of a family; M from the bounds' closed form."""
    if family == "M":
        return t2_coefficients(alpha, lam, p, kernel)[1]
    return coef_integral(family, alpha, lam, kernel, p=p)


def _mpmath_value(family, kernel, p, alpha, lam):
    """The coefficient integral at 30 digits, split at the kink."""
    mp = pytest.importorskip("mpmath").mp
    a, l, pe = mp.mpf(alpha), mp.mpf(lam), mp.mpf(p)
    if kernel is None or kernel.kind == "constant":
        phi = lambda t: mp.mpf(1)
    elif kernel.kind == "power":
        phi = lambda t: t ** (mp.mpf(kernel.s) - 1)
    else:
        phi = lambda t: 1 / (2 * mp.sqrt(t) * mp.sqrt(1 - t))
    base = lambda t: abs(t * (l - t ** a))
    integrand = {
        "A1": base,
        "A2": lambda t: base(t) * t * phi(t),
        "A3": lambda t: base(t) * (1 - t) * phi(1 - t),
        "B": lambda t: base(t) ** pe,
        "M": lambda t: t * phi(t),
    }[family]
    with mp.workdps(30):
        return float(mp.quad(integrand, [0, l ** (1 / a), 1]))


@pytest.mark.parametrize("alpha, lam", ((0.6, 0.3), (2.5, 0.7)))
@pytest.mark.parametrize("family, kernel, p", ORACLE_CASES)
def test_against_mpmath_at_an_interior_lambda(family, kernel, p, alpha, lam):
    want = _mpmath_value(family, kernel, p, alpha, lam)
    got = _value(family, kernel, p, alpha, lam)
    # M's closed form is correct to rounding
    tol = {"rel": 2.0 ** -52, "abs": 0.0} if family == "M" else {"rel": 1e-10, "abs": 1e-13}
    assert got == pytest.approx(want, **tol)


GRADED_CASES = (
    [(family, kernel, 1.0) for family in ("A2", "A3")
     for kernel in (PhiKernel.power(0.3), PhiKernel.power(0.5), MT)]
    + [("B", None, p) for p in (1.5, 3.0)]
)


@pytest.mark.parametrize("alpha", (0.25, 0.5, 1.5, 2.5))
@pytest.mark.parametrize("family, kernel, p", GRADED_CASES)
def test_graded_ends_against_mpmath(family, kernel, p, alpha):
    # the families whose ends are declared non-smooth, at lam = 0 and 1,
    # where the declared exponents change, and at two interior lam
    for lam in (0.0, 0.3, 0.7, 1.0):
        want = _mpmath_value(family, kernel, p, alpha, lam)
        got = coef_integral(family, alpha, lam, kernel, p=p)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), lam


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        coef_integral("A9", 1.0, 0.5, CONST)


@pytest.mark.parametrize("family", ("A2", "A3"))
def test_weighted_families_need_a_kernel(family):
    with pytest.raises(DomainError):
        coef_integral(family, 1.0, 0.5)


@pytest.mark.parametrize("alpha", (0.0, -1.0, math.inf, math.nan))
def test_alpha_outside_positive_reals_rejected(alpha):
    # coef_integral("A1", inf, 0.5) returned 0.25
    with pytest.raises(DomainError, match="alpha must be positive and finite"):
        coef_integral("A1", alpha, 0.5)


@pytest.mark.parametrize("lam", (-0.1, 1.1))
def test_lambda_outside_unit_interval_rejected(lam):
    with pytest.raises(DomainError):
        coef_integral("A1", 1.0, lam)


@pytest.mark.parametrize("lo, hi", ((-0.1, 1.0), (0.0, 1.5), (0.6, 0.4), (0.5, 0.5)))
def test_range_outside_unit_interval_rejected(lo, hi):
    with pytest.raises(DomainError):
        coef_integral("B", 1.0, 0.5, p=2.0, lo=lo, hi=hi)
