"""Coefficient-family integrals against closed forms at lam = 0, where
|t*(lam - t**alpha)| = t**(alpha+1) has no kink, plus argument validation."""

import math

import pytest

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
    assert coef_integral("M", 1.0, 0.0, MT) == pytest.approx(math.pi / 4.0, rel=1e-11)
    for s in (0.25, 0.5, 1.0):
        got = coef_integral("M", 1.0, 0.0, PhiKernel.power(s))
        assert got == pytest.approx(1.0 / (s + 1.0), rel=1e-11)


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        coef_integral("A9", 1.0, 0.5, CONST)


@pytest.mark.parametrize("family", ("A2", "A3", "M"))
def test_weighted_families_need_a_kernel(family):
    with pytest.raises(DomainError):
        coef_integral(family, 1.0, 0.5)


@pytest.mark.parametrize("lam", (-0.1, 1.1))
def test_lambda_outside_unit_interval_rejected(lam):
    with pytest.raises(DomainError):
        coef_integral("A1", 1.0, lam)


@pytest.mark.parametrize("lo, hi", ((-0.1, 1.0), (0.0, 1.5), (0.6, 0.4), (0.5, 0.5)))
def test_range_outside_unit_interval_rejected(lo, hi):
    with pytest.raises(DomainError):
        coef_integral("B", 1.0, 0.5, p=2.0, lo=lo, hi=hi)
