"""Special-function tests.  Gamma and log Gamma are held to mpmath at 40
digits; incomplete Beta is cross-checked against brute-force quadrature."""

import math

import pytest

from phi_ineq.errors import DomainError
from phi_ineq.quadrature import QuadratureSpec, integrate
from phi_ineq.specfun import (
    beta_fn,
    gamma,
    gauss_2f1,
    incomplete_beta,
    log_gamma,
)


def test_gamma_golden_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)
    assert gamma(2.5) == pytest.approx(1.3293403881791370, rel=1e-12)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)


def _log_grid(lo, hi, n=241):
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def test_gamma_within_8_ulp_of_mpmath():
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        for x in _log_grid(1e-3, 171.0):
            want = mp.gamma(x)
            assert abs(mp.mpf(gamma(x)) - want) <= 8 * math.ulp(float(want)), x


def test_gamma_recurrence_invariant():
    # gamma(x+1)/gamma(x) = x on a log-spaced grid
    for k in range(40):
        x = 1e-2 * (50.0 / 1e-2) ** (k / 39.0)
        assert gamma(x + 1.0) / gamma(x) == pytest.approx(x, rel=1e-11)


def test_gamma_domain_and_overflow():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-1.5)
    with pytest.raises(OverflowError):
        gamma(180.0)


def test_gamma_keeps_its_own_errors():
    # math.gamma says "math range error" on overflow and accepts inf
    with pytest.raises(OverflowError, match=r"gamma\(180.0\) exceeds the double-precision range"):
        gamma(180.0)
    for x in (math.inf, math.nan):
        with pytest.raises(DomainError, match="gamma requires x > 0"):
            gamma(x)
        with pytest.raises(DomainError, match="log_gamma requires x > 0"):
            log_gamma(x)


def test_log_gamma_against_mpmath():
    # absolute near the zeros at x = 1 and 2, relative elsewhere
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        for x in _log_grid(1e-3, 1e3) + [1.0 + k / 100 for k in range(-50, 150)]:
            want = mp.loggamma(x)
            bound = 8 * 2.0 ** -52 * max(1.0, abs(float(want)))
            assert abs(mp.mpf(log_gamma(x)) - want) <= bound, x


def test_beta_values():
    assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    assert beta_fn(1.5, 0.5) == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_beta_symmetry():
    for x in (0.2, 0.5, 1.0, 2.5, 7.0, 33.0):
        for y in (0.3, 1.0, 4.5, 12.0):
            assert beta_fn(x, y) == pytest.approx(beta_fn(y, x), rel=1e-12)


def test_beta_domain():
    with pytest.raises(DomainError):
        beta_fn(0.0, 1.0)
    with pytest.raises(DomainError):
        beta_fn(1.0, -2.0)


def test_incomplete_beta_reduces_to_complete():
    for x in (0.5, 1.0, 2.5, 7.0):
        for y in (0.5, 1.0, 2.5, 7.0):
            assert incomplete_beta(1.0, x, y) == pytest.approx(beta_fn(x, y), rel=1e-11)


def test_incomplete_beta_trivial_and_derived():
    assert incomplete_beta(1.0, 2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-13)
    # negative second parameter: antiderivative gives 3*sqrt(2) - 4
    assert incomplete_beta(0.5, 2.0, -0.5) == pytest.approx(3.0 * math.sqrt(2.0) - 4.0, abs=1e-9)


def test_incomplete_beta_against_quadrature():
    for upper in (0.2, 0.65, 0.9):
        for x, y in ((1.5, 2.5), (0.7, 0.4), (3.0, 1.0)):
            spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12,
                                  left_exponent=x - 1.0 if x < 1.0 else 0.0)
            ref = integrate(lambda t: t ** (x - 1.0) * (1.0 - t) ** (y - 1.0),
                            0.0, upper, spec).value
            assert incomplete_beta(upper, x, y) == pytest.approx(ref, rel=1e-10)


def test_incomplete_beta_monotone_in_upper():
    for x, y in ((2.0, -0.5), (0.5, 3.0), (1.0, 1.0)):
        values = [incomplete_beta(u, x, y) for u in (0.1, 0.25, 0.5, 0.75, 0.95)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_incomplete_beta_errors():
    with pytest.raises(DomainError):
        incomplete_beta(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        incomplete_beta(1.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        incomplete_beta(0.5, -1.0, 1.0)
    with pytest.raises(DomainError, match="diverges"):
        incomplete_beta(1.0, 2.0, -0.5)


def test_2f1_values():
    assert gauss_2f1(1.0, 3.0, 5.0) == pytest.approx(4.0, abs=1e-10)


def test_2f1_gauss_summation_tag_and_errors():
    with pytest.raises(DomainError, match="diverges"):
        gauss_2f1(1.0, 2.0, 3.0)  # c-a-b = 0
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, -1.0)
