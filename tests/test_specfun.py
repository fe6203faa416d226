"""Special-function tests.  math.gamma / math.lgamma serve as the
independent oracle for the Lanczos implementation; incomplete Beta is
cross-checked against brute-force quadrature."""

import math

import pytest

from phi_ineq.errors import DivergenceError, DomainError, NonIntegrableError
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


def test_gamma_against_stdlib_oracle():
    x = 1e-3
    while x <= 170.0:
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)
        x *= 1.7


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


def test_log_gamma_matches_stdlib():
    for x in (1e-3, 0.4, 1.0, 7.5, 42.0, 250.0):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=0, abs=1e-11 * max(1.0, abs(math.lgamma(x))))


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
    with pytest.raises(NonIntegrableError):
        incomplete_beta(1.0, 2.0, -0.5)


def test_2f1_values():
    assert gauss_2f1(1.0, 3.0, 5.0) == pytest.approx(4.0, abs=1e-10)


def test_2f1_gauss_summation_tag_and_errors():
    with pytest.raises(DivergenceError):
        gauss_2f1(1.0, 2.0, 3.0)  # c-a-b = 0
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, -1.0)
