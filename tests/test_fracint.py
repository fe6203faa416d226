"""Riemann-Liouville operator tests: reductions, the power law, mirror
symmetry and the semigroup property (computed with nested quadrature, no
closed forms on the checked path)."""

import math

import pytest

from phi_ineq.errors import DomainError
from phi_ineq.fracint import Interval, rl_left, rl_right
from phi_ineq.specfun import gamma


def test_interval_validation():
    iv = Interval(0.25, 1.5)
    assert iv.width == 1.25
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)


def test_alpha_one_reduces_to_plain_integral():
    assert rl_left(lambda t: 1.0, 0.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert rl_left(lambda t: t * t, 0.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rl_right(lambda t: 1.0, 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert rl_right(lambda t: t, 1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert rl_left(lambda t: math.exp(t), 0.0, 1.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-11)


def test_half_order_derived_values():
    assert rl_left(lambda t: t, 0.0, 0.5, 1.0) == pytest.approx(
        gamma(2.0) / gamma(2.5), rel=1e-10)
    assert rl_right(lambda t: 1.0 - t, 1.0, 0.5, 0.0) == pytest.approx(
        (4.0 / 3.0) / math.sqrt(math.pi), rel=1e-10)


def test_power_law():
    for a, x in ((0.0, 1.0), (0.3, 1.2), (-0.5, 0.75)):
        for beta in (0, 1, 2, 3):
            for alpha in (0.3, 0.5, 1.0, 1.7):
                got = rl_left(lambda t: (t - a) ** beta, a, alpha, x)
                want = gamma(beta + 1.0) / gamma(alpha + beta + 1.0) * (x - a) ** (alpha + beta)
                assert got == pytest.approx(want, rel=1e-8)


def test_mirror_symmetry():
    # right integral of f on [a, b] at x equals the left integral of the
    # reflected function at the reflected point
    a, b = 0.0, 1.0
    f = lambda t: math.exp(t) * (1.0 + t * t)
    for alpha in (0.3, 0.5, 1.0, 2.0):
        for x in (0.2, 0.5, 0.8):
            lhs = rl_right(f, b, alpha, x)
            rhs = rl_left(lambda t: f(a + b - t), a, alpha, a + b - x)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_semigroup_property():
    # rl^(a1) applied to y -> rl^(a2) f(y) equals rl^(a1+a2) f, checked
    # with the inner integral evaluated numerically
    f = lambda t: t ** 3 + t
    x = 0.9
    for a1 in (0.5, 1.0):
        for a2 in (0.5, 1.0):
            inner = lambda y, a2=a2: rl_left(f, 0.0, a2, y, quad_tol=1e-10)
            got = rl_left(inner, 0.0, a1, x, quad_tol=1e-9)
            want = rl_left(f, 0.0, a1 + a2, x)
            assert got == pytest.approx(want, abs=1e-7)


def test_order_zero_rejected():
    f = lambda t: t * t + 1.0
    with pytest.raises(DomainError):
        rl_left(f, 0.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        rl_right(f, 1.0, 0.0, 0.5)


def test_domain_errors():
    with pytest.raises(DomainError):
        rl_left(lambda t: t, 0.0, 1.0, 0.0)  # x must exceed a
    with pytest.raises(DomainError):
        rl_right(lambda t: t, 1.0, 1.0, 1.0)  # x must be below b
    with pytest.raises(DomainError):
        rl_left(lambda t: t, 0.0, -0.5, 1.0)
