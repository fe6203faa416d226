"""Kernel evaluation and convexity-checker tests."""

from contextlib import nullcontext

import numpy as np
import pytest

from phi_ineq.convexity import PhiKernel, check_phi_convex, phi_function
from phi_ineq.errors import DomainError
from phi_ineq.fracint import Interval

UNIT = Interval(0.0, 1.0)
CONST = PhiKernel.constant()
MT = PhiKernel.mt()


def _warns_if(negative):
    return pytest.warns(UserWarning, match="negative values") if negative else nullcontext()


def test_phi_function_values():
    assert phi_function(CONST)(0.3) == 1.0
    assert phi_function(PhiKernel.power(0.5))(0.25) == pytest.approx(2.0, rel=1e-14)
    assert phi_function(MT)(0.5) == pytest.approx(1.0, rel=1e-14)
    assert phi_function(PhiKernel.power(1.0))(0.7) == 1.0


def test_kernel_validation():
    with pytest.raises(DomainError):
        PhiKernel.power(0.0)
    with pytest.raises(DomainError):
        PhiKernel.power(1.5)
    with pytest.raises(DomainError):
        PhiKernel("bogus")


def test_kernel_labels():
    assert CONST.label == "constant"
    assert PhiKernel.power(0.5).label == "power(0.5)"
    assert MT.label == "mt"


def test_convex_function_passes():
    w = check_phi_convex(lambda t: t * t, CONST, UNIT)
    assert w.holds
    assert w.worst_violation <= 0.0


def test_concave_function_fails_with_witness():
    with pytest.warns(UserWarning, match="negative values"):
        w = check_phi_convex(lambda t: -t * t, CONST, UNIT)
    assert not w.holds
    assert w.worst_violation > 0.0
    x, y, t = w.witness_point
    # the witness reproduces the reported violation
    g = lambda u: -u * u
    lhs = g(t * x + (1.0 - t) * y)
    phi = phi_function(CONST)
    rhs = t * phi(t) * g(x) + (1.0 - t) * phi(1.0 - t) * g(y)
    assert lhs - rhs == pytest.approx(w.worst_violation, rel=1e-12)


def test_constant_function_is_mt_convex():
    w = check_phi_convex(lambda t: 4.0 + 0.0 * t, MT, UNIT)
    assert w.holds


def test_sqrt_under_the_three_kernels():
    g = lambda t: np.sqrt(t)
    assert not check_phi_convex(g, CONST, UNIT).holds
    assert check_phi_convex(g, PhiKernel.power(0.5), UNIT).holds
    assert not check_phi_convex(g, MT, UNIT).holds


def test_mt_requires_nonnegative_function():
    with pytest.raises(DomainError):
        check_phi_convex(lambda t: t - 0.5, MT, UNIT)


def test_negative_function_warns_for_other_kernels():
    with pytest.warns(UserWarning, match="negative values"):
        w = check_phi_convex(lambda t: t - 0.5, CONST, UNIT)
    assert w.holds  # linear functions are convex


def test_power_one_coincides_with_constant():
    for g in (lambda t: t * t, lambda t: -t * t, lambda t: np.exp(t)):
        # only -t*t takes negative values, and both kernels say so
        with _warns_if(g(0.5) < 0.0):
            w1 = check_phi_convex(g, CONST, UNIT)
        with _warns_if(g(0.5) < 0.0):
            w2 = check_phi_convex(g, PhiKernel.power(1.0), UNIT)
        assert w1.holds == w2.holds
        assert w1.worst_violation == pytest.approx(w2.worst_violation, abs=1e-14)
        assert w1.witness_point == w2.witness_point


def test_scaling_invariance():
    g = lambda t: np.exp(t)
    base = check_phi_convex(g, CONST, UNIT)
    for c in (0.5, 3.0):
        scaled = check_phi_convex(lambda t, c=c: c * np.exp(t), CONST, UNIT)
        assert scaled.holds == base.holds


def test_reflection_symmetry_of_verdict():
    # the scanned (x, y, t) set is symmetric, so reflecting the function
    # across the interval midpoint cannot change a constant-kernel verdict
    a, b = 0.0, 1.0
    g = lambda t: np.where(t < 0.6, t * t, 0.36 + 0.5 * (t - 0.6))  # slope drops at the kink: not convex
    w1 = check_phi_convex(g, CONST, UNIT)
    w2 = check_phi_convex(lambda t: g(a + b - t), CONST, UNIT)
    assert w1.holds == w2.holds
    assert w1.worst_violation == pytest.approx(w2.worst_violation, abs=1e-12)


def test_witness_determinism():
    g = lambda t: -np.cosh(t)
    with pytest.warns(UserWarning, match="negative values"):
        w1 = check_phi_convex(g, CONST, UNIT)
    with pytest.warns(UserWarning, match="negative values"):
        w2 = check_phi_convex(g, CONST, UNIT)
    assert w1 == w2

