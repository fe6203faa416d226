"""Adaptive quadrature engine tests: rule exactness, golden integrals,
declared singularities, kink splitting and failure modes."""

import math
import random

import pytest

from phi_ineq import quadrature
from phi_ineq.errors import DomainError, NonFiniteSample, ToleranceNotMet
from phi_ineq.quadrature import (
    WG,
    WGK,
    XGK,
    QuadratureSpec,
    _panels,
    integrate,
)


def test_weights_sum_to_interval_length():
    assert abs(2.0 * sum(WGK[:7]) + WGK[7] - 2.0) < 1e-15
    assert abs(2.0 * sum(WG[:3]) + WG[3] - 2.0) < 1e-15


def test_gauss_kronrod_polynomial_exactness():
    # the embedded 7-point Gauss rule is exact to degree 13, the 15-point
    # Kronrod rule to degree 22; both catch any wrong table constant
    for k in range(0, 23):
        exact = 1.0 / (k + 1.0)
        res = integrate(lambda t, k=k: t ** k, 0.0, 1.0,
                        QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12))
        assert res.value == pytest.approx(exact, abs=2e-15)
        if k <= 13:
            # the embedded Gauss rule is also exact, so the error estimate
            # vanishes and the first panel already satisfies the tolerance
            assert res.subdivisions_used == 0


def test_simple_polynomial():
    res = integrate(lambda t: t * t, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert res.err_estimate <= max(1e-12, 1e-10 * res.value)


def test_left_singularity_power_rule():
    spec = QuadratureSpec(left_exponent=-0.5)
    res = integrate(lambda t: t ** -0.5, 0.0, 1.0, spec)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_declared_singularity_consistency():
    for alpha in (0.1, 0.5, 0.9):
        spec = QuadratureSpec(left_exponent=alpha - 1.0)
        res = integrate(lambda t, a=alpha: t ** (a - 1.0), 0.0, 1.0, spec)
        assert res.value == pytest.approx(1.0 / alpha, rel=1e-10)


def test_both_ends_singular():
    # Beta(1/2, 1/2) integrand: pi
    spec = QuadratureSpec(left_exponent=-0.5, right_exponent=-0.5)
    res = integrate(lambda t: t ** -0.5 * (1.0 - t) ** -0.5, 0.0, 1.0, spec)
    assert res.value == pytest.approx(math.pi, rel=1e-11)


def test_kinked_abs_split():
    res = integrate(lambda t: abs(t * (0.5 - t)), 0.0, 1.0,
                    QuadratureSpec(split_points=(0.5,)))
    assert res.value == pytest.approx(0.125, abs=1e-13)


def test_additivity_on_random_smooth_functions():
    rng = random.Random(1234)
    for _ in range(10):
        c = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        f = lambda t, c=c: c[0] + c[1] * t + c[2] * t * t + c[3] * math.exp(t)
        pts = sorted(rng.uniform(0.0, 1.0) for _ in range(3))
        a, b, c2 = pts
        if b - a < 1e-3 or c2 - b < 1e-3:
            continue
        whole = integrate(f, a, c2)
        left = integrate(f, a, b)
        right = integrate(f, b, c2)
        slack = whole.err_estimate + left.err_estimate + right.err_estimate + 1e-14
        assert abs(whole.value - (left.value + right.value)) <= slack


GOLDEN_SUITE = (
    (lambda t: t * t, 0.0, 1.0, {}, 1.0 / 3.0),
    (lambda t: math.exp(t), 0.0, 1.0, {}, math.e - 1.0),
    (lambda t: t ** -0.5, 0.0, 1.0, {"left_exponent": -0.5}, 2.0),
    (lambda t: abs(t * (0.5 - t)), 0.0, 1.0, {"split_points": (0.5,)}, 0.125),
    (lambda t: t ** -0.7, 0.0, 1.0, {"left_exponent": -0.7}, 1.0 / 0.3),
)


def test_error_monotonicity_under_tolerance_halving():
    for f, lo, hi, extra, exact in GOLDEN_SUITE:
        prev = None
        abs_tol = 1e-6
        while abs_tol >= 1e-12:
            spec = QuadratureSpec(abs_tol=abs_tol, rel_tol=1e-13, **extra)
            err = abs(integrate(f, lo, hi, spec).value - exact)
            if prev is not None:
                assert err <= prev + 5e-16
            prev = err
            abs_tol *= 0.5


def test_subdivision_budget(monkeypatch):
    # an undeclared inverse-square-root end takes dozens of bisections at
    # a tolerance well above the rounding floor; a budget of 5 runs out
    f = lambda t: t ** -0.5
    full = integrate(f, 0.0, 1.0)
    assert full.value == pytest.approx(2.0, rel=1e-9) and full.subdivisions_used > 5
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 5)
    with pytest.raises(ToleranceNotMet, match="needed more than 5 subdivisions"):
        integrate(f, 0.0, 1.0)


def test_tolerance_below_rounding_floor_stops_at_once():
    # no panel error falls below 50*eps times its integral of |f|, so this
    # tolerance can never be met; the engine must say so, not bisect on
    evals = 0

    def f(t):
        nonlocal evals
        evals += 1
        return t * t

    with pytest.raises(ToleranceNotMet, match="rounding floor"):
        integrate(f, 0.0, 1.0, QuadratureSpec(abs_tol=1e-31, rel_tol=1e-31))
    assert evals < 100


def test_cancelling_integrand_stops_at_once():
    # the default tolerance asks for 1e-10 of the value 1e-3, far below
    # 50*eps of the integral of |f| (2.5e5); the engine used to bisect to
    # its 2000-subdivision budget, 60,015 evaluations
    evals = 0

    def f(t):
        nonlocal evals
        evals += 1
        return 1e6 * (t - 0.5) + 1e-3

    with pytest.raises(ToleranceNotMet, match=r"rounding floor 50\*eps\*int\|f\|"):
        integrate(f, 0.0, 1.0)
    assert evals < 100


def test_zero_integrand_meets_any_tolerance():
    res = integrate(lambda t: 0.0, 0.0, 1.0, QuadratureSpec(abs_tol=1e-31, rel_tol=1e-31))
    assert res.value == 0.0 and res.subdivisions_used == 0


def test_spec_for_quad_tol():
    spec = QuadratureSpec.for_quad_tol(1e-9, split_points=(0.5,), left_exponent=-0.5)
    assert (spec.abs_tol, spec.rel_tol) == (0.1 * 1e-9, 10.0 * 1e-9)
    assert spec.split_points == (0.5,) and spec.left_exponent == -0.5


def test_non_finite_sample():
    with pytest.raises(NonFiniteSample):
        integrate(lambda t: 1.0 / (t - 0.5) if t != 0.5 else float("inf"), 0.49999, 0.50001)


def test_invalid_specs():
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(left_exponent=-1.0)
    with pytest.raises(DomainError):
        integrate(lambda t: t, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(lambda t: t, 0.0, 1.0, QuadratureSpec(split_points=(2.0,)))


def test_panels_layout():
    f = lambda t: t
    # exponent -0.5 gives kappa = 2: g(u) = f(lo + u**2) * 2u on [0, width**0.5]
    (g0, lo0, hi0), (g1, lo1, hi1) = _panels(f, 0.0, 1.0, QuadratureSpec(
        split_points=(0.25,), left_exponent=-0.5))
    assert g0 is not f and (lo0, hi0) == (0.0, 0.5) and g0(0.5) == 0.25 * 2.0 * 0.5
    assert g1 is f and (lo1, hi1) == (0.25, 1.0)
    # both ends singular with no split: a midpoint split is inserted
    (g0, lo0, hi0), (g1, lo1, hi1) = _panels(f, 0.0, 1.0, QuadratureSpec(
        left_exponent=-0.5, right_exponent=-0.5))
    assert (lo0, hi0) == (lo1, hi1) == (0.0, 0.5 ** 0.5)
    assert g0(0.5) == 0.25 * 2.0 * 0.5 and g1(0.5) == 0.75 * 2.0 * 0.5
    # no structure: the one panel is f itself
    assert _panels(f, 0.0, 1.0, QuadratureSpec()) == [(f, 0.0, 1.0)]


def test_non_finite_sample_names_the_first_bad_node():
    nan = float("nan")
    with pytest.raises(NonFiniteSample, match=r"^integrand returned nan at 0\.5$"):
        integrate(lambda t: nan if t == 0.5 else 1.0, 0.0, 1.0)
    # a pair node only; the later inf does not win over it
    node = 0.5 + 0.5 * XGK[3]
    bad = {node: nan, 0.5 - 0.5 * XGK[5]: float("inf")}
    with pytest.raises(NonFiniteSample) as info:
        integrate(lambda t: bad.get(t, 1.0), 0.0, 1.0)
    assert str(info.value) == f"integrand returned a non-finite value at {node!r}"


def test_exception_at_a_later_node_wins_over_a_non_finite_sample():
    # every node of a panel is sampled before the one finiteness test
    def f(t):
        if t == 0.5 + 0.5 * XGK[6]:
            raise ZeroDivisionError("late node")
        return float("nan") if t == 0.5 - 0.5 * XGK[0] else 1.0
    with pytest.raises(ZeroDivisionError, match="late node"):
        integrate(f, 0.0, 1.0)


@pytest.mark.parametrize("f", [lambda t: 1e308, lambda t: 1e308 if t < 0.5 else -1e308])
def test_overflowing_integral_raises(f):
    # every sample is finite but the panel sums are not
    with pytest.raises(OverflowError, match="exceeds the double-precision range"):
        integrate(f, 0.0, 1.0)


def test_determinism():
    spec = QuadratureSpec(split_points=(0.3,), abs_tol=1e-13)
    r1 = integrate(lambda t: abs(t - 0.3) ** 1.5 * math.exp(t), 0.0, 1.0, spec)
    r2 = integrate(lambda t: abs(t - 0.3) ** 1.5 * math.exp(t), 0.0, 1.0, spec)
    assert r1 == r2
