"""Adaptive quadrature engine tests: rule exactness, golden integrals,
declared singularities, kink splitting and failure modes."""

import inspect
import math
import random

import numpy as np
import pytest

from phi_ineq import bounds, coefquad, fracint, quadrature, specfun, verify
from phi_ineq.convexity import PhiKernel
from phi_ineq.errors import DomainError, PhiIneqError, ToleranceNotMet
from phi_ineq.functions import registry
from phi_ineq.quadrature import (
    QUAD_TOL,
    WG,
    WGK,
    XGK,
    QuadResult,
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
        res = integrate(lambda t, k=k: t ** k, 0.0, 1.0, quad_tol=1e-13)
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
    res = integrate(lambda t: t ** -0.5, 0.0, 1.0, left_exponent=-0.5)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_declared_singularity_consistency():
    for alpha in (0.1, 0.5, 0.9):
        res = integrate(lambda t, a=alpha: t ** (a - 1.0), 0.0, 1.0, left_exponent=alpha - 1.0)
        assert res.value == pytest.approx(1.0 / alpha, rel=1e-10)


def test_both_ends_singular():
    # Beta(1/2, 1/2) integrand: pi
    res = integrate(lambda t: t ** -0.5 * (1.0 - t) ** -0.5, 0.0, 1.0,
                    left_exponent=-0.5, right_exponent=-0.5)
    assert res.value == pytest.approx(math.pi, rel=1e-11)


def test_kinked_abs_split():
    res = integrate(lambda t: abs(t * (0.5 - t)), 0.0, 1.0, split_points=(0.5,))
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
        quad_tol = 1e-6
        while quad_tol >= 1e-12:
            err = abs(integrate(f, lo, hi, quad_tol=quad_tol, **extra).value - exact)
            if prev is not None:
                assert err <= prev + 5e-16
            prev = err
            quad_tol *= 0.5


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
    # tolerance can never be met; the engine must say so after the first
    # panel, not bisect on
    evals = 0

    def f(t):
        nonlocal evals
        evals += 1
        return t * t

    with pytest.raises(ToleranceNotMet, match="rounding floor"):
        integrate(f, 0.0, 1.0, quad_tol=1e-30)
    assert evals == 15


def test_cancelling_integrand_stops_at_once():
    # the default tolerance asks for 1e-10 of the value 1e-3, far below
    # 50*eps of the integral of |f| (2.5e5); the engine used to bisect to
    # its 2000-subdivision budget, 60,015 evaluations; the floor exit fires
    # on the first panel, so an exit that forgot the initial panel's int|f|
    # would show as more than 15 evaluations
    evals = 0

    def f(t):
        nonlocal evals
        evals += 1
        return 1e6 * (t - 0.5) + 1e-3

    with pytest.raises(ToleranceNotMet, match=r"rounding floor 50\*eps\*int\|f\|"):
        integrate(f, 0.0, 1.0)
    assert evals == 15


def test_zero_integrand_meets_any_tolerance():
    res = integrate(lambda t: 0.0, 0.0, 1.0, quad_tol=1e-300)
    assert res.value == 0.0 and res.subdivisions_used == 0


@pytest.mark.parametrize("quad_tol", [None, 1e-9, 1e-30])
def test_quad_tol_sets_an_absolute_and_a_relative_tolerance(quad_tol):
    # quad_tol stands for an absolute tolerance of 0.1x and a relative one
    # of 10x, and no quad_tol means QUAD_TOL; the floor exit names both
    kwargs = {} if quad_tol is None else {"quad_tol": quad_tol}
    want = QUAD_TOL if quad_tol is None else quad_tol
    message = f"^tolerance \\(abs {0.1 * want:.1e}, rel {10.0 * want:.1e}\\) lies below"
    with pytest.raises(ToleranceNotMet, match=message):
        integrate(lambda t: 1e6 * (t - 0.5) + 1e-3, 0.0, 1.0, **kwargs)


def test_non_finite_sample():
    with pytest.raises(PhiIneqError):
        integrate(lambda t: 1.0 / (t - 0.5) if t != 0.5 else float("inf"), 0.49999, 0.50001)


QUAD_TOL_MESSAGE = "^quad_tol must be positive and finite, got {}$"


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_non_finite_tolerances_are_rejected(tol):
    # an infinite tolerance stopped every integral after its first panel;
    # the message is that of errors.RANGES
    with pytest.raises(DomainError, match=QUAD_TOL_MESSAGE.format(tol)):
        integrate(lambda t: t, 0.0, 1.0, quad_tol=tol)


def test_invalid_arguments():
    for tol in (0.0, -1.0):
        with pytest.raises(DomainError, match=QUAD_TOL_MESSAGE.format(tol)):
            integrate(lambda t: t, 0.0, 1.0, quad_tol=tol)
    with pytest.raises(DomainError, match="exceed -1"):
        integrate(lambda t: t, 0.0, 1.0, left_exponent=-1.0)
    with pytest.raises(DomainError, match="invalid integration interval"):
        integrate(lambda t: t, 1.0, 0.0)
    with pytest.raises(DomainError, match="not strictly inside"):
        integrate(lambda t: t, 0.0, 1.0, split_points=(2.0,))


def test_panels_layout():
    f = lambda t: t
    # exponent -0.5 gives kappa = 2: g(u) = f(lo + u**2) * 2u on [0, width**0.5]
    (g0, lo0, hi0), (g1, lo1, hi1) = _panels(f, 0.0, 1.0, (0.25,), -0.5, 0.0)
    assert g0 is not f and (lo0, hi0) == (0.0, 0.5) and g0(0.5) == 0.25 * 2.0 * 0.5
    assert g1 is f and (lo1, hi1) == (0.25, 1.0)
    # both ends singular with no split: a midpoint split is inserted
    (g0, lo0, hi0), (g1, lo1, hi1) = _panels(f, 0.0, 1.0, (), -0.5, -0.5)
    assert (lo0, hi0) == (lo1, hi1) == (0.0, 0.5 ** 0.5)
    assert g0(0.5) == 0.25 * 2.0 * 0.5 and g1(0.5) == 0.75 * 2.0 * 0.5
    # no structure: the one panel is f itself
    assert _panels(f, 0.0, 1.0, (), 0.0, 0.0) == [(f, 0.0, 1.0)]


def test_graded_end_layout():
    f = lambda t: t
    # a positive non-integer exponent gives kappa = 3: g(u) = f(lo + u**3) * 3u**2
    # on [0, width**(1/3)]
    ((g, lo, hi),) = _panels(f, 1.0, 9.0, (), 1.5, 0.0)
    assert (lo, hi) == (0.0, 2.0) and g(0.5) == (1.0 + 0.5 ** 3.0) * 3.0 * 0.5 ** 2.0
    ((g, lo, hi),) = _panels(f, 1.0, 9.0, (), 0.0, 0.25)
    assert (lo, hi) == (0.0, 2.0) and g(0.5) == (9.0 - 0.5 ** 3.0) * 3.0 * 0.5 ** 2.0
    # an integer exponent declares a smooth end
    for e in (1.0, 2.0, 7.0):
        assert _panels(f, 0.0, 1.0, (), e, e) == [(f, 0.0, 1.0)]


def test_non_finite_exponent_rejected():
    for e in (math.nan, math.inf):
        with pytest.raises(DomainError, match="^endpoint exponents must be finite and exceed -1"):
            integrate(lambda t: t, 0.0, 1.0, left_exponent=e)
        with pytest.raises(DomainError, match="^endpoint exponents must be finite and exceed -1"):
            integrate(lambda t: t, 0.0, 1.0, right_exponent=e)


@pytest.mark.parametrize("e", (0.1, 0.5, 1.5, 2.5))
def test_graded_end_is_accurate_and_cheaper(e):
    # int_0^1 t**e * (1 + t) dt, with the end at 0 declared and not
    f = lambda t: t ** e * (1.0 + t)
    want = 1.0 / (e + 1.0) + 1.0 / (e + 2.0)
    plain = integrate(f, 0.0, 1.0, quad_tol=1e-12)
    res = integrate(f, 0.0, 1.0, quad_tol=1e-12, left_exponent=e)
    assert res.value == pytest.approx(want, rel=1e-12, abs=0.0)
    assert res.subdivisions_used < plain.subdivisions_used


# Integrand evaluations of integrals whose ends are graded, as
# (case, module whose integrate is counted, call, evaluations measured
# with the grading).  Each bound, 1.25x the measured count, lies below the
# count of the same call with the non-smooth end undeclared (in order:
# 945, 675, 315, 840, 870 and 300), so a change that loses the grading
# fails here on any machine.
EVAL_BUDGETS = [
    *[(f"rl_left exp alpha={alpha}", fracint,
       lambda alpha=alpha: fracint.rl_left(math.exp, 0.0, alpha, 1.0), count)
      for alpha, count in ((1.05, 195), (1.5, 105), (2.5, 45))],
    ("A3 power(0.5) alpha=1.5 lam=0.3", coefquad,
     lambda: coefquad.coef_integral("A3", 1.5, 0.3, PhiKernel.power(0.5)), 210),
    ("B p=1.5 alpha=2.5 lam=0.3", coefquad,
     lambda: coefquad.coef_integral("B", 2.5, 0.3, p=1.5), 660),
    ("identity_rhs exp alpha=1.5", bounds,
     lambda: bounds.identity_rhs(registry()["exp(t)"], bounds.EvalParams(
         fracint.Interval(0.0, 1.0), x=0.3, lam=0.4, alpha=1.5)), 120),
]


@pytest.mark.parametrize("name, module, call, count", EVAL_BUDGETS,
                         ids=[case[0] for case in EVAL_BUDGETS])
def test_graded_ends_bound_the_evaluation_count(name, module, call, count, monkeypatch):
    evals = [0]

    def counting_integrate(f, lo, hi, **kwargs):
        def counted(t):
            evals[0] += 1
            return f(t)
        return integrate(counted, lo, hi, **kwargs)

    monkeypatch.setattr(module, "integrate", counting_integrate)
    coefquad._cached.cache_clear()
    call()
    assert 0 < evals[0] <= 1.25 * count


_EXP = registry()["exp(t)"]
_PARAMS = bounds.EvalParams(fracint.Interval(0.0, 1.0), x=0.3, lam=0.4, alpha=1.5)

# (case, module whose integrate is recorded, call, the quad_tol it must
# pass); 1e-9 is not the default, so a quad_tol dropped on its way shows
QUAD_TOL_ROUTES = [
    ("identity_rhs", bounds, lambda: bounds.identity_rhs(_EXP, _PARAMS, quad_tol=1e-9), 1e-9),
    ("coef_integral B", coefquad,
     lambda: coefquad.coef_integral("B", 2.5, 0.3, p=1.5, quad_tol=1e-9), 1e-9),
    ("coef_integral A2 MT", coefquad,
     lambda: coefquad.coef_integral("A2", 1.5, 0.3, PhiKernel.mt(), quad_tol=1e-9), 1e-9),
    ("rl_left", fracint, lambda: fracint.rl_left(math.exp, 0.0, 1.5, 1.0, quad_tol=1e-9), 1e-9),
    ("rl_right", fracint, lambda: fracint.rl_right(math.exp, 1.0, 1.5, 0.0, quad_tol=1e-9),
     1e-9),
    ("hermite_hadamard_check", verify,
     lambda: verify.hermite_hadamard_check(_EXP, quad_tol=1e-9), 1e-9),
    ("incomplete_beta", specfun, lambda: specfun.incomplete_beta(0.5, 2.0, -0.5), QUAD_TOL),
]


@pytest.mark.parametrize("name, module, call, quad_tol", QUAD_TOL_ROUTES,
                         ids=[case[0] for case in QUAD_TOL_ROUTES])
def test_every_quad_tol_reaches_its_integral(name, module, call, quad_tol, monkeypatch):
    passed = []
    signature = inspect.signature(integrate)

    def recording_integrate(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        passed.append(bound.arguments["quad_tol"])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(module, "integrate", recording_integrate)
    coefquad._cached.cache_clear()
    call()
    assert passed and set(passed) == {quad_tol}


def test_non_finite_sample_names_the_first_bad_node():
    nan = float("nan")
    with pytest.raises(PhiIneqError, match=r"^integrand returned nan at 0\.5$"):
        integrate(lambda t: nan if t == 0.5 else 1.0, 0.0, 1.0)
    # a pair node only; the later inf does not win over it
    node = 0.5 + 0.5 * XGK[3]
    bad = {node: nan, 0.5 - 0.5 * XGK[5]: float("inf")}
    with pytest.raises(PhiIneqError) as info:
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
    r1 = integrate(lambda t: abs(t - 0.3) ** 1.5 * math.exp(t), 0.0, 1.0, split_points=(0.3,))
    r2 = integrate(lambda t: abs(t - 0.3) ** 1.5 * math.exp(t), 0.0, 1.0, split_points=(0.3,))
    assert r1 == r2


def _reference_integrate(f, lo, hi, ties, quad_tol=QUAD_TOL, split_points=(),
                         left_exponent=0.0, right_exponent=0.0):
    """The adaptive loop as a list scanned with max(): the worst panel by
    error, ties to the oldest.  ``ties`` counts the picks among equal
    errors.  integrate must bisect the same panels and return the same
    result."""
    lo = float(lo)
    hi = float(hi)
    abs_tol = 0.1 * quad_tol
    rel_tol = 10.0 * quad_tol
    panels = []
    seq = 0
    mass = 0.0
    for g, u_lo, u_hi in quadrature._panels(f, lo, hi, split_points, left_exponent,
                                            right_exponent):
        value, err, resabs = quadrature._gk15(g, u_lo, u_hi)
        panels.append([err, seq, g, u_lo, u_hi, value, resabs])
        mass += resabs
        seq += 1
    n_bisect = 0
    while True:
        total = math.fsum(p[5] for p in panels)
        total_err = math.fsum(p[0] for p in panels)
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
            return QuadResult(total, total_err, n_bisect)
        if tol < quadrature._ROUNDING_FLOOR * mass:
            raise ToleranceNotMet(
                f"tolerance (abs {abs_tol:.1e}, rel {rel_tol:.1e}) lies below "
                f"the rounding floor 50*eps*int|f| (error estimate {total_err:.3e}, "
                f"value {total:.6e})"
            )
        if n_bisect >= quadrature.MAX_SUBDIVISIONS:
            raise ToleranceNotMet(
                f"needed more than {quadrature.MAX_SUBDIVISIONS} subdivisions "
                f"(error estimate {total_err:.3e}, value {total:.6e})"
            )
        worst = max(panels, key=lambda p: (p[0], -p[1]))
        ties[0] += sum(p[0] == worst[0] for p in panels) > 1
        panels.remove(worst)
        _, _, g, a, b, _, resabs = worst
        mid = 0.5 * (a + b)
        v1, e1, r1 = quadrature._gk15(g, a, mid)
        v2, e2, r2 = quadrature._gk15(g, mid, b)
        mass += r1 + r2 - resabs
        panels.append([e1, seq, g, a, mid, v1, r1])
        seq += 1
        panels.append([e2, seq, g, mid, b, v2, r2])
        seq += 1
        n_bisect += 1


def _rl_integrand(alpha):
    return lambda tau: tau ** (alpha - 1.0) * math.exp(0.8 - tau)


# a relative tolerance of 1.05x the rounding floor, with an absolute one of
# a hundredth of that, which these integrals of about 1 never reach
_FLOOR_TOL = dict(quad_tol=0.105 * quadrature._ROUNDING_FLOOR)

# (name, f, lo, hi, integrate keywords, subdivision budget or None)
DIFFERENTIAL_BATTERY = [
    ("smooth", lambda t: math.exp(-t) * math.cos(5.0 * t), 0.0, 3.0, {}, None),
    ("oscillating", lambda t: t * math.sin(40.0 * t), 0.0, 3.0, {}, None),
    ("kink split", lambda t: abs(t * (0.4 - t ** 1.7)), 0.0, 1.0,
     dict(split_points=(0.4 ** (1.0 / 1.7),)), None),
    ("undeclared kink", lambda t: abs(t * (0.4 - t ** 1.7)), 0.0, 1.0, {}, None),
    ("MT ends", lambda t: t ** 1.3 * 0.5 / (math.sqrt(t) * math.sqrt(1.0 - t)), 0.0, 1.0,
     dict(left_exponent=-0.5, right_exponent=-0.5), None),
    ("MT ends split", lambda t: abs(0.3 - t) * 0.5 / (math.sqrt(t) * math.sqrt(1.0 - t)),
     0.0, 1.0, dict(left_exponent=-0.5, right_exponent=-0.5, split_points=(0.3,)), None),
    *[(f"RL alpha={alpha}", _rl_integrand(alpha), 0.0, 0.7,
       dict(left_exponent=alpha - 1.0 if alpha < 1.0 else 0.0), None)
      for alpha in (0.3, 1.3, 2.7)],
    *[(f"RL alpha={alpha} graded", _rl_integrand(alpha), 0.0, 0.7,
       dict(left_exponent=alpha - 1.0), None) for alpha in (1.3, 2.7)],
    ("RL alpha=0.3 undeclared", _rl_integrand(0.3), 0.0, 0.7, {}, None),
    *[(f"linear kink {kink}", lambda t, k=kink: 1.0 + max(0.0, t - k), 0.0, 1.0,
       _FLOOR_TOL, None) for kink in (0.7, 0.8, 0.9)],
    ("linear mirror", lambda t: 1.0 + max(0.0, abs(t) - 0.7), -1.0, 1.0, _FLOOR_TOL, None),
    ("np exp", lambda t: np.exp(np.float64(t) * 3.0) - 2.0, 0.0, 1.0, {}, None),
    ("np exp peak", lambda t: np.exp(-30.0 * np.float64(t) ** 2), -1.0, 2.0, {}, None),
    ("np exp large", lambda t: np.exp(np.float64(t)), 0.0, 700.0, {}, None),
    ("np exp overflow", lambda t: np.exp(np.float64(t)), 0.0, 800.0, {}, None),
    ("below the floor", lambda t: 1e6 * (t - 0.5) + 1e-3, 0.0, 1.0, {}, None),
    ("budget", lambda t: t ** -0.5, 0.0, 1.0, {}, 5),
]


def _outcome(run):
    try:
        return run()
    except (PhiIneqError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name, f, lo, hi, hints, budget", DIFFERENTIAL_BATTERY,
                         ids=[case[0] for case in DIFFERENTIAL_BATTERY])
def test_integrate_matches_the_reference_loop(name, f, lo, hi, hints, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", budget)
    gk15 = quadrature._gk15
    calls = []

    def recorded(g, a, b):
        calls.append((a, b))
        result = gk15(g, a, b)
        calls.append(result)
        return result

    monkeypatch.setattr(quadrature, "_gk15", recorded)
    ties = [0]
    with np.errstate(all="ignore"):
        expected = _outcome(lambda: _reference_integrate(f, lo, hi, ties, **hints))
        expected_calls = calls[:]
        calls.clear()
        got = _outcome(lambda: integrate(f, lo, hi, **hints))
    assert got == expected
    assert calls == expected_calls
    if name.startswith("linear"):
        # the case exists to break ties between equal panel errors
        assert ties[0] > 0
