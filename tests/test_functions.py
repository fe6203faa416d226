"""Expression grammar, symbolic derivatives and the registry."""

import math

import pytest

from phi_ineq.errors import DomainError
from phi_ineq.fracint import Interval
from phi_ineq.functions import (
    SMOOTH_BATTERY,
    TestFunction,
    parse_expression,
    registry,
    resolve_function,
)


def test_parse_and_eval():
    cases = {
        "t": lambda t: t,
        "t^2": lambda t: t ** 2,
        "2*t^3 - t": lambda t: 2 * t ** 3 - t,
        "exp(t)": math.exp,
        "-ln(t)": lambda t: -math.log(t),
        "1 + 0.5*t": lambda t: 1 + 0.5 * t,
        "exp(2*t)": lambda t: math.exp(2 * t),
        "(t + 1)^2": lambda t: (t + 1) ** 2,
        "--t": lambda t: t,
    }
    for src, ref in cases.items():
        ast = parse_expression(src)
        for t in (0.3, 0.77, 1.4):
            assert float(ast.eval(t)) == pytest.approx(ref(t), rel=1e-14)


def test_symbolic_derivatives():
    cases = {
        "t^4": lambda t: 4 * t ** 3,
        "exp(t)": math.exp,
        "-ln(t)": lambda t: -1.0 / t,
        "2*t^3 - t": lambda t: 6 * t ** 2 - 1,
        "exp(2*t)": lambda t: 2 * math.exp(2 * t),
        "ln(t^2)": lambda t: 2.0 / t,
    }
    for src, ref in cases.items():
        d = parse_expression(src).diff()
        for t in (0.4, 0.9, 1.7):
            assert float(d.eval(t)) == pytest.approx(ref(t), rel=1e-12)


def test_parse_errors():
    for bad in ("u", "t^", "t^-2", "t^ x", "sin(t)", "t +", "(t", "t^2.5", "2t", ""):
        with pytest.raises(DomainError):
            parse_expression(bad)


def test_testfunction_derivative_invariant():
    fn = TestFunction.from_expression("cube", "t^3", Interval(0.0, 1.0))
    assert fn.f1(0.5) == pytest.approx(0.75)
    assert fn.f2(0.5) == pytest.approx(3.0)
    # derivatives are trusted; non-finite values inside the domain are not
    with pytest.raises(DomainError, match="non-finite"):
        TestFunction("broken", f=lambda t: t ** 3, f1=lambda t: 3 * t ** 2,
                     f2=lambda t: math.nan, domain=Interval(0.0, 1.0))


@pytest.mark.parametrize("name", list(registry()))
def test_registry_derivatives_match_differences(name):
    # central differences of f and f' against f' and f'' at interior points
    fn = registry()[name]
    a, b = fn.domain.a, fn.domain.b
    h = 1e-5 * (b - a)
    for u in (a + 0.1 * (b - a), 0.5 * (a + b), b - 0.1 * (b - a)):
        fd1 = (fn.f(u + h) - fn.f(u - h)) / (2.0 * h)
        fd2 = (fn.f1(u + h) - fn.f1(u - h)) / (2.0 * h)
        assert fd1 == pytest.approx(fn.f1(u), rel=1e-7, abs=1e-7)
        assert fd2 == pytest.approx(fn.f2(u), rel=1e-7, abs=1e-7)


def test_tiny_interval_is_accepted():
    # differences with h = 1e-6 * (b - a) used to reject exact symbolic
    # derivatives here as "first derivative inconsistent"
    fn = resolve_function("exp(t)", 0.0, 1e-6)
    assert (fn.domain.a, fn.domain.b) == (0.0, 1e-6)
    assert float(fn.f2(5e-7)) == pytest.approx(math.exp(5e-7), rel=1e-15)


def test_registry_contents():
    reg = registry()
    assert set(SMOOTH_BATTERY) <= set(reg)
    assert "sqrt_control" in reg and "t" in reg
    control = reg["sqrt_control"]
    assert control.f2(0.25) == pytest.approx(0.5)
    neg_log = reg["-ln(t)"]
    assert (neg_log.domain.a, neg_log.domain.b) == (0.5, 2.0)
    assert neg_log.f2(0.5) == pytest.approx(4.0)


def test_resolve_function():
    assert resolve_function("t^3") is registry()["t^3"]
    fn = resolve_function("t^3", a=0.0, b=2.0)
    assert fn.domain.b == 2.0
    fn = resolve_function("3*t^2", a=0.0, b=1.0)
    assert fn.f(2.0) == pytest.approx(12.0)
    assert fn.f1(1.0) == pytest.approx(6.0)
