"""Expression grammar, symbolic derivatives and the registry."""

import math

import numpy as np
import pytest

from phi_ineq.cli import main
from phi_ineq.errors import DomainError
from phi_ineq.fracint import Interval
from phi_ineq.functions import (
    SMOOTH_BATTERY,
    TestFunction as Fn,
    parse_expression,
    registry,
    resolve_function,
)


T_FLOAT = (0.3, 0.77, 1.4)
T_ARRAY = np.array(T_FLOAT)


def _assert_evaluates(node, ref, rel):
    # on floats, and on an array, where a constant may stay a float
    for t in T_FLOAT:
        assert float(node.eval(t)) == pytest.approx(ref(t), rel=rel, abs=0.0)
    got = np.broadcast_to(node.eval(T_ARRAY), T_ARRAY.shape)
    np.testing.assert_allclose(got, np.broadcast_to(ref(T_ARRAY), T_ARRAY.shape),
                               rtol=rel, atol=0.0)


E = math.e


def test_parse_and_eval():
    # the last nine are corners of the grammar: a bare constant, unary
    # minus, a high power, constants under exp and ln, and a t that
    # multiplies by 0
    cases = {
        "t": lambda t: t,
        "t^2": lambda t: t ** 2,
        "2*t^3 - t": lambda t: 2 * t ** 3 - t,
        "exp(t)": np.exp,
        "-ln(t)": lambda t: -np.log(t),
        "1 + 0.5*t": lambda t: 1 + 0.5 * t,
        "exp(2*t)": lambda t: np.exp(2 * t),
        "(t + 1)^2": lambda t: (t + 1) ** 2,
        "--t": lambda t: t,
        "3": lambda t: 3.0,
        "-t^2": lambda t: -t ** 2,
        "t^7": lambda t: t ** 7,
        "exp(2*t) - ln(t+1)": lambda t: np.exp(2 * t) - np.log(t + 1),
        "exp(1)*t^2": lambda t: E * t ** 2,
        "ln(2)": lambda t: math.log(2),
        "exp(0*t) + t": lambda t: 1 + t,
        "exp(1)^2*t^3": lambda t: E ** 2 * t ** 3,
        "ln(exp(1))*t": lambda t: t,
    }
    for src, ref in cases.items():
        _assert_evaluates(parse_expression(src), ref, 1e-14)


def test_symbolic_derivatives():
    # (f', f'') of each source
    cases = {
        "t^4": (lambda t: 4 * t ** 3, lambda t: 12 * t ** 2),
        "exp(t)": (np.exp, np.exp),
        "-ln(t)": (lambda t: -1.0 / t, lambda t: 1.0 / t ** 2),
        "2*t^3 - t": (lambda t: 6 * t ** 2 - 1, lambda t: 12 * t),
        "exp(2*t)": (lambda t: 2 * np.exp(2 * t), lambda t: 4 * np.exp(2 * t)),
        "ln(t^2)": (lambda t: 2.0 / t, lambda t: -2.0 / t ** 2),
        "3": (lambda t: 0.0, lambda t: 0.0),
        "-t^2": (lambda t: -2 * t, lambda t: -2.0),
        "t^7": (lambda t: 7 * t ** 6, lambda t: 42 * t ** 5),
        "exp(2*t) - ln(t+1)": (lambda t: 2 * np.exp(2 * t) - 1 / (t + 1),
                               lambda t: 4 * np.exp(2 * t) + 1 / (t + 1) ** 2),
        "exp(1)*t^2": (lambda t: 2 * E * t, lambda t: 2 * E),
        "ln(2)": (lambda t: 0.0, lambda t: 0.0),
        "exp(0*t) + t": (lambda t: 1.0, lambda t: 0.0),
        "exp(1)^2*t^3": (lambda t: 3 * E ** 2 * t ** 2, lambda t: 6 * E ** 2 * t),
        "ln(exp(1))*t": (lambda t: 1.0, lambda t: 0.0),
    }
    for src, (ref1, ref2) in cases.items():
        d1 = parse_expression(src).diff()
        _assert_evaluates(d1, ref1, 1e-12)
        _assert_evaluates(d1.diff(), ref2, 1e-12)


def test_parse_errors():
    # the last eight: a number needs an ASCII digit (float() read a lone
    # "."), and an exponent is ASCII digits (str.isdigit accepts "²" and
    # "٣") that a float can hold
    for bad in ("u", "t^", "t^-2", "t^ x", "sin(t)", "t +", "(t", "t^2.5", "2t", "",
                ".", "t+.", "..5", "²", "t^²", "t^1" + "0" * 400, "t^٣", "٣*t"):
        with pytest.raises(DomainError, match="cannot parse function expression"):
            parse_expression(bad)


def test_testfunction_derivative_invariant():
    fn = Fn.from_expression("t^3", Interval(0.0, 1.0))
    assert fn.name == "t^3"
    assert fn.f1(0.5) == pytest.approx(0.75)
    assert fn.f2(0.5) == pytest.approx(3.0)
    # derivatives are trusted; non-finite values inside the domain are not
    with pytest.raises(DomainError, match="non-finite"):
        Fn("broken", f=lambda t: t ** 3, f1=lambda t: 3 * t ** 2,
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


@pytest.mark.parametrize("argv, row", [
    (["--fn", "exp(1)*t^2"], "exp(1)*t^2,constant,T1,"),
    (["--fn", "exp(1)*t^2", "--kernel", "power", "--s", "0.5", "--theorem", "t2",
      "--q", "2"], "exp(1)*t^2,power(0.5),T2,"),
    (["--theorem", "hh", "--fn", "exp(1)"], "exp(1),,HH,"),
    (["--theorem", "hh", "--fn", "ln(2)"], "ln(2),,HH,"),
])
def test_constant_second_derivative_through_the_gate(argv, row, capsys):
    # f'' of exp(1)*t^2 is exp(1)*2, which never reads t: the convexity
    # gate samples it on arrays and needs an array back
    assert main(["verify", *argv]) == 0
    out = capsys.readouterr().out
    assert row in out and out.rstrip().endswith(",true,PASS")


def test_non_finite_constant_is_a_usage_error(capsys):
    # 1e400 parses to inf, so f is infinite everywhere: the function is
    # rejected before any check runs
    assert main(["verify", "--fn", "1" + "0" * 400 + "*t^3"]) == 2
    assert "non-finite value inside the domain" in capsys.readouterr().err


def test_a_line_break_in_an_expression_is_a_usage_error(capsys):
    # only spaces and tabs separate tokens: a line break used to be
    # skipped, and the function name then split its CSV row in three
    assert main(["verify", "--fn", "t^2\n+ t"]) == 2
    assert capsys.readouterr() == ("", "usage error: cannot parse function expression "
                                       "'t^2\\n+ t': unexpected trailing input at position 3\n")
    assert main(["verify", "--fn", "t^2\t+ t"]) == 0


def test_exp_and_ln_of_a_float_are_builtin_floats_with_numpy_bits():
    # the quadrature's sums over an exp or ln integrand run in builtin
    # float arithmetic; the bits are numpy's
    fn = Fn.from_expression("exp(2*t) - ln(t+1)", Interval(0.0, 1.0))
    for g, ref in ((fn.f, lambda t: np.exp(2 * t) - np.log(t + 1)),
                   (fn.f2, lambda t: 4 * np.exp(2 * t) + 1 / (t + 1) ** 2)):
        for t in (0.1, 0.37, 0.9):
            assert type(g(t)) is float and g(t) == float(ref(t))
    grid = np.linspace(0.0, 1.0, 5)
    assert isinstance(fn.f(grid), np.ndarray)


@pytest.mark.parametrize("source", ["(exp(exp(5)))^5", "exp(t)^2000"])
def test_an_overflowing_builtin_power_is_non_finite(source):
    # a builtin float power raises OverflowError where numpy's gave inf
    with pytest.raises(DomainError, match="non-finite value inside the domain"):
        Fn.from_expression(source, Interval(0.0, 1.0))
