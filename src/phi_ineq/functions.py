"""Twice-differentiable test functions with exact derivatives.

A :class:`TestFunction` bundles (f, f', f'') on an interval.  Functions
can come from the built-in registry or from a small expression grammar --
polynomials in t, exp(...), ln(...), scalar multiples, sums and integer
powers -- whose derivatives are computed symbolically, so they are exact
at any scale of the interval.

f, f' and f'' of a parsed expression are the ``eval`` of its tree and of
its two derivatives, with numpy's exp and log: a float t gives a builtin
float (numpy's bits), an array t an array, and a constant a float either
way (so does f'' of ``exp(1)*t^2``), which the convexity gate broadcasts
onto its grid.  At a float t an integer power that overflows raises
OverflowError and a division by zero ZeroDivisionError, as builtin floats
do.
``diff`` shares subtrees, so a walk of f'' grows with the cube of a
product's length; ``MAX_NODES`` and ``MAX_DEPTH`` bound the walk.

Grammar examples: ``t^2``, ``2*t^3 - t``, ``exp(t)``, ``-ln(t)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .fracint import Interval


class _Const:
    def __init__(self, v):
        self.v = float(v)

    def eval(self, t):
        return self.v

    def diff(self):
        return _Const(0.0)


class _Var:
    def eval(self, t):
        return t

    def diff(self):
        return _Const(1.0)


class _Add:
    def __init__(self, u, v):
        self.u, self.v = u, v

    def eval(self, t):
        return self.u.eval(t) + self.v.eval(t)

    def diff(self):
        return _add(self.u.diff(), self.v.diff())


class _Mul:
    def __init__(self, u, v):
        self.u, self.v = u, v

    def eval(self, t):
        return self.u.eval(t) * self.v.eval(t)

    def diff(self):
        return _add(_mul(self.u.diff(), self.v), _mul(self.u, self.v.diff()))


class _Pow:
    def __init__(self, base, n):
        self.base, self.n = base, int(n)

    def eval(self, t):
        return self.base.eval(t) ** self.n

    def diff(self):
        return _mul(_mul(_Const(self.n), _pow(self.base, self.n - 1)), self.base.diff())


def _builtin(v):
    """numpy's exp or log of a scalar as a builtin float with the same
    bits, so the quadrature's sums over it run in builtin arithmetic; an
    array passes through."""
    return v if type(v) is np.ndarray else float(v)


class _Exp:
    def __init__(self, arg):
        self.arg = arg

    def eval(self, t):
        return _builtin(np.exp(self.arg.eval(t)))

    def diff(self):
        return _mul(self, self.arg.diff())


class _Ln:
    def __init__(self, arg):
        self.arg = arg

    def eval(self, t):
        return _builtin(np.log(self.arg.eval(t)))

    def diff(self):
        return _mul(_Inv(self.arg), self.arg.diff())


class _Inv:
    """1 / arg, used only by derivatives of ln."""

    def __init__(self, arg):
        self.arg = arg

    def eval(self, t):
        return 1.0 / self.arg.eval(t)

    def diff(self):
        return _mul(_Const(-1.0), _mul(_mul(self, self), self.arg.diff()))


def _is_const(e, v=None):
    return isinstance(e, _Const) and (v is None or e.v == v)


def _add(u, v):
    if _is_const(u) and _is_const(v):
        return _Const(u.v + v.v)
    if _is_const(u, 0.0):
        return v
    if _is_const(v, 0.0):
        return u
    return _Add(u, v)


def _mul(u, v):
    if _is_const(u) and _is_const(v):
        return _Const(u.v * v.v)
    if _is_const(u, 0.0) or _is_const(v, 0.0):
        return _Const(0.0)
    if _is_const(u, 1.0):
        return v
    if _is_const(v, 1.0):
        return u
    return _Mul(u, v)


def _pow(base, n):
    if n == 0:
        return _Const(1.0)
    if n == 1:
        return base
    if _is_const(base):
        return _Const(base.v ** n)
    return _Pow(base, n)


# numbers and exponents are ASCII digits: str.isdigit also accepts '²' and '٣'
_INTEGER = re.compile(r"0*([0-9]+)")  # no leading zeros in group 1
_NUMBER = re.compile(r"[0-9]+\.?[0-9]*|\.[0-9]+")


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := unary ('*' unary)*; unary := ('-'|'+')* power;
    power := atom ('^' INT)?; atom := NUMBER | 't' | exp(expr) | ln(expr) | (expr);
    tokens are separated by spaces and tabs only, never a line break."""

    def __init__(self, src):
        self.src = src
        self.pos = 0

    def error(self, msg):
        raise DomainError(f"cannot parse function expression {self.src!r}: {msg}")

    def peek(self):
        while self.pos < len(self.src) and self.src[self.pos] in " \t":
            self.pos += 1
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r} at position {self.pos}")
        self.pos += 1

    def parse(self):
        e = self.expr()
        if self.peek():
            self.error(f"unexpected trailing input at position {self.pos}")
        return e

    def expr(self):
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            e = _add(e, rhs if op == "+" else _mul(_Const(-1.0), rhs))
        return e

    def term(self):
        e = self.unary()
        while self.peek() == "*":
            self.pos += 1
            e = _mul(e, self.unary())
        return e

    def unary(self):
        sign = 1.0
        while self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        e = self.power()
        return e if sign > 0 else _mul(_Const(-1.0), e)

    def power(self):
        e = self.atom()
        if self.peek() == "^":
            self.pos += 1
            n = self.integer()
            e = _pow(e, n)
        return e

    def integer(self):
        self.peek()  # skip spaces and tabs
        m = _INTEGER.match(self.src, self.pos)
        if not m:
            self.error(f"expected a nonnegative integer exponent at position {self.pos}")
        if float(m[1]) == math.inf:
            self.error(f"exponent at position {self.pos} is too large for a float")
        self.pos = m.end()
        return int(m[1])

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        m = _NUMBER.match(self.src, self.pos)
        if m:
            self.pos = m.end()
            return _Const(float(m.group()))
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.src) and self.src[self.pos].isalpha():
                self.pos += 1
            name = self.src[start:self.pos]
            if name == "t":
                return _Var()
            if name in ("exp", "ln"):
                self.take("(")
                arg = self.expr()
                self.take(")")
                return _Exp(arg) if name == "exp" else _Ln(arg)
            self.error(f"unknown identifier {name!r}")
        self.error(f"unexpected character {ch!r} at position {self.pos}")


# Every expression in the tests, the README and the benchmark has fewer than
# 100 nodes in f, f' and f'' together; a product of 24 factors has 9,797.
MAX_NODES = 10_000
# eval recurses once per level; the other half of the default recursion limit is the checks'
MAX_DEPTH = 500


def _size(trees):
    """(nodes, depth) of a walk of ``trees``, which visits a shared subtree
    once per use; counted without recursion, and only to past MAX_NODES."""
    nodes = depth = 0
    stack = [(tree, 1) for tree in trees]
    while stack and nodes <= MAX_NODES:
        node, level = stack.pop()
        nodes, depth = nodes + 1, max(depth, level)
        if not isinstance(node, _Const):  # whose v is a value, not a subtree
            stack.extend((getattr(node, k), level + 1)
                         for k in ("u", "v", "base", "arg") if hasattr(node, k))
    return nodes, depth


def parse_expression(src):
    """Parse an expression string into an evaluable AST node."""
    return _Parser(src).parse()


@dataclass(frozen=True)
class TestFunction:
    """A scalar function with exact first and second derivatives.

    Construction checks that f, f' and f'' are finite at seven points
    inside the domain, which rejects an expression such as ``ln(t)`` on an
    interval reaching t <= 0.  The derivatives themselves are trusted:
    parsed expressions are differentiated symbolically, and the registry's
    hand-written ``sqrt_control`` is checked in the tests."""

    name: str
    f: Callable
    f1: Callable
    f2: Callable
    domain: Interval

    def __post_init__(self):
        a, b = self.domain.a, self.domain.b
        for u in np.linspace(a + 0.07 * (b - a), b - 0.07 * (b - a), 7):
            try:
                finite = all(np.isfinite(g(u)) for g in (self.f, self.f1, self.f2))
            except (OverflowError, ZeroDivisionError):  # builtin float arithmetic
                finite = False
            if not finite:
                raise DomainError(f"{self.name}: non-finite value inside the domain at t={u:g}")

    @classmethod
    def from_expression(cls, source, domain):
        """The function of an expression string on an Interval, named by
        its source: the ``eval`` of its tree and of its two derivatives.
        One nested too deeply or too large to walk is a DomainError."""
        short = source if len(source) <= 40 else source[:37] + "..."
        deep = DomainError(f"function expression {short!r} is nested too deeply")
        try:
            ast = parse_expression(source)
            d1 = ast.diff()
            d2 = d1.diff()
        except RecursionError:
            raise deep from None
        nodes, depth = _size((ast, d1, d2))
        if nodes > MAX_NODES:
            raise DomainError(f"function expression {short!r} is too large: f, f' and f'' "
                              f"have more than {MAX_NODES} nodes together")
        if depth > MAX_DEPTH:
            raise deep
        return cls(name=source, f=ast.eval, f1=d1.eval, f2=d2.eval, domain=domain)


def _sqrt_control():
    # f''(t) = sqrt(t): concave, so |f''|^1 fails the classical convexity
    # gate while |f''|^2 = t passes it.
    return TestFunction(
        name="sqrt_control",
        f=lambda t: (4.0 / 15.0) * t ** 2.5,
        f1=lambda t: (2.0 / 3.0) * t ** 1.5,
        f2=lambda t: t ** 0.5,
        domain=Interval(0.0, 1.0),
    )


_REGISTRY: dict[str, TestFunction] | None = None

# The five smooth entries used by the identity battery.
SMOOTH_BATTERY = ("t^2", "t^3", "t^4", "exp(t)", "-ln(t)")


def registry():
    """Built-in named test functions (insertion order is deterministic)."""
    global _REGISTRY
    if _REGISTRY is None:
        unit = Interval(0.0, 1.0)
        _REGISTRY = {
            "t": TestFunction.from_expression("t", unit),
            "t^2": TestFunction.from_expression("t^2", unit),
            "t^3": TestFunction.from_expression("t^3", unit),
            "t^4": TestFunction.from_expression("t^4", unit),
            "exp(t)": TestFunction.from_expression("exp(t)", unit),
            "-ln(t)": TestFunction.from_expression("-ln(t)", Interval(0.5, 2.0)),
            "sqrt_control": _sqrt_control(),
        }
    return _REGISTRY


def resolve_function(spec, a=None, b=None):
    """Look up a registry name, or parse ``spec`` as an expression on
    [a, b] (defaults to the unit interval)."""
    reg = registry()
    if spec in reg:
        fn = reg[spec]
        if a is not None or b is not None:
            dom = Interval(a if a is not None else fn.domain.a,
                           b if b is not None else fn.domain.b)
            if spec == "sqrt_control" and dom.a < 0.0:  # t**0.5 is complex below 0
                raise DomainError(f"sqrt_control is defined for t >= 0 only, got a={dom.a}")
            return TestFunction(fn.name, fn.f, fn.f1, fn.f2, dom)
        return fn
    dom = Interval(0.0 if a is None else a, 1.0 if b is None else b)
    return TestFunction.from_expression(spec, dom)
