"""One rule per range: every entry point that takes lambda, alpha, q or a
run setting rejects a bad value with the message of
:data:`phi_ineq.errors.RANGES`."""

import math
from dataclasses import replace

import pytest

from phi_ineq import EvalParams, coef_integral, registry
from phi_ineq.bounds import identity_rhs, t1_coefficients, theorem1_bound, theorem2_bound
from phi_ineq.cli import parse_config
from phi_ineq.convexity import PhiKernel
from phi_ineq.errors import DomainError, UsageError, range_violations
from phi_ineq.fracint import rl_left, rl_right
from phi_ineq.verify import SweepPlan, sweep, verify_grid, verify_point

NAN, INF = math.nan, math.inf
TINY = 5e-324
BAD = {
    "lambda": (NAN, INF, -INF, -TINY, math.nextafter(1.0, 2.0)),
    "alpha": (NAN, INF, -INF, 0.0, -TINY),
    "q": (NAN, INF, -INF, math.nextafter(1.0, 0.0)),
    "tol": (NAN, INF, -INF, 0.0, -TINY),
    "quad_tol": (NAN, INF, -INF, 0.0, -TINY),
    "rhs_scale": (NAN, INF, -INF),
}
CASES = [(name, value) for name, values in BAD.items() for value in values]
FLAGS = {"lambda": "--lambda", "alpha": "--alpha", "q": "--q", "tol": "--tol",
         "quad_tol": "--quad-tol", "rhs_scale": "--inject-bound-scale"}
EMPTY_PLAN = SweepPlan((), (PhiKernel.constant(),), (0.5,), (0.0,), (1.0,), (1.0,))
T2 = registry()["t^2"]
POINT = {"lambda": 0.0, "alpha": 1.0, "q": 1.0}
KERNELS = (PhiKernel.constant(), PhiKernel.power(0.5), PhiKernel.mt())


def _grid(lam=0.0, alpha=1.0, q=1.0, **settings):
    return verify_grid(T2, (PhiKernel.constant(),), (q,), (0.5,), (lam,), (alpha,), ("T1",),
                       **settings)


def _entry_points(name, value):
    """(label, call, table name) of every entry point that takes ``name``."""
    if name in POINT:
        kw = {**POINT, name: value}
        lam, alpha, q = kw["lambda"], kw["alpha"], kw["q"]
        yield "EvalParams", lambda: EvalParams(T2.domain, x=0.5, lam=lam, alpha=alpha, q=q), name
        yield "SweepPlan", lambda: replace(EMPTY_PLAN, lam=(lam,), alpha=(alpha,), q=(q,)), name
        yield "verify_grid", lambda: _grid(lam, alpha, q), name
        if name != "q":
            yield "coef_integral", lambda: coef_integral("A1", alpha, lam), name
            # the constant kernel's coefficients are all closed forms
            yield ("t1_coefficients",
                   lambda: t1_coefficients(alpha, lam, PhiKernel.constant()), name)
        if name == "alpha":
            yield "rl_left", lambda: rl_left(T2.f, 0.0, value, 1.0), "fractional order"
            yield "rl_right", lambda: rl_right(T2.f, 1.0, value, 0.0), "fractional order"
        return
    setting = {name: value}
    params = EvalParams(T2.domain, x=0.5, lam=0.0, alpha=1.0)
    yield "verify_grid", lambda: _grid(**setting), name
    if name == "quad_tol":
        # every function below the verifier that takes quad_tol; the constant
        # kernel's T1 coefficients are closed forms and read no quad_tol
        kw = {"quad_tol": value}
        yield "coef_integral", lambda: coef_integral("A1", 1.0, 0.5, **kw), name
        yield "rl_left", lambda: rl_left(T2.f, 0.0, 1.5, 1.0, **kw), name
        yield "rl_right", lambda: rl_right(T2.f, 1.0, 1.5, 0.0, **kw), name
        yield "identity_rhs", lambda: identity_rhs(T2, params, **kw), name
        for kernel in KERNELS:
            yield (f"theorem1_bound {kernel.label}",
                   lambda kernel=kernel: theorem1_bound(T2, params, kernel, **kw), name)
            yield (f"theorem2_bound {kernel.label}",
                   lambda kernel=kernel: theorem2_bound(T2, replace(params, q=2.0), kernel, **kw),
                   name)
    yield "verify_point", lambda: verify_point(T2, params, PhiKernel.constant(), "T1",
                                               **setting), name
    yield "sweep", lambda: sweep(replace(EMPTY_PLAN, function_names=("t^2",)), **setting), name
    yield "sweep of no functions", lambda: sweep(EMPTY_PLAN, **setting), name


@pytest.mark.parametrize("name, value", CASES)
def test_every_entry_point_rejects_with_the_table_message(name, value):
    for label, call, table_name in _entry_points(name, value):
        (message,) = range_violations((table_name, value))
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message, label


@pytest.mark.parametrize("command, name, value", [
    *(("verify", name, value) for name, value in CASES),
    *(("sweep", name, value) for name, value in CASES if name not in POINT)])
def test_every_flag_rejects_with_the_table_message(command, name, value):
    # --lambda, --alpha and --q are named as the library names them
    flag = FLAGS[name]
    argv = [command, f"{flag}={value!r}"] + (["--fn", "t^2"] if command == "verify" else [])
    with pytest.raises(UsageError) as info:
        parse_config(argv)
    assert info.value.violations == range_violations((name if name in POINT else flag, value))


def test_messages_keep_their_words():
    assert range_violations(("alpha", INF), ("lambda", 2.0), ("q", 0.5), ("tol", 0.0),
                            ("--inject-bound-scale", NAN), ("x", None)) == [
        "alpha must be positive and finite, got inf", "lambda must lie in [0, 1], got 2.0",
        "q must be finite and >= 1, got 0.5", "tol must be positive and finite, got 0.0",
        "--inject-bound-scale must be finite, got nan"]
    with pytest.raises(DomainError, match=r"^alpha must be positive and finite, got 0\.0; "
                                          r"lambda must lie in \[0, 1\], got -1\.0$"):
        coef_integral("A1", 0.0, -1.0)
