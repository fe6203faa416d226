"""Seeded input generators for the three benchmark workloads.

Each generator is a pure function of its seed.  The program under test
sees only what these functions produce (a sweep plan file, a list of
points, a list of command lines); the seed itself never reaches it.
"""

from __future__ import annotations

import random

from oracle import DOMAINS, expression_spec

REGISTRY_NAMES = ("t", "t^2", "t^3", "t^4", "exp(t)", "-ln(t)", "sqrt_control")
KERNEL_TOKENS = ("constant", "power:0.5", "mt")

# The 20,790-point plan: 7 functions x 3 kernels x 3 x x 11 lambda x
# 6 alpha x q in {1, 1.5, 3}, T1 at every q and T2 where q > 1.
SWEEP_AXES = {
    "functions": REGISTRY_NAMES,
    "kernels": KERNEL_TOKENS,
    "x": (0.1, 0.5, 0.9),
    "lambda": (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    "alpha": (0.25, 0.5, 1.0, 1.5, 2.0, 3.0),
    "q": (1.0, 1.5, 3.0),
}
SWEEP_POINTS = 20790

# (q, theorem) pairs of the scatter design; T2 needs q > 1.
SCATTER_Q_THEOREMS = (
    (1.0, "T1"), (1.5, "T1"), (1.5, "T2"), (2.0, "T1"), (2.0, "T2"), (3.0, "T1"), (3.0, "T2"),
)
SCATTER_PER_CELL = 7
SCATTER_RANGES = {"x_rel": (0.02, 0.98), "lam": (0.0, 1.0), "alpha": (0.3, 3.0)}


def sweep_plan(seed):
    """The fixed 20,790-point plan with every axis in a seeded order.  The
    point set, and so the work, is the same for every seed; only the order
    the program walks it in changes."""
    rng = random.Random(seed)
    plan = {}
    for key, values in SWEEP_AXES.items():
        values = list(values)
        rng.shuffle(values)
        plan[key] = values
    return plan


def _strata(rng, n, lo, hi):
    """One uniform draw from each of n equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / n
    draws = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(draws)
    return draws


def scatter_points(seed):
    """Seeded random points for one-at-a-time ``verify_point`` calls.

    Every (function, kernel, q, theorem) cell gets the same number of
    points, and within a cell x, lambda and alpha are stratified draws
    (a Latin hypercube).  The points differ from seed to seed, but the
    mix of work does not, so a session costs about the same for every
    seed.  Nearly every integral is distinct, so the caches are bypassed.
    """
    rng = random.Random(seed)
    points = []
    for name in REGISTRY_NAMES:
        a, b = DOMAINS[name]
        for kernel in KERNEL_TOKENS:
            for q, theorem in SCATTER_Q_THEOREMS:
                n = SCATTER_PER_CELL
                xs = _strata(rng, n, *SCATTER_RANGES["x_rel"])
                lams = _strata(rng, n, *SCATTER_RANGES["lam"])
                alphas = _strata(rng, n, *SCATTER_RANGES["alpha"])
                for x_rel, lam, alpha in zip(xs, lams, alphas):
                    points.append({
                        "function": name, "kernel": kernel, "theorem": theorem,
                        "x": a + (b - a) * x_rel, "lam": lam, "alpha": alpha, "q": q,
                    })
    rng.shuffle(points)
    return points


def _fmt(value):
    return f"{value:.3f}"


def _function_choice(rng, registry_name):
    """(--fn/--a/--b arguments, oracle spec, interval) for a registry name
    or for a random parsed expression on a random interval."""
    if registry_name:
        name = rng.choice(REGISTRY_NAMES)
        return [f"--fn={name}"], {"kind": "registry", "name": name}, DOMAINS[name]
    spec = expression_spec(
        template=rng.choice(("poly2", "poly3", "poly4", "exp")),
        c=round(rng.uniform(0.5, 3.0), 2),
        d=round(rng.uniform(0.5, 3.0), 2),
    )
    # Intervals stay inside [0, 1]: the convexity gate's absolute tolerance
    # misjudges |f''|^q at larger scales, a known defect of the gate.
    a = round(rng.uniform(0.0, 0.5), 3)
    b = round(a + rng.uniform(0.3, 0.5), 3)
    spec.update(a=a, b=b)
    return [f"--fn={spec['source']}", "--a", _fmt(a), "--b", _fmt(b)], spec, (a, b)


def _kernel_args(rng):
    kind = rng.choice(("constant", "power", "mt"))
    if kind == "power":
        return ["--kernel", "power", "--s", rng.choice(("0.25", "0.5", "0.75", "1"))]
    return ["--kernel", kind]


def cli_session(seed):
    """A seeded sequence of ``phi-ineq`` invocations.

    Every session holds the same mix: each of the four verify theorems on a
    registry name and on a parsed expression, both presets, one ``coeffs``
    and one ``selftest``; the parameters and the order are seeded.
    """
    rng = random.Random(seed)
    invocations = []
    for theorem in ("t1", "t2", "hh", "lemma1"):
        for registry_name in (True, False):
            fn_args, fn_spec, (a, b) = _function_choice(rng, registry_name)
            argv = ["verify", *fn_args, "--theorem", theorem]
            if theorem in ("t1", "t2", "lemma1"):
                argv += ["--x", f"{a + (b - a) * rng.uniform(0.02, 0.98):.6f}"]
                argv += ["--lambda", _fmt(rng.uniform(0.0, 1.0))]
                argv += ["--alpha", _fmt(rng.uniform(0.3, 3.0))]
            if theorem in ("t1", "t2"):
                q = rng.choice(("1", "1.5", "2", "3")) if theorem == "t1" else rng.choice(("1.5", "2", "3"))
                argv += ["--q", q, *_kernel_args(rng)]
            if rng.random() < 0.5:
                argv += ["--format", "json"]
            invocations.append({"kind": "verify", "argv": argv, "function": fn_spec})
    for preset in ("c2", "c5"):
        fn_args, fn_spec, _ = _function_choice(rng, rng.random() < 0.5)
        argv = ["verify", *fn_args, "--preset", preset, "--alpha", _fmt(rng.uniform(0.3, 3.0))]
        if preset == "c5":
            argv += ["--q", rng.choice(("1.5", "2", "3"))]
        invocations.append({"kind": "verify", "argv": argv, "function": fn_spec})
    invocations.append({"kind": "coeffs", "argv": ["coeffs"]})
    invocations.append({"kind": "selftest", "argv": ["selftest"]})
    rng.shuffle(invocations)
    return invocations


# Parameter ranges of each workload, and why they were chosen.
RANGES = {
    "sweep-dense": {
        "axes": SWEEP_AXES,
        "why": "The roadmap's 20,790-point plan: points share coefficient integrals, "
               "fractional pairs and gate witnesses, so per-point overhead, the caches "
               "and CSV rendering dominate; the seed only reorders the axes.",
    },
    "points-scatter": {
        "cells": "7 registry functions x 3 kernels x (q, theorem) in "
                 f"{[list(c) for c in SCATTER_Q_THEOREMS]}, {SCATTER_PER_CELL} points each",
        "x_rel": SCATTER_RANGES["x_rel"], "lambda": SCATTER_RANGES["lam"],
        "alpha": SCATTER_RANGES["alpha"],
        "why": "Continuous draws share almost no integral, so quadrature and the "
               "Riemann-Liouville integrals dominate and the caches are bypassed; "
               "stratified draws keep a session's cost the same from seed to seed.",
    },
    "cli-session": {
        "invocations": "verify t1|t2|hh|lemma1 on a registry name and on an expression, "
                       "presets c2 and c5, coeffs, selftest",
        "x_rel": (0.02, 0.98), "lambda": (0.0, 1.0), "alpha": (0.3, 3.0),
        "q": {"t1": ["1", "1.5", "2", "3"], "t2": ["1.5", "2", "3"]},
        "s": ["0.25", "0.5", "0.75", "1"],
        "expressions": "c*t^n - d*t (n = 2, 3, 4) and c*exp(t) + d*t^2, c, d in [0.5, 3], "
                       "on [a, a + 0.3..0.5] with a in [0, 0.5]",
        "why": "What a user pays per command: interpreter and numpy start-up, a fresh "
               "convexity gate per process, and the only heavy users of specfun and "
               "identity_rhs (coeffs, selftest).",
    },
}
