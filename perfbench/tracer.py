"""Per-layer tracing from outside the program.

:func:`install` wraps the public functions of each layer in place.  Every
``phi_ineq.*`` module attribute that *is* the original function is
replaced, so a caller that imported the function by name is traced too.
Each wrapped call is a span; a layer's self time is the time of its spans
minus the time of the spans they enclose.  Counts are exact and repeat for
a given input; times do not.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> public functions whose spans belong to it
LAYERS = {
    "specfun": ("phi_ineq.specfun", ("gamma", "log_gamma", "beta_fn", "incomplete_beta",
                                     "incomplete_beta_detailed", "gauss_2f1",
                                     "gauss_2f1_detailed")),
    "quadrature": ("phi_ineq.quadrature", ("integrate",)),
    "coefquad": ("phi_ineq.coefquad", ("coef_integral",)),
    "fracint": ("phi_ineq.fracint", ("rl_left", "rl_right")),
    "bounds": ("phi_ineq.bounds", ("s_functional", "theorem1_bound", "theorem2_bound",
                                   "identity_rhs", "printed_coefficient")),
    "convexity": ("phi_ineq.convexity", ("check_phi_convex",)),
    "verify": ("phi_ineq.verify", ("verify_point", "identity_check",
                                   "hermite_hadamard_check", "sweep")),
    "report": ("phi_ineq.report", ("build_ledger",)),
    "selftest": ("phi_ineq.selftest", ("run_selftest",)),
    "cli": ("phi_ineq.cli", ("reports_to_csv", "reports_to_json",
                             "ledger_to_csv", "ledger_to_json")),
}

COUNTERS = (
    "quadrature.integrals", "quadrature.evals", "quadrature.bisections",
    "quadrature.tolerance_not_met", "coefquad.calls", "coefquad.distinct",
    "fracint.calls", "bounds.s_calls", "bounds.bound_calls", "bounds.identity_calls",
    "verify.points", "verify.tight_reruns", "verify.errors", "convexity.checks",
    "specfun.calls", "trace.absent_functions",
)


class Tracer:
    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.serialize_s = 0.0  # time in the cli layer's spans, nested ones once
        self.absent = []
        self._coef_keys = set()
        # one frame per open span: [layer, child time, s_functional calls]
        self._stack = []

    def _span(self, layer, name, fn):
        counts = self.counts
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, args, kwargs)
            frame = [layer, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = self._call(name, fn, args, kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if layer == "cli" and not any(f[0] == "cli" for f in stack):
                    self.serialize_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if name == "verify_point":
                counts["verify.tight_reruns"] += max(frame[2] - 1, 0)
            if name in ("verify_point", "identity_check", "hermite_hadamard_check") \
                    and getattr(result, "status", None) == "ERROR":
                counts["verify.errors"] += 1
            return result
        return wrapper

    def _enter(self, name, args, kwargs):
        counts = self.counts
        if name == "coef_integral":
            counts["coefquad.calls"] += 1
            key = repr((args, sorted(kwargs.items())))
            if key not in self._coef_keys:
                self._coef_keys.add(key)
                counts["coefquad.distinct"] += 1
        elif name in ("rl_left", "rl_right"):
            counts["fracint.calls"] += 1
        elif name == "s_functional":
            counts["bounds.s_calls"] += 1
            for frame in reversed(self._stack):
                if frame[0] == "verify":
                    frame[2] += 1
                    break
        elif name in ("theorem1_bound", "theorem2_bound"):
            counts["bounds.bound_calls"] += 1
        elif name == "identity_rhs":
            counts["bounds.identity_calls"] += 1
        elif name == "verify_point":
            counts["verify.points"] += 1
        elif name == "check_phi_convex":
            counts["convexity.checks"] += 1
        elif LAYER_OF.get(name) == "specfun":
            counts["specfun.calls"] += 1

    def _call(self, name, fn, args, kwargs):
        if name != "integrate":
            return fn(*args, **kwargs)
        counts = self.counts
        counts["quadrature.integrals"] += 1
        f, rest = args[0], args[1:]

        def counted(t):
            counts["quadrature.evals"] += 1
            return f(t)
        try:
            result = fn(counted, *rest, **kwargs)
        except Exception as exc:
            # matched by name so the tracer imports nothing from the program
            if type(exc).__name__ == "ToleranceNotMet":
                counts["quadrature.tolerance_not_met"] += 1
            raise
        counts["quadrature.bisections"] += getattr(result, "subdivisions_used", 0)
        return result

    def totals(self):
        """Counts and per-layer times of everything traced so far."""
        out = dict(self.counts)
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = self.self_s[layer]
        out["cli.serialize_s"] = self.serialize_s
        return out


def layer_metrics(totals):
    """Per-layer metrics from summed :meth:`Tracer.totals`: the totals plus
    the two ratios, which are taken over the sums."""
    out = dict(totals)
    integrals, calls = totals["quadrature.integrals"], totals["coefquad.calls"]
    out["quadrature.evals_per_integral"] = totals["quadrature.evals"] / integrals if integrals else 0.0
    out["coefquad.reuse_ratio"] = 1.0 - totals["coefquad.distinct"] / calls if calls else 0.0
    return out


LAYER_OF = {name: layer for layer, (_, names) in LAYERS.items() for name in names}


def install():
    """Import every layer, wrap its functions in place and return the
    :class:`Tracer` that collects their spans."""
    tracer = Tracer()
    for layer, (module_name, names) in LAYERS.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                tracer.absent.append(f"{module_name}.{name}")
                tracer.counts["trace.absent_functions"] += 1
                continue
            wrapper = tracer._span(layer, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "phi_ineq" or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    return tracer
