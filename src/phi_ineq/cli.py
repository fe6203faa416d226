"""The ``phi-ineq`` command line tool.

Subcommands: ``selftest`` (invariant battery), ``verify`` (one parameter
point), ``sweep`` (grid of points from a JSON plan or the default plan)
and ``coeffs`` (printed-form vs oracle discrepancy ledger).

Exit codes: 0 all checks pass, 1 at least one inequality FAIL, 2 usage
error, 3 internal numerical error.  Output is CSV or JSON with a fixed
column order; identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bounds import EvalParams
from .convexity import PhiKernel
from .errors import DomainError, PhiIneqError, UsageError
from .functions import resolve_function
from .quadrature import QUAD_TOL
from .report import build_ledger
from .selftest import run_selftest
from .verify import (
    MARGIN_TOL,
    default_sweep_plan,
    hermite_hadamard_check,
    identity_check,
    sweep,
    sweep_summary,
    verify_grid,
)

REPORT_COLUMNS = (
    "function", "kernel", "theorem", "a", "b", "x", "lambda", "alpha",
    "q", "p", "s", "lhs", "rhs", "margin", "hypothesis_ok", "status",
)
LEDGER_COLUMNS = (
    "coefficient", "alpha", "lambda", "s", "p", "printed", "oracle",
    "abs_diff", "verdict",
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _report_values(r):
    return (r.function, r.kernel, r.theorem, r.a, r.b, r.x, r.lam, r.alpha,
            r.q, r.p, r.s, r.lhs, r.rhs, r.margin, r.hypothesis_ok, r.status)


def reports_to_csv(reports):
    """The CSV of ``reports``, one f-string per row with the cells
    :func:`_cell` gives: repr for a float, empty for None, true/false."""
    lines = [",".join(REPORT_COLUMNS)]
    append = lines.append
    for r in reports:
        x, lam, alpha, q, p, s = r.x, r.lam, r.alpha, r.q, r.p, r.s
        lhs, rhs, margin = r.lhs, r.rhs, r.margin
        # the cells of REPORT_COLUMNS, in order, as _cell renders them
        # (hypothesis_ok is always a bool)
        append(f"{r.function},{r.kernel},{r.theorem},{r.a!r},{r.b!r},"
               f"{'' if x is None else repr(x)},{'' if lam is None else repr(lam)},"
               f"{'' if alpha is None else repr(alpha)},{'' if q is None else repr(q)},"
               f"{'' if p is None else repr(p)},{'' if s is None else repr(s)},"
               f"{'' if lhs is None else repr(lhs)},{'' if rhs is None else repr(rhs)},"
               f"{'' if margin is None else repr(margin)},"
               f"{'true' if r.hypothesis_ok else 'false'},{r.status}")
    return "\n".join(lines) + "\n"


def reports_to_json(reports):
    payload = {"reports": [
        dict(zip(REPORT_COLUMNS, _report_values(r)), message=r.message)
        for r in reports
    ]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _ledger_values(e):
    return (e.coefficient, e.alpha, e.lam, e.s, e.p, e.printed, e.oracle,
            e.abs_diff, e.verdict)


def ledger_to_csv(entries):
    lines = [",".join(LEDGER_COLUMNS)]
    for e in entries:
        lines.append(",".join(_cell(v) for v in _ledger_values(e)))
    return "\n".join(lines) + "\n"


def ledger_to_json(entries):
    payload = {"entries": [dict(zip(LEDGER_COLUMNS, _ledger_values(e))) for e in entries]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError([message])


def _add_common(parser):
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    parser.add_argument("--quad-tol", type=float, default=QUAD_TOL,
                        help="quadrature tolerance: integrals run to an absolute tolerance "
                             "of 0.1x and a relative tolerance of 10x this value")


def _build_parser():
    parser = _ArgumentParser(prog="phi-ineq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("selftest", help="run the full invariant battery")

    pv = sub.add_parser("verify", help="verify one parameter point")
    pv.add_argument("--fn", dest="function", metavar="FN", required=True,
                    help="registry name (e.g. t^3) or expression (e.g. 2*t^4 - t)")
    pv.add_argument("--a", type=float)
    pv.add_argument("--b", type=float)
    pv.add_argument("--x", type=float)
    pv.add_argument("--lambda", dest="lam", type=float)
    pv.add_argument("--alpha", type=float, default=1.0)
    pv.add_argument("--q", type=float, default=1.0)
    pv.add_argument("--s", type=float)
    pv.add_argument("--kernel", choices=("constant", "power", "mt"), default="constant")
    pv.add_argument("--theorem", choices=("t1", "t2", "hh", "lemma1"), default="t1")
    pv.add_argument("--preset", choices=("c2", "c5"),
                    help="midpoint presets: x=(a+b)/2, lambda in {1/3, 0, 1}, phi=1")
    # None when not given, so that a check that does not read them can reject them
    pv.add_argument("--tol", type=float)
    pv.add_argument("--inject-bound-scale", type=float,
                    help="test hook: multiply computed bounds by this factor")
    _add_common(pv)

    ps = sub.add_parser("sweep", help="run a parameter sweep")
    ps.add_argument("--config", metavar="PATH", help="JSON sweep plan")
    ps.add_argument("--tol", type=float, default=None,
                    help="margin tolerance (overrides the plan's value)")
    ps.add_argument("--inject-bound-scale", type=float, default=1.0,
                    help="test hook: multiply computed bounds by this factor")
    _add_common(ps)

    pc = sub.add_parser("coeffs", help="emit the printed-form discrepancy ledger")
    _add_common(pc)
    return parser


def _parse_kernel_token(token, violations):
    token = token.strip()
    if token == "constant":
        return PhiKernel.constant()
    if token == "mt":
        return PhiKernel.mt()
    if token.startswith("power:"):
        try:
            return PhiKernel.power(float(token.split(":", 1)[1]))
        except (ValueError, DomainError) as exc:
            violations.append(f"bad kernel spec {token!r}: {exc}")
            return None
    violations.append(f"unknown kernel spec {token!r} (use constant, power:S or mt)")
    return None


# plan key -> SweepPlan field
_PLAN_FIELDS = {"functions": "function_names", "kernels": "kernels", "x": "x_rel",
                "lambda": "lam", "alpha": "alpha", "q": "q", "tol": "tol"}


def _plan_from_file(path, violations):
    try:
        # integers are read as floats, so no integer is too long to convert
        raw = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
    except OSError as exc:
        violations.append(f"cannot read config {path}: {exc}")
        return None
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        violations.append(f"config {path} is not valid JSON: {exc}")
        return None
    if not isinstance(raw, dict):
        violations.append(f"config {path} must hold a JSON object")
        return None
    count = len(violations)
    fields = {}
    for key, value in raw.items():
        kind = "string" if key in ("functions", "kernels") else "number"
        entries = [value] if key == "tol" else value
        if key not in _PLAN_FIELDS:
            violations.append(f"unknown config field {key!r}")
        elif not (isinstance(entries, list)
                and all(isinstance(v, str if kind == "string" else float) for v in entries)):
            shape = f"a {kind}" if key == "tol" else f"a JSON list of {kind}s"
            violations.append(f"plan {key} must be {shape}, got {value!r}")
        elif key == "kernels":
            fields["kernels"] = tuple(_parse_kernel_token(t, violations) for t in value)
        else:
            fields[_PLAN_FIELDS[key]] = value if key == "tol" else tuple(value)
    if len(violations) > count:
        return None
    try:
        return replace(default_sweep_plan(), **fields)
    except DomainError as exc:
        violations.append(f"invalid sweep plan: {exc}")
        return None


def _reads_as_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_values(argv):
    """``--flag VALUE`` as ``--flag=VALUE`` for the token after ``--fn``
    and, after any other ``--flag``, for a token that float() reads.
    argparse takes a separate value that starts with a minus sign
    (``-ln(t)``, ``-1e-3``) for a flag; attached, it is read as it is."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (token.startswith("--") and "=" not in token and i + 1 < len(argv)
                and (token == "--fn" or _reads_as_float(argv[i + 1]))):
            i += 1
            token = f"{token}={argv[i]}"
        out.append(token)
        i += 1
    return out


def parse_config(argv):
    """Parse flags (and any config file) into a validated namespace;
    raises UsageError listing every violation.  ``--fn`` is stored as
    ``function`` and ``--format`` as ``fmt``.  For verify, ``fn`` holds the
    resolved function and ``kernel`` a PhiKernel; for sweep, ``plan`` holds
    the SweepPlan."""
    ns = _build_parser().parse_args(_attach_values(argv))
    if ns.command == "selftest":
        return ns
    violations = []
    if not 0.0 < ns.quad_tol < math.inf:
        violations.append(f"--quad-tol must be positive and finite, got {ns.quad_tol}")
    if not math.isfinite(getattr(ns, "inject_bound_scale", None) or 0.0):  # None: not given
        violations.append(f"--inject-bound-scale must be finite, got {ns.inject_bound_scale}")

    if ns.command == "sweep":
        if ns.config is not None:
            ns.plan = _plan_from_file(ns.config, violations)
        else:
            ns.plan = default_sweep_plan()
        if ns.tol is not None and ns.plan is not None:
            # command-line flags override config-file values
            if not 0.0 < ns.tol < math.inf:
                violations.append(f"--tol must be positive and finite, got {ns.tol}")
            else:
                ns.plan = replace(ns.plan, tol=ns.tol)
    elif ns.command == "verify":
        _check_verify(ns, violations)
    if violations:
        raise UsageError(violations)
    return ns


# which of --x, --lambda, --tol and --inject-bound-scale a check reads (t1
# and t2 read all four); giving one that it does not read is a usage error
_READ_BY = {"hh": (), "lemma1": ("--x", "--lambda"), "preset": ("--tol", "--inject-bound-scale")}


def _check_verify(ns, violations):
    if ns.kernel == "power":
        if ns.s is None:
            violations.append("--kernel power requires --s")
        else:
            try:
                ns.kernel = PhiKernel.power(ns.s)
            except DomainError as exc:
                violations.append(str(exc))
    else:
        if ns.s is not None:
            violations.append(f"--s applies to --kernel power only, not {ns.kernel}")
        ns.kernel = PhiKernel.constant() if ns.kernel == "constant" else PhiKernel.mt()
    if ns.a is not None and ns.b is not None and not ns.a < ns.b:
        violations.append(f"interval needs a < b, got a={ns.a}, b={ns.b}")
    else:
        try:
            ns.fn = resolve_function(ns.function, ns.a, ns.b)
        except DomainError as exc:
            violations.append(str(exc))
        else:
            dom = ns.fn.domain
            if ns.x is not None and not dom.a <= ns.x <= dom.b:
                violations.append(f"x must lie in [{dom.a}, {dom.b}], got {ns.x}")
    if ns.lam is not None and not 0.0 <= ns.lam <= 1.0:
        violations.append(f"lambda must lie in [0, 1], got {ns.lam}")
    if not 0.0 < ns.alpha < math.inf:
        violations.append(f"alpha must be positive and finite, got {ns.alpha}")
    if not 1.0 <= ns.q < math.inf:
        violations.append(f"q must be finite and >= 1, got {ns.q}")
    if ns.theorem == "t2" and ns.q <= 1.0 and ns.preset is None:
        violations.append("theorem t2 requires q > 1 (p is derived as q/(q-1))")
    if ns.tol is not None and not 0.0 < ns.tol < math.inf:
        violations.append(f"--tol must be positive and finite, got {ns.tol}")
    given = {"--x": ns.x, "--lambda": ns.lam, "--tol": ns.tol,
             "--inject-bound-scale": ns.inject_bound_scale}
    check = f"--preset {ns.preset}" if ns.preset else f"--theorem {ns.theorem}"
    read = _READ_BY.get("preset" if ns.preset else ns.theorem, tuple(given))
    violations += [f"{flag} does not apply to {check}" for flag, value in given.items()
                   if value is not None and flag not in read]


def _emit(cfg, text):
    if cfg.out:
        try:
            Path(cfg.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError([f"cannot write --out {cfg.out}: {exc}"]) from exc
    else:
        sys.stdout.write(text)


def _reports_exit(reports):
    statuses = {r.status for r in reports}
    if "FAIL" in statuses:
        return EXIT_FAIL
    if "ERROR" in statuses:
        return EXIT_NUMERICAL
    return EXIT_PASS


def _run_verify(cfg):
    fn = cfg.fn
    interval = fn.domain
    # halved before the sum, so a huge interval's midpoint does not overflow
    mid = 0.5 * interval.a + 0.5 * interval.b
    if cfg.preset is not None:
        # the three lambda share one J1 + J2, one gate and one |f''|^q
        kernel, x, lams = PhiKernel.constant(), mid, (1.0 / 3.0, 0.0, 1.0)
        theorem = "T1" if cfg.preset == "c2" else "T2"
        q = cfg.q if (cfg.preset == "c2" or cfg.q > 1.0) else 2.0
    elif cfg.theorem == "hh":
        return [hermite_hadamard_check(fn, quad_tol=cfg.quad_tol)]
    else:
        x = cfg.x if cfg.x is not None else mid
        lam = cfg.lam if cfg.lam is not None else 0.0
        if cfg.theorem == "lemma1":
            params = EvalParams(interval, x=x, lam=lam, alpha=cfg.alpha)
            return [identity_check(fn, params, quad_tol=cfg.quad_tol)]
        kernel, lams, theorem, q = cfg.kernel, (lam,), cfg.theorem.upper(), cfg.q
    return verify_grid(
        fn, (kernel,), (q,), (x,), lams, (cfg.alpha,), (theorem,),
        tol=MARGIN_TOL if cfg.tol is None else cfg.tol, quad_tol=cfg.quad_tol,
        rhs_scale=1.0 if cfg.inject_bound_scale is None else cfg.inject_bound_scale,
    )


def execute(config):
    """Run a config from :func:`parse_config`; returns the process exit code."""
    if config.command == "selftest":
        return run_selftest()
    if config.command == "coeffs":
        entries = build_ledger(quad_tol=config.quad_tol)
        text = ledger_to_csv(entries) if config.fmt == "csv" else ledger_to_json(entries)
        _emit(config, text)
        return EXIT_PASS
    if config.command == "sweep":
        reports = sweep(config.plan, quad_tol=config.quad_tol,
                        rhs_scale=config.inject_bound_scale)
        text = reports_to_csv(reports) if config.fmt == "csv" else reports_to_json(reports)
        _emit(config, text)
        counts = sweep_summary(reports)
        print(
            f"sweep: {counts['total']} points, {counts['PASS']} pass, "
            f"{counts['FAIL']} fail, {counts['HYPOTHESIS_UNMET']} hypothesis-unmet, "
            f"{counts['ERROR']} error",
            file=sys.stderr,
        )
        return _reports_exit(reports)
    # verify
    reports = _run_verify(config)
    text = reports_to_csv(reports) if config.fmt == "csv" else reports_to_json(reports)
    _emit(config, text)
    return _reports_exit(reports)


def main(argv=None):
    # numpy's floating-point warnings stay off stderr: a non-finite value
    # is a usage error, an ERROR row or, for a bound beyond range, rhs inf
    try:
        with np.errstate(all="ignore"):
            config = parse_config(argv if argv is not None else sys.argv[1:])
            return execute(config)
    except UsageError as exc:
        for violation in exc.violations:
            print(f"usage error: {violation}", file=sys.stderr)
        return EXIT_USAGE
    except PhiIneqError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:  # exit 1 means a FAIL row, never an unexpected error
        traceback.print_exc()
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
