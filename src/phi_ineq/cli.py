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
import csv
import io
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bounds import EvalParams
from .convexity import PhiKernel
from .errors import DomainError, PhiIneqError, UsageError, range_violations
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


def _report_values(r):
    return (r.function, r.kernel, r.theorem, r.a, r.b, r.x, r.lam, r.alpha,
            r.q, r.p, r.s, r.lhs, r.rhs, r.margin, r.hypothesis_ok, r.status)


def reports_to_csv(reports):
    """The CSV of ``reports``, one f-string per row with the cells
    ``csv.writer`` writes, but true/false for hypothesis_ok; no function
    name or kernel label holds a character that needs quoting."""
    lines = [",".join(REPORT_COLUMNS)]
    append = lines.append
    for r in reports:
        x, lam, alpha, q, p, s = r.x, r.lam, r.alpha, r.q, r.p, r.s
        lhs, rhs, margin = r.lhs, r.rhs, r.margin
        # the cells of REPORT_COLUMNS, in order (hypothesis_ok is always a bool)
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
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LEDGER_COLUMNS)
    writer.writerows(_ledger_values(e) for e in entries)
    return out.getvalue()


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
    pv.add_argument("--alpha", type=float)
    pv.add_argument("--q", type=float)
    pv.add_argument("--s", type=float)
    pv.add_argument("--kernel", choices=("constant", "power", "mt"))
    pv.add_argument("--theorem", choices=("t1", "t2", "hh", "lemma1"))
    pv.add_argument("--preset", choices=("c2", "c5"),
                    help="midpoint presets: x=(a+b)/2, lambda in {1/3, 0, 1}, phi=1")
    pv.add_argument("--tol", type=float)
    pv.add_argument("--inject-bound-scale", type=float,
                    help="test hook: multiply computed bounds by this factor")
    _add_common(pv)

    ps = sub.add_parser("sweep", help="run a parameter sweep")
    ps.add_argument("--config", metavar="PATH", help="JSON sweep plan")
    ps.add_argument("--tol", type=float, default=MARGIN_TOL, help="margin tolerance")
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
                "lambda": "lam", "alpha": "alpha", "q": "q"}


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
        if key not in _PLAN_FIELDS:
            violations.append(f"unknown config field {key!r}")
        elif not (isinstance(value, list)
                and all(isinstance(v, str if kind == "string" else float) for v in value)):
            violations.append(f"plan {key} must be a JSON list of {kind}s, got {value!r}")
        elif key == "kernels":
            fields["kernels"] = tuple(_parse_kernel_token(t, violations) for t in value)
        else:
            fields[_PLAN_FIELDS[key]] = tuple(value)
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
    ``function`` and ``--format`` as ``fmt``.  For verify, ``check`` names
    the check, the flags it reads hold their values or defaults, ``fn``
    holds the resolved function and ``kernel`` a PhiKernel; for sweep,
    ``plan`` holds the SweepPlan and ``tol`` its margin tolerance."""
    ns = _build_parser().parse_args(_attach_values(argv))
    if ns.command == "selftest":
        return ns
    # --inject-bound-scale: None when not given to verify, absent from coeffs
    violations = range_violations(("--quad-tol", ns.quad_tol),
                                  ("--inject-bound-scale", getattr(ns, "inject_bound_scale", None)))

    if ns.command == "sweep":
        if ns.config is not None:
            ns.plan = _plan_from_file(ns.config, violations)
        else:
            ns.plan = default_sweep_plan()
    elif ns.command == "verify":
        _check_verify(ns, violations)
    # None for coeffs and where verify neither reads nor got it
    violations += range_violations(("--tol", getattr(ns, "tol", None)))
    if violations:
        raise UsageError(violations)
    return ns


# The flags each verify check reads, with their defaults (None: none, or for
# --x the interval's midpoint, which the presets check too); t1's row holds
# every verify flag but --preset.  argparse gives them all a default of None,
# so that a given flag the chosen check does not read is a usage error.
_T1 = {"--theorem": None, "--x": None, "--lambda": 0.0, "--alpha": 1.0, "--q": 1.0,
       "--kernel": "constant", "--s": None, "--tol": MARGIN_TOL, "--inject-bound-scale": 1.0}
_C2 = {"--alpha": 1.0, "--q": 1.0, "--tol": MARGIN_TOL, "--inject-bound-scale": 1.0}
_READS = {"t1": _T1, "t2": _T1, "hh": {"--theorem": None},
          "lemma1": {"--theorem": None, "--x": None, "--lambda": 0.0, "--alpha": 1.0},
          "c2": _C2, "c5": {**_C2, "--q": 2.0}}
_DEST = {flag: "lam" if flag == "--lambda" else flag[2:].replace("-", "_") for flag in _T1}


def _check_verify(ns, violations):
    check = ns.check = ns.preset or ns.theorem or "t1"
    reads, args = _READS[check], vars(ns)
    unread = [flag for flag in _T1 if args[_DEST[flag]] is not None and flag not in reads]
    args.update({_DEST[flag]: v for flag, v in reads.items() if args[_DEST[flag]] is None})
    if ns.kernel == "power":
        if ns.s is None:
            violations.append("--kernel power requires --s")
        else:
            try:
                ns.kernel = PhiKernel.power(ns.s)
            except DomainError as exc:
                violations.append(str(exc))
    elif ns.kernel is not None:
        if ns.s is not None:
            violations.append(f"--s applies to --kernel power only, not {ns.kernel}")
        ns.kernel = PhiKernel.constant() if ns.kernel == "constant" else PhiKernel.mt()
    try:
        ns.fn = resolve_function(ns.function, ns.a, ns.b)
    except DomainError as exc:
        violations.append(str(exc))
    else:
        dom = ns.fn.domain
        if ns.x is None:  # halved before the sum, so that it cannot overflow
            ns.x = 0.5 * dom.a + 0.5 * dom.b
        elif not dom.a <= ns.x <= dom.b:
            violations.append(f"x must lie in [{dom.a}, {dom.b}], got {ns.x}")
    violations += range_violations(("lambda", ns.lam), ("alpha", ns.alpha), ("q", ns.q))
    name = f"preset {check}" if ns.preset else f"theorem {check}"
    if check in ("t2", "c5") and ns.q <= 1.0:
        violations.append(f"{name} requires q > 1 (p is derived as q/(q-1))")
    violations += [f"{flag} does not apply to --{name}" for flag in unread]


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
    fn, check = cfg.fn, cfg.check
    if check == "hh":
        return [hermite_hadamard_check(fn, quad_tol=cfg.quad_tol)]
    if check == "lemma1":
        params = EvalParams(fn.domain, x=cfg.x, lam=cfg.lam, alpha=cfg.alpha)
        return [identity_check(fn, params, quad_tol=cfg.quad_tol)]
    # a preset's three lambda share one J1 + J2, one gate and one |f''|^q
    kernel, lams = ((PhiKernel.constant(), (1.0 / 3.0, 0.0, 1.0)) if cfg.preset
                    else (cfg.kernel, (cfg.lam,)))
    theorem = {"c2": "T1", "c5": "T2"}.get(check, check.upper())
    return verify_grid(fn, (kernel,), (cfg.q,), (cfg.x,), lams, (cfg.alpha,), (theorem,),
                       tol=cfg.tol, quad_tol=cfg.quad_tol, rhs_scale=cfg.inject_bound_scale)


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
        reports = sweep(config.plan, tol=config.tol, quad_tol=config.quad_tol,
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
