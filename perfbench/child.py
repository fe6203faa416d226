"""One benchmark child process: set up phi-ineq, do one unit of work,
write timings to a JSON result file and exit with the work's exit code.

    python perfbench/child.py setup   RESULT
    python perfbench/child.py sweep   RESULT [--trace] CONFIG OUT
    python perfbench/child.py scatter RESULT [--trace] POINTS OUT
    python perfbench/child.py cli     RESULT [--trace] ARG...

``ready`` in the result is ``time.monotonic()`` once ``phi_ineq.cli`` is
imported and ``registry()`` is built; the parent subtracts its own
monotonic launch time to get the set-up time.  ``cli`` runs
``phi_ineq.cli.main`` on the remaining arguments, as the installed
``phi-ineq`` command would, and is only used for traced runs.
"""

import json
import sys
import time


def main(argv):
    from phi_ineq import cli
    from phi_ineq.functions import registry

    registry()
    ready = time.monotonic()

    mode, result_path, *rest = argv
    result = {"ready": ready}
    tracer = None
    if rest[:1] == ["--trace"]:
        import tracer as tracing

        rest = rest[1:]
        tracer = tracing.install()
    code = 0
    if mode == "sweep":
        config, out = rest
        start = time.perf_counter()
        code = cli.main(["sweep", "--config", config, "--out", out])
        result["work_s"] = time.perf_counter() - start
    elif mode == "scatter":
        result.update(_scatter(*rest))
    elif mode == "cli":
        code = cli.main(rest)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        result["trace"] = tracer.totals()
        result["absent"] = tracer.absent
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


def _scatter(points_path, out):
    """verify_point on each point in turn, then the CSV of all reports."""
    from phi_ineq import cli
    from phi_ineq.bounds import EvalParams
    from phi_ineq.convexity import PhiKernel
    from phi_ineq.functions import registry
    from phi_ineq.verify import verify_point

    with open(points_path, encoding="utf-8") as fh:
        points = json.load(fh)
    reg = registry()
    kernels = {"constant": PhiKernel.constant(), "power:0.5": PhiKernel.power(0.5),
               "mt": PhiKernel.mt()}
    calls = []
    for pt in points:
        fn = reg[pt["function"]]
        params = EvalParams(fn.domain, x=pt["x"], lam=pt["lam"], alpha=pt["alpha"], q=pt["q"])
        calls.append((fn, params, kernels[pt["kernel"]], pt["theorem"]))
    clock = time.perf_counter
    point_s = []
    reports = []
    start = clock()
    for fn, params, kernel, theorem in calls:
        t0 = clock()
        reports.append(verify_point(fn, params, kernel, theorem))
        point_s.append(clock() - t0)
    text = cli.reports_to_csv(reports)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return {"work_s": clock() - start, "point_s": point_s}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
