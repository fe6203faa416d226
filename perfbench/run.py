"""End-to-end and per-layer benchmark of phi-ineq.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (it imports ``src/phi_ineq``).  The
benchmark drives the program from this one process, one child process at
a time (a closed loop with one client), so every session starts cold, as a
user's command does.  It repeats the workload's session until ``--seconds``
have passed, checks every output against the independent oracle in
``oracle.py``, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
sessions alternate between untraced and traced (``tracer.py``) and the
metrics are the per-layer ones.  The line before it records provenance and
the sample counts behind the medians.

Workloads (inputs from ``workloads.py``, all made from ``--seed``):

* ``sweep-dense``: the 20,790-point plan through ``phi-ineq sweep``, one
  process per session.  Points share integrals, so the caches do the work.
* ``points-scatter``: 1029 seeded points through ``verify_point`` one at a
  time, one process per session.  Almost nothing is shared.
* ``cli-session``: 12 ``python -m phi_ineq.cli`` processes per session:
  ``verify`` for all four theorems and both presets, ``coeffs`` and
  ``selftest``.  Start-up dominates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
CHILD = str(HERE / "child.py")
CHILD_TIMEOUT_S = 120.0
MIN_SESSIONS = 3
MIN_TRACED_SESSIONS = 2

END_TO_END = {
    "setup_s": "s", "points_per_s": "1/s", "point_p50_ms": "ms", "point_p99_ms": "ms",
    "cli_p50_ms": "ms", "session_s": "s", "peak_rss_mb": "MB",
}

NOTES = (
    "Only the benchmark's own processes are timed: no cache was dropped, no CPU "
    "was pinned and no machine setting was changed.",
    "Identical points-scatter runs of 1500 points varied 2.6-4.2 s on a shared "
    "2-CPU machine, with CPU time tracking wall time, and back-to-back identical "
    "sweeps varied 1.0-2.2 s; each part of a session (point, process, set-up) is "
    "timed in every session of a run and its median taken, and totals are sums "
    "of those medians.",
    "The known defects at parameter extremes (false FAIL as q -> 1, ERROR at "
    "alpha ~ 200 and at alpha = 1e-9, absolute tolerances that misjudge large "
    "scales) lie outside these ranges; they belong to the program's own tests.",
)


class Runner:
    """Spawns children one at a time and times each from launch to exit."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.absent = set()  # traced functions the program no longer has
        self._n = 0

    def spawn(self, argv):
        self._n += 1
        out_path = WORK / f"{self._n}.out"
        err_path = WORK / f"{self._n}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8")
        stderr = err_path.read_text(encoding="utf-8")
        out_path.unlink()
        err_path.unlink()
        return {
            "start": start, "seconds": end - start, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout, "stderr": stderr,
        }

    def child(self, mode, *args, trace=False):
        """Run ``child.py``; returns the spawn record with the child's
        result file merged in."""
        result_path = WORK / "child.json"
        argv = [sys.executable, CHILD, mode, str(result_path)]
        if trace:
            argv.append("--trace")
        rec = self.spawn(argv + [str(a) for a in args])
        if result_path.exists():
            rec.update(json.loads(result_path.read_text(encoding="utf-8")))
            result_path.unlink()
            self.absent.update(rec.get("absent", ()))
            rec["setup_s"] = rec["ready"] - rec["start"]
        return rec


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, notes=()):
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes)


# ----------------------------------------------------------- sweep-dense

def _kernel_label(token):
    """The report's kernel label for a plan token such as ``power:0.5``."""
    return f"power({float(token.split(':')[1]):g})" if ":" in token else token


def _sweep_expected(plan):
    """Keys of the rows the plan must produce."""
    keys = set()
    for name in plan["functions"]:
        a, b = oracle.DOMAINS[name]
        for token in plan["kernels"]:
            label = _kernel_label(token)
            for q in plan["q"]:
                for xi in plan["x"]:
                    for lam in plan["lambda"]:
                        for alpha in plan["alpha"]:
                            for th in ("T1", "T2") if q > 1.0 else ("T1",):
                                keys.add(_row_key(name, label, th, a + (b - a) * xi, lam, alpha, q))
    return keys


def _row_key(name, label, theorem, x, lam, alpha, q):
    return (name, label, theorem, round(x, 12), lam, alpha, q)


def check_reports(text, expected_keys=None, points=None):
    """(rows, rows with a problem, notes) for a registry-function report
    CSV, against either a set of expected row keys or an ordered list of
    input points."""
    rows = oracle.parse_reports(text)
    orc = oracle.Oracle()
    bad, notes = 0, []
    if expected_keys is not None:
        got = [_row_key(r["function"], r["kernel"], r["theorem"], r["x"], r["lambda"],
                        r["alpha"], r["q"]) for r in rows]
        missing = len(expected_keys - set(got)) + (len(got) - len(set(got)))
        extra = len(set(got) - expected_keys)
        if missing or extra:
            bad += missing + extra
            notes.append(f"{missing} expected rows missing or repeated, {extra} unexpected rows")
    if points is not None and len(points) != len(rows):
        bad += abs(len(points) - len(rows))
        notes.append(f"{len(rows)} rows for {len(points)} points")
    for i, r in enumerate(rows):
        problems = []
        if points is not None and i < len(points):
            pt = points[i]
            want = (pt["function"], _kernel_label(pt["kernel"]),
                    pt["theorem"], pt["x"], pt["lam"], pt["alpha"], pt["q"])
            have = tuple(r[k] for k in ("function", "kernel", "theorem", "x", "lambda", "alpha", "q"))
            if have != want:
                problems.append(f"row echoes {have}, asked for {want}")
        name = r["function"]
        if name not in oracle.DOMAINS:
            problems.append(f"unknown function {name!r}")
        else:
            forms = oracle.function_forms({"kind": "registry", "name": name})
            problems += oracle.check_report(orc, r, name, forms)
        if problems:
            bad += 1
            notes.append(f"{name} {r['kernel']} {r['theorem']} x={r['x']} lam={r['lambda']} "
                         f"alpha={r['alpha']} q={r['q']}: {'; '.join(problems)}")
    return len(rows), bad, notes


def _check_sessions(sessions, checks, texts, tally):
    """Check the i-th output of every session with ``checks[i]``, each
    distinct output once.  An output that differs from the first
    session's is itself a failure: outputs must be byte-identical."""
    verdicts = {}
    for s in sessions:
        for i, (digest, code) in enumerate(s["outputs"]):
            key = (i, digest, code)
            if key not in verdicts:
                verdicts[key] = checks[i](texts[digest], code)
            attempted, bad, notes = verdicts[key]
            if key != next(k for k in verdicts if k[0] == i):
                bad, notes = bad + 1, [*notes, f"output {i} differs from the first session's"]
            tally.add(attempted, bad, notes if bad else ())


def _child_session(rec, out, points, point_s, work_parts):
    """Session record of a workload that runs in one child process.  The
    process's parts are its set-up, ``work_parts`` (which sum to its work
    time) and the rest of its life (reading inputs, exiting)."""
    if "work_s" not in rec:
        raise RuntimeError(f"child exited with {rec['code']} and no result: {rec['stderr'][-2000:]}")
    rest = rec["seconds"] - rec["setup_s"] - rec["work_s"]
    return {
        "seconds": rec["seconds"], "points": points, "point_s": point_s,
        "work_parts": work_parts, "processes": [[rec["setup_s"], *work_parts, rest]],
        "setup_s": [rec["setup_s"]], "rss_mb": rec["rss_mb"], "trace": rec.get("trace"),
        "outputs": [(_take(out), rec["code"])],
    }


def _take(path):
    """The text of an output file, removed so the next session starts clean."""
    if not path.exists():
        return ""
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


def _with_exit_code(check):
    def checked(text, code):
        attempted, bad, notes = check(text)
        if code != 0:
            return attempted, bad + 1, [*notes, f"exit code {code}"]
        return attempted, bad, notes
    return checked


def run_sweep_dense(runner, seed, seconds, trace):
    plan = workloads.sweep_plan(seed)
    config = WORK / "plan.json"
    config.write_text(json.dumps(plan), encoding="utf-8")
    out = WORK / "sweep.csv"
    n = workloads.SWEEP_POINTS

    def session(traced):
        rec = runner.child("sweep", config, out, trace=traced)
        work_s = rec.get("work_s", 0.0)
        # a sweep is one call, so its per-point latency is the mean
        return _child_session(rec, out, n, [work_s / n], [work_s])

    expected = _sweep_expected(plan)
    check = _with_exit_code(lambda text: check_reports(text, expected_keys=expected))
    return measure(session, seconds, trace, [check])


# -------------------------------------------------------- points-scatter

def run_points_scatter(runner, seed, seconds, trace):
    points = workloads.scatter_points(seed)
    path = WORK / "points.json"
    path.write_text(json.dumps(points), encoding="utf-8")
    out = WORK / "scatter.csv"

    def session(traced):
        rec = runner.child("scatter", path, out, trace=traced)
        point_s = rec.get("point_s", [])
        # the last part is the work outside verify_point: the loop and the CSV
        rest = rec.get("work_s", 0.0) - sum(point_s)
        return _child_session(rec, out, len(points), point_s, [*point_s, rest])

    check = _with_exit_code(lambda text: check_reports(text, points=points))
    return measure(session, seconds, trace, [check])


# ----------------------------------------------------------- cli-session

def _verify_rows_expected(inv):
    return 3 if "--preset" in inv["argv"] else 1


def check_invocation(inv, stdout, code):
    """Problems with one cli-session invocation's output and exit code."""
    if code != 0:
        return [f"exit code {code}"]
    if inv["kind"] == "selftest":
        return oracle.check_selftest(stdout, code)
    orc = oracle.Oracle()
    if inv["kind"] == "coeffs":
        _, bad, notes = oracle.check_ledger(orc, stdout)
        return notes if bad else []
    spec = inv["function"]
    forms = oracle.function_forms(spec)
    key = spec["name"] if spec["kind"] == "registry" else spec["source"]
    rows = oracle.parse_reports(stdout)
    problems = []
    if len(rows) != _verify_rows_expected(inv):
        problems.append(f"{len(rows)} report rows")
    for r in rows:
        if r["function"] != key:
            problems.append(f"row for function {r['function']!r}, asked for {key!r}")
            continue
        problems += oracle.check_report(orc, r, key, forms)
    return problems


def run_cli_session(runner, seed, seconds, trace):
    invocations = workloads.cli_session(seed)

    def session(traced):
        start = time.monotonic()
        children = []
        for inv in invocations:
            if traced:
                children.append(runner.child("cli", *inv["argv"], trace=True))
            else:
                children.append(runner.spawn([sys.executable, "-m", "phi_ineq.cli", *inv["argv"]]))
        seconds_ = time.monotonic() - start
        # set-up is timed in separate probe processes, outside the session
        probes = [runner.child("setup") for _ in range(2)]
        child_s = [c["seconds"] for c in children]
        return {
            "seconds": seconds_,
            "points": sum(_verify_rows_expected(inv) for inv in invocations
                          if inv["kind"] == "verify"),
            "point_s": [c["seconds"] for c, inv in zip(children, invocations)
                        if inv["kind"] == "verify"],
            "work_parts": child_s, "processes": [[s] for s in child_s],
            "setup_s": [p["setup_s"] for p in probes],
            "rss_mb": max(c["rss_mb"] for c in children),
            "trace": _sum_traces([c.get("trace") for c in children]) if traced else None,
            "outputs": [(c["stdout"], c["code"]) for c in children],
        }

    def checker(inv):
        def check(text, code):
            problems = check_invocation(inv, text, code)
            return 1, 1 if problems else 0, [f"{' '.join(inv['argv'])}: {'; '.join(problems)}"]
        return check

    return measure(session, seconds, trace, [checker(inv) for inv in invocations])


def _sum_traces(traces):
    if any(t is None for t in traces):
        return None
    total = {}
    for t in traces:
        for k, v in t.items():
            total[k] = max(total.get(k, 0), v) if k == "trace.absent_functions" else total.get(k, 0) + v
    return total


# ------------------------------------------------------------- measuring

def measure(session, seconds, trace, checks):
    """Repeat sessions for ``seconds``, then check every output with
    ``checks`` (one per output of a session); returns (metrics, tally,
    sample counts of the medians)."""
    deadline = time.monotonic() + seconds
    sessions = []
    texts = {}  # each distinct output is kept once, by digest
    while True:
        traced = trace and len(sessions) % 2 == 1
        rec = dict(session(traced), traced=traced)
        outputs = []
        for text, code in rec["outputs"]:
            digest = hashlib.sha256(text.encode()).hexdigest()
            texts.setdefault(digest, text)
            outputs.append((digest, code))
        rec["outputs"] = outputs
        sessions.append(rec)
        plain = [s for s in sessions if not s["traced"]]
        traced_runs = [s for s in sessions if s["traced"]]
        enough = (len(traced_runs) >= MIN_TRACED_SESSIONS if trace
                  else len(plain) >= MIN_SESSIONS)
        typical = statistics.median(s["seconds"] for s in sessions)
        if enough and time.monotonic() + typical > deadline:
            break

    tally = Tally()
    _check_sessions(sessions, checks, texts, tally)
    if trace:
        metrics = _layer_metrics(plain, traced_runs, tally)
    else:
        metrics = _end_to_end(sessions)
    samples = {
        "sessions": len(plain), "traced_sessions": len(traced_runs),
        "setups": sum(len(s["setup_s"]) for s in plain),
        "operations_per_session": len(plain[0]["point_s"]),
        "processes_per_session": len(plain[0]["processes"]),
    }
    return metrics, tally, samples


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _end_to_end(sessions):
    """End-to-end metrics of a run.

    Every session repeats the same operations, so each part of a session
    (a point, a process, a set-up) is timed in every session and its median
    over the run's sessions taken.  Percentiles are taken across those
    medians, and a total (the work, a process, the session) is the sum of
    its parts' medians: a stall of a shared machine during one session
    moves no median unless it hits the same part in most sessions.
    """
    def per_operation(parts):
        return [statistics.median(col) for col in zip(*parts)]

    latencies = per_operation(s["point_s"] for s in sessions)
    work_s = sum(per_operation(s["work_parts"] for s in sessions))
    parts = per_operation([p for proc in s["processes"] for p in proc] for s in sessions)
    process_s = []
    for proc in sessions[0]["processes"]:
        process_s.append(sum(parts[:len(proc)]))
        parts = parts[len(proc):]
    values = {
        "setup_s": statistics.median(v for s in sessions for v in s["setup_s"]),
        "points_per_s": sessions[0]["points"] / work_s,
        "point_p50_ms": 1e3 * statistics.median(latencies),
        "point_p99_ms": 1e3 * _quantile(latencies, 0.99),
        "cli_p50_ms": 1e3 * statistics.median(process_s),
        "session_s": sum(process_s),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sessions),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _layer_metrics(plain, traced, tally):
    layers = [tracer.layer_metrics(s["trace"]) for s in traced if s["trace"] is not None]
    if len(layers) != len(traced):
        tally.add(0, 1, ["a traced session left no trace"])
        return {}
    counts = {k: layers[0][k] for k in tracer.COUNTERS}
    for other in layers[1:]:
        if {k: other[k] for k in tracer.COUNTERS} != counts:
            tally.add(0, 1, ["trace counts differ between sessions of the same seed"])
    metrics = {}
    for name in sorted(layers[0]):
        if name in tracer.COUNTERS:
            unit = "count"
        elif name.endswith("_s"):
            unit = "s"
        elif name == "quadrature.evals_per_integral":
            unit = "count"
        else:
            unit = "ratio"
        # counts repeat exactly (checked above); times vary, so take their median
        value = layers[0][name] if name in counts else statistics.median(m[name] for m in layers)
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(s["seconds"] for s in traced)
                / statistics.median(s["seconds"] for s in plain))
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    metrics["check.failed_ratio"] = {"value": tally.failed / max(tally.attempted, 1), "unit": "ratio"}
    return metrics


WORKLOADS = {
    "sweep-dense": run_sweep_dense,
    "points-scatter": run_points_scatter,
    "cli-session": run_cli_session,
}


def provenance(seed, workload):
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "seed": seed, "workload": workload, "ranges": workloads.RANGES[workload],
        "notes": NOTES,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "phi_ineq" / "cli.py").is_file():
        print(f"perfbench: no phi-ineq source tree at {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the cleanup below runs
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        runner = Runner()
        runner.child("setup")  # compiles bytecode once, outside the measurement
        metrics, tally, samples = WORKLOADS[args.workload](
            runner, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name in sorted(runner.absent):
        print(f"perfbench: traced function {name} is absent", file=sys.stderr)
    for note in tally.notes[:20]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args.seed, args.workload), "samples": samples}))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
