"""Alternating parent/change pairs of ``perfbench/run.py``, summarised in
the shape of the repository's ``BENCH_*.json`` files.

    python benchmarks/pairs.py --parent DIR --change DIR --seed N \
        --pairs sweep-dense=10 points-scatter=10 cli-session=10 \
        [--claim points-scatter:points_per_s] --out BENCH_x.json

DIR is a plain copy of a tree (``git archive`` of a commit, or the files
of a change).  Every ``__pycache__`` under the two trees is deleted
before the first pair, so that neither side starts from a stale bytecode
cache.  Odd pairs run the parent first, even pairs the change first, one
benchmark process at a time.  Each side also makes one traced
run per workload (``--trace-seconds``), whose counts are exact for a
seed.  The quartiles are ``statistics.quantiles(n=4,
method='inclusive')`` over the pairs' values, and a win is a strictly
better value in the same pair.  Without ``--claim`` the file records
``"claim": null``.

Each end-to-end metric gets a ``verdict`` against its ``bound`` in
``BENCHMARK.json``, a fraction of the parent's median: ``worse`` when the
change's median is worse than the parent's by more than the bound;
``unresolved`` when the parent's IQR exceeds the bound (as a fraction of
its median), unless every change run beats every parent run; ``ok``
otherwise.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

END_TO_END = {e["name"]: (e["better"], e["bound"]) for e in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["end_to_end"]}
COUNTS = ("quadrature.integrals", "quadrature.evals", "quadrature.bisections",
          "quadrature.tolerance_not_met", "coefquad.calls", "coefquad.distinct",
          "fracint.calls", "bounds.s_calls", "bounds.bound_calls", "bounds.identity_calls",
          "verify.points", "verify.errors", "convexity.checks", "specfun.calls",
          "trace.absent_functions")


def run(tree, workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[1])
    names = COUNTS if trace else END_TO_END
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items() if k in names}}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def verdict(parent, change, better, bound):
    """ok, worse or unresolved for one metric's runs; see the module
    docstring."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    p_med = statistics.median(parent)
    if sign * (statistics.median(change) - p_med) > bound * abs(p_med):
        return "worse"
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    if q3 - q1 > bound * abs(p_med) and not (
            max(sign * c for c in change) < min(sign * p for p in parent)):
        return "unresolved"
    return "ok"


def summarise(runs):
    summary = {}
    for name, (better, bound) in END_TO_END.items():
        pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in runs]
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
        summary[name] = {
            "better": better, "bound": bound, "parent": quartiles(parent),
            "change": quartiles(change),
            "change_over_parent_median": round(
                statistics.median(change) / statistics.median(parent), 4),
            "change_wins": wins, "pairs": len(pairs),
            "verdict": verdict(parent, change, better, bound),
        }
    return summary


def claim_summary(workloads, spec):
    workload, metric = spec.split(":")
    s = workloads[workload]["summary"][metric]
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    diff = s["change"]["median"] - s["parent"]["median"]
    if s["better"] == "lower":
        diff = -diff
    return {"workload": workload, "metric": metric,
            "parent_median": s["parent"]["median"], "change_median": s["change"]["median"],
            "change_over_parent": s["change_over_parent_median"],
            "change_wins": f"{s['change_wins']} of {s['pairs']} pairs",
            "parent_iqr": round(iqr, 6), "median_difference": round(diff, 6),
            "met": s["change_wins"] * 10 >= 9 * s["pairs"] and diff > iqr}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace-seconds", type=float, default=10.0)
    ap.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sides = {"parent": args.parent, "change": args.change}
    for tree in sides.values():
        for cache in sorted(Path(tree).rglob("__pycache__")):
            shutil.rmtree(cache)
    workloads = {}
    trace = {}
    for spec in args.pairs:
        workload, n = spec.split("=")
        runs = []
        for i in range(int(n)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"pair": i + 1, "first": order[0]}
            for side in order:
                pair[side] = run(sides[side], workload, args.seed, args.seconds, 0)
                print(workload, i + 1, side, pair[side]["metrics"], file=sys.stderr)
            runs.append(pair)
        workloads[workload] = {"pairs": int(n), "summary": summarise(runs), "runs": runs}
        trace[workload] = {side: run(tree, workload, args.seed, args.trace_seconds, 1)
                           for side, tree in sides.items()}
    claim = claim_summary(workloads, args.claim) if args.claim else None
    trace_cmd = (f"python3 perfbench/run.py --workload WORKLOAD --seed {args.seed} "
                 f"--seconds {args.trace_seconds:g} --trace 1")
    Path(args.out).write_text(json.dumps({
        "command": f"python3 perfbench/run.py --workload WORKLOAD --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "claim": claim, "workloads": workloads,
        "trace": {"command": trace_cmd, **trace},
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
