"""Tests of the benchmark's own checker and input generators.

    python3 -m pytest perfbench/test_checker.py

A bound corrupted through ``verify_point(..., rhs_scale=0.5)`` and an
injected ERROR verdict must both count as failures, and every generator
must give the same inputs for the same seed.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from phi_ineq import cli  # noqa: E402
from phi_ineq.bounds import EvalParams  # noqa: E402
from phi_ineq.convexity import PhiKernel  # noqa: E402
from phi_ineq.functions import registry  # noqa: E402
from phi_ineq.report import build_ledger  # noqa: E402
from phi_ineq import verify  # noqa: E402

POINTS = workloads.scatter_points(7)[:60]
KERNELS = {"constant": PhiKernel.constant(), "power:0.5": PhiKernel.power(0.5),
           "mt": PhiKernel.mt()}


def _reports(points, **kwargs):
    reg = registry()
    out = []
    for pt in points:
        fn = reg[pt["function"]]
        params = EvalParams(fn.domain, x=pt["x"], lam=pt["lam"], alpha=pt["alpha"], q=pt["q"])
        out.append(verify.verify_point(fn, params, KERNELS[pt["kernel"]], pt["theorem"], **kwargs))
    return out


def _failed_ratio(reports):
    attempted, failed, _ = run.check_reports(cli.reports_to_csv(reports), points=POINTS)
    return failed / attempted


def test_correct_reports_pass():
    assert _failed_ratio(_reports(POINTS)) == 0.0


def test_corrupted_bound_raises_failed_ratio():
    reports = _reports(POINTS, rhs_scale=0.5)
    # f = t has f'' = 0, so its bound is 0 and halving it changes nothing
    corrupted = sum(1 for r in reports if r.rhs != 0.0)
    assert corrupted > 0
    assert _failed_ratio(reports) == corrupted / len(reports)


def test_injected_error_raises_failed_ratio():
    reports = _reports(POINTS)
    reports[3] = dataclasses.replace(reports[3], lhs=None, rhs=None, margin=None,
                                     status="ERROR", message="injected")
    assert _failed_ratio(reports) == 1.0 / len(reports)


def test_flipped_verdict_is_caught():
    reports = _reports(POINTS)
    i = next(i for i, r in enumerate(reports) if r.status == "PASS")
    reports[i] = dataclasses.replace(reports[i], status="FAIL")
    assert _failed_ratio(reports) == 1.0 / len(reports)


def test_ledger_check_needs_the_expected_findings():
    text = cli.ledger_to_csv(build_ledger())
    attempted, failed, _ = oracle.check_ledger(oracle.Oracle(), text)
    assert (attempted, failed) == (135 + len(oracle.EXPECTED_FINDINGS), 0)
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("A3C,1.0,1.0,"))
    lines[i] = lines[i].replace("DISAGREES", "AGREES")
    _, failed, _ = oracle.check_ledger(oracle.Oracle(), "\n".join(lines) + "\n")
    assert failed == 2  # the verdict contradicts its numbers, and a finding is lost


def test_selftest_check_needs_exit_zero_and_findings():
    good = "[ok] discrepancy-ledger: all 4 expected findings reproduced\nselftest: all 8 sections passed\n"
    assert oracle.check_selftest(good, 0) == []
    assert oracle.check_selftest(good, 1)
    assert oracle.check_selftest("selftest: all 8 sections passed\n", 0)


def test_generators_are_deterministic_per_seed():
    for make in (workloads.sweep_plan, workloads.scatter_points, workloads.cli_session):
        assert make(11) == make(11)
        assert make(11) != make(12)


def test_sweep_plan_is_the_20790_point_plan_for_every_seed():
    for seed in (1, 2):
        assert len(run._sweep_expected(workloads.sweep_plan(seed))) == workloads.SWEEP_POINTS


def test_tracer_counts_layers_and_reports_absent_functions(monkeypatch):
    import tracer

    monkeypatch.setitem(tracer.LAYERS, "report",
                        ("phi_ineq.report", ("build_ledger", "no_such_function")))
    t = tracer.install()
    assert t.absent == ["phi_ineq.report.no_such_function"]
    _reports(workloads.scatter_points(99)[:3])  # points no earlier test has cached
    totals = t.totals()
    assert totals["verify.points"] == 3
    assert totals["bounds.s_calls"] == 3
    assert totals["quadrature.integrals"] > 0
    assert totals["trace.absent_functions"] == 1
