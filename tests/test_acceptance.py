"""Acceptance suite: the package's exit criteria, one test per criterion,
each printing a PASS line with the measured worst case.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline).
"""

import json
import math
import time

import pytest

from phi_ineq.bounds import coef_a1
from phi_ineq.cli import main
from phi_ineq.coefquad import coef_integral
from phi_ineq.convexity import PhiKernel
from phi_ineq.fracint import rl_left, rl_right
from phi_ineq.functions import registry
from phi_ineq.report import build_ledger, find_entry
from phi_ineq.selftest import (
    equality_case_rows,
    lemma_identity_battery,
    run_selftest,
)
from phi_ineq.specfun import gamma, gauss_2f1, incomplete_beta
from phi_ineq.verify import default_sweep_plan, hermite_hadamard_check, sweep, sweep_summary

CONST = PhiKernel.constant()


def test_c1_lemma_identity_battery():
    start = time.perf_counter()
    rows = lemma_identity_battery()
    elapsed = time.perf_counter() - start
    assert len(rows) == 100
    assert {r[0] for r in rows} == {"t^2", "t^3", "t^4", "exp(t)", "-ln(t)"}
    worst = 0.0
    for name, x, lam, alpha, s_val, rhs, resid, allowed in rows:
        assert resid <= allowed, (name, x, lam, alpha, resid, allowed)
        worst = max(worst, resid / allowed)
    assert elapsed <= 10.0
    print(f"ACCEPTANCE 1 PASS: 100 identity residuals <= 1e-8*max(1,|S|) "
          f"(worst ratio {worst:.2e}) in {elapsed:.2f}s")


def test_c2_equality_cases():
    rows = equality_case_rows()
    expected = {("t^3", 0.0): 0.25, ("t^2", 0.0): 1.0 / 6.0, ("t^2", 1.0): 1.0 / 12.0}
    for name, lam, lhs, rhs, _ in rows:
        assert abs(rhs - lhs) <= 1e-9
        assert lhs == pytest.approx(expected[(name, lam)], abs=1e-9)
    print("ACCEPTANCE 2 PASS: equality cases lhs=1/4, 1/6, 1/12 with |rhs-lhs| <= 1e-9")


def test_c3_coefficient_oracles():
    worst_a1 = worst_identity = 0.0
    for alpha in (0.5, 1.0, 2.0, 3.5):
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            a1o = coef_integral("A1", alpha, lam)
            worst_a1 = max(worst_a1, abs(coef_a1(alpha, lam) - a1o))
            a2 = coef_integral("A2", alpha, lam, CONST)
            a3 = coef_integral("A3", alpha, lam, CONST)
            worst_identity = max(worst_identity, abs(a3 - (a1o - a2)))
    assert worst_a1 <= 1e-10
    assert worst_identity <= 1e-10
    print(f"ACCEPTANCE 3 PASS: 20-point grid, A1 closed-vs-oracle {worst_a1:.2e}, "
          f"A3=A1-A2 {worst_identity:.2e} (both <= 1e-10)")


def test_c4_discrepancy_ledger_findings(capsys):
    ledger = build_ledger()
    e = find_entry(ledger, "A3C", 1.0, 1.0)
    assert e.verdict == "DISAGREES"
    assert e.printed == pytest.approx(0.25, abs=1e-12)
    assert e.oracle == pytest.approx(1.0 / 12.0, abs=1e-10)
    e = find_entry(ledger, "A3C", 1.0, 0.0)
    assert e.verdict == "DISAGREES"
    assert e.printed == pytest.approx(-1.0 / 12.0, abs=1e-12)
    assert e.oracle == pytest.approx(1.0 / 12.0, abs=1e-10)
    e = find_entry(ledger, "A4", 1.0, 1.0, s=1.0)
    assert e.verdict == "DISAGREES"
    assert e.printed == pytest.approx(5.0 / 12.0, abs=1e-12)
    assert e.oracle == pytest.approx(1.0 / 12.0, abs=1e-10)
    # the selftest reproduces the same findings
    assert run_selftest() == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("discrepancy-ledger" in line and line.startswith("[ok]") for line in lines)
    print("ACCEPTANCE 4 PASS: printed A3 and A4 discrepancies reproduced by "
          "the ledger and the selftest")


def test_c5_default_sweep():
    reports = sweep(default_sweep_plan())
    counts = sweep_summary(reports)
    assert counts["total"] >= 500
    assert counts["FAIL"] == 0
    assert counts["ERROR"] == 0
    control = [r for r in reports
               if r.function == "sqrt_control" and r.status == "HYPOTHESIS_UNMET"]
    assert len(control) >= 1
    print(f"ACCEPTANCE 5 PASS: {counts['total']} sweep points, 0 FAIL, "
          f"{counts['HYPOTHESIS_UNMET']} hypothesis-unmet ({len(control)} from the control)")


def test_c6_special_functions():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)
    assert gauss_2f1(1.0, 3.0, 5.0) == pytest.approx(4.0, abs=1e-10)
    assert incomplete_beta(0.5, 2.0, -0.5) == pytest.approx(
        3.0 * math.sqrt(2.0) - 4.0, abs=1e-9)
    print("ACCEPTANCE 6 PASS: Gamma goldens (1e-12 rel), 2F1 summation (1e-10), "
          "incomplete Beta with negative parameter (1e-9)")


def test_c7_fractional_integrals():
    worst = 0.0
    for a, x in ((0.0, 1.0), (0.3, 1.2)):
        for beta in (0, 1, 2, 3):
            for alpha in (0.3, 0.5, 1.0, 1.7):
                got = rl_left(lambda t: (t - a) ** beta, a, alpha, x)
                want = gamma(beta + 1.0) / gamma(alpha + beta + 1.0) * (x - a) ** (alpha + beta)
                rel = abs(got - want) / abs(want)
                assert rel <= 1e-8, (a, x, beta, alpha, rel)
                worst = max(worst, rel)
    mirror = 0.0
    f = lambda t: math.exp(t) * (1.0 + t)
    for alpha in (0.3, 0.5, 1.0, 2.0):
        for x in (0.25, 0.6):
            lhs = rl_right(f, 1.0, alpha, x)
            rhs = rl_left(lambda t: f(1.0 - t), 0.0, alpha, 1.0 - x)
            diff = abs(lhs - rhs)
            assert diff <= 1e-10
            mirror = max(mirror, diff)
    print(f"ACCEPTANCE 7 PASS: power law to 1e-8 rel incl. singular kernels "
          f"(worst {worst:.2e}); mirror symmetry to 1e-10 (worst {mirror:.2e})")


def test_c8_hermite_hadamard_warmup():
    reg = registry()
    expected = {
        "t^2": (0.25, 1.0 / 3.0, 0.5),
        "exp(t)": (math.exp(0.5), math.e - 1.0, 0.5 * (1.0 + math.e)),
        "t": (0.5, 0.5, 0.5),
    }
    for name, triple in expected.items():
        r = hermite_hadamard_check(reg[name])
        assert r.status == "PASS"
        got = (r.oracle_residuals["midpoint"], r.oracle_residuals["integral_mean"],
               r.oracle_residuals["endpoint_avg"])
        assert got == pytest.approx(triple, abs=1e-10)
    print("ACCEPTANCE 8 PASS: warm-up inequality holds for t^2, exp(t) and "
          "the linear equality case with the exact triples")


def test_c9_determinism_and_exit_codes(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({
        "functions": ["t^2", "t^3", "exp(t)", "sqrt_control"],
        "kernels": ["constant", "power:0.5", "mt"],
        "x": [0.25, 0.5, 0.75], "lambda": [0.0, 0.3333333333333333, 1.0],
        "alpha": [0.5, 1.0, 2.0], "q": [1.0, 2.0],
    }))
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", str(plan_file), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(plan_file), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["verify", "--fn", "t^3", "--theorem", "t1"]) == 0
    assert main(["verify", "--fn", "t^2", "--theorem", "t1",
                 "--inject-bound-scale", "0.01"]) == 1
    assert main(["verify", "--fn", "t^2", "--lambda", "1.5"]) == 2
    assert main(["verify", "--fn", "t^2", "--quad-tol", "1e-30"]) == 3
    capsys.readouterr()
    print("ACCEPTANCE 9 PASS: byte-identical sweep CSV; exit codes 0/1/2/3 "
          "verified incl. a fault-injected FAIL")
