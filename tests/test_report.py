"""Discrepancy-ledger tests: coverage, verdicts and the findings every
correct build must reproduce."""

import pytest

from phi_ineq.coefquad import coef_integral
from phi_ineq.convexity import PhiKernel
from phi_ineq.report import build_ledger, find_entry
from phi_ineq.selftest import expected_findings


@pytest.fixture(scope="module")
def ledger():
    return build_ledger()


def test_every_printed_form_covered(ledger):
    names = {"A2C", "A3C", "A4", "A5", "B_closed", "C1", "C2"}
    for name in names:
        entries = [e for e in ledger if e.coefficient == name]
        assert len(entries) >= 6
        lams = {e.lam for e in entries}
        assert 0.0 in lams and 1.0 in lams


def test_sorted_and_deterministic(ledger):
    keys = [(e.coefficient, e.alpha, e.lam, e.s or -1.0, e.p or -1.0) for e in ledger]
    assert keys == sorted(keys)
    assert build_ledger() == ledger


def test_a2c_agrees_everywhere(ledger):
    assert all(e.verdict == "AGREES" for e in ledger if e.coefficient == "A2C")


def test_a3c_expected_disagreements(ledger):
    e = find_entry(ledger, "A3C", 1.0, 1.0)
    assert e.verdict == "DISAGREES"
    assert e.printed == pytest.approx(0.25, abs=1e-12)
    assert e.oracle == pytest.approx(1.0 / 12.0, abs=1e-10)
    e = find_entry(ledger, "A3C", 1.0, 0.0)
    assert e.verdict == "DISAGREES"
    assert e.printed == pytest.approx(-1.0 / 12.0, abs=1e-12)
    assert e.oracle == pytest.approx(1.0 / 12.0, abs=1e-10)


def test_a4_expected_disagreement(ledger):
    e = find_entry(ledger, "A4", 1.0, 1.0, s=1.0)
    assert e.verdict == "DISAGREES"
    assert e.printed == pytest.approx(5.0 / 12.0, abs=1e-12)
    assert e.oracle == pytest.approx(1.0 / 12.0, abs=1e-10)
    # at lam = 0 the printed form reduces to the correct 1/(alpha+s+2)
    assert find_entry(ledger, "A4", 1.0, 0.0, s=1.0).verdict == "AGREES"


def test_a5_boundary_agreement_interior_disagreement(ledger):
    for lam in (0.0, 1.0):
        assert find_entry(ledger, "A5", 1.0, lam, s=1.0).verdict == "AGREES"
    assert find_entry(ledger, "A5", 1.0, 0.5, s=1.0).verdict == "DISAGREES"


def test_b_closed_and_c2_printed_undefined(ledger):
    for name in ("B_closed", "C2"):
        assert all(e.verdict == "PRINTED_UNDEFINED"
                   for e in ledger if e.coefficient == name)
        e = find_entry(ledger, name, 1.0, 1.0, p=2.0)
        assert e.printed is None and e.abs_diff is None


def test_c1_verdicts(ledger):
    e = find_entry(ledger, "C1", 1.0, 1.0, p=2.0)
    assert e.verdict == "DISAGREES"
    assert e.printed == pytest.approx(24.0, rel=1e-10)
    assert e.oracle == pytest.approx(1.0 / 30.0, abs=1e-10)
    # zero prefactor at lam = 0 matches the empty-range oracle
    assert find_entry(ledger, "C1", 1.0, 0.0, p=2.0).verdict == "AGREES"


def test_oracles_are_single_source_of_truth(ledger):
    constant = PhiKernel.constant()
    e = find_entry(ledger, "A2C", 1.0, 1.0)
    assert e.oracle == coef_integral("A2", 1.0, 1.0, constant)
    e = find_entry(ledger, "B_closed", 2.0, 0.5, p=2.0)
    assert e.oracle == coef_integral("B", 2.0, 0.5, p=2.0)


def test_expected_findings_all_reproduced(ledger):
    findings = expected_findings(ledger)
    assert len(findings) == 4
    assert all(ok for _, ok, _ in findings)
