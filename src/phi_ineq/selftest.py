"""The built-in verification battery behind ``phi-ineq selftest``.

Sections mirror the package's external guarantees: special-function
golden values, quadrature and fractional-integral laws, the integral
identity battery over the registry, the coefficient-oracle identities,
the expected printed-form discrepancies, the warm-up inequality and the
default sweep.  Each section returns (ok, detail); the runner prints one
line per section.
"""

from __future__ import annotations

import math
import random

from .bounds import EvalParams, t1_coefficients
from .coefquad import coef_integral
from .convexity import PhiKernel
from .fracint import rl_left, rl_right
from .functions import SMOOTH_BATTERY, registry
from .report import build_ledger, find_entry
from .specfun import gamma, gauss_2f1, incomplete_beta
from .verify import (
    default_sweep_plan,
    hermite_hadamard_check,
    identity_check,
    identity_tolerance,
    sweep,
    sweep_summary,
    verify_point,
)

BATTERY_SEED = 20260809
BATTERY_TUPLES = 20

COEFF_GRID_ALPHAS = (0.5, 1.0, 2.0, 3.5)
COEFF_GRID_LAMS = (0.0, 0.25, 0.5, 0.75, 1.0)


def lemma_identity_battery():
    """Residuals |S - identity_rhs| over the five smooth registry
    functions at ``BATTERY_TUPLES`` random parameter points each, seeded
    with ``BATTERY_SEED``, each from an :func:`identity_check` report."""
    rng = random.Random(BATTERY_SEED)
    reg = registry()
    rows = []
    for name in SMOOTH_BATTERY:
        fn = reg[name]
        a, b = fn.domain.a, fn.domain.b
        for _ in range(BATTERY_TUPLES):
            x = a + (b - a) * rng.uniform(0.02, 0.98)
            lam = rng.uniform(0.0, 1.0)
            alpha = rng.uniform(0.3, 3.0)
            r = identity_check(fn, EvalParams(fn.domain, x=x, lam=lam, alpha=alpha))
            rows.append((name, x, lam, alpha, r.lhs, r.rhs, r.margin, identity_tolerance(r.lhs)))
    return rows


EQUALITY_CASES = (
    # (function, lam, expected lhs) at x = 1/2, alpha = 1, q = 1, phi = 1
    ("t^3", 0.0, 0.25),
    ("t^2", 0.0, 1.0 / 6.0),
    ("t^2", 1.0, 1.0 / 12.0),
)


def equality_case_rows():
    """(function, lam, lhs, rhs, expected lhs) of each equality case, with
    lhs and rhs from the T1 verdict path."""
    reg = registry()
    k = PhiKernel.constant()
    rows = []
    for name, lam, expected in EQUALITY_CASES:
        fn = reg[name]
        params = EvalParams(fn.domain, x=0.5, lam=lam, alpha=1.0, q=1.0)
        r = verify_point(fn, params, k, "T1")
        rows.append((name, lam, r.lhs, r.rhs, expected))
    return rows


def section_specfun():
    checks = [
        ("gamma(0.5)", gamma(0.5), math.sqrt(math.pi), 1e-12, "rel"),
        ("gamma(5)", gamma(5.0), 24.0, 1e-12, "rel"),
        ("2F1(1,3,5,1)", gauss_2f1(1.0, 3.0, 5.0), 4.0, 1e-10, "abs"),
        ("incbeta(0.5,2,-0.5)", incomplete_beta(0.5, 2.0, -0.5), 3.0 * math.sqrt(2.0) - 4.0, 1e-9, "abs"),
    ]
    worst = None
    for label, got, want, tol, mode in checks:
        err = abs(got - want) / (abs(want) if mode == "rel" else 1.0)
        if err > tol:
            return False, f"{label}: got {got!r}, want {want!r} ({mode} err {err:.2e} > {tol})"
        if worst is None or err > worst[1]:
            worst = (label, err)
    return True, f"4 golden values; worst {worst[0]} err {worst[1]:.2e}"


def section_fracint():
    worst = 0.0
    for a, x in ((0.0, 1.0), (0.3, 1.2)):
        for beta in (0, 1, 2, 3):
            for alpha in (0.3, 0.5, 1.0, 1.7):
                got = rl_left(lambda t: (t - a) ** beta, a, alpha, x)
                want = gamma(beta + 1.0) / gamma(alpha + beta + 1.0) * (x - a) ** (alpha + beta)
                worst = max(worst, abs(got - want) / abs(want))
    if worst > 1e-8:
        return False, f"power law relative error {worst:.2e} > 1e-8"
    # mirror symmetry on [0, 1]
    f = lambda t: math.exp(t) * (1.0 + t)
    mirror = 0.0
    for alpha in (0.5, 1.0, 2.0):
        lhs = rl_right(f, 1.0, alpha, 0.25)
        rhs = rl_left(lambda t: f(1.0 - t), 0.0, alpha, 0.75)
        mirror = max(mirror, abs(lhs - rhs))
    if mirror > 1e-10:
        return False, f"mirror-symmetry residual {mirror:.2e} > 1e-10"
    return True, f"power law worst rel err {worst:.2e}; mirror residual {mirror:.2e}"


def section_identity_battery():
    rows = lemma_identity_battery()
    worst = max(rows, key=lambda r: r[6] / r[7])
    bad = [r for r in rows if r[6] > r[7]]
    if bad:
        name, x, lam, alpha = bad[0][:4]
        return False, f"{len(bad)}/{len(rows)} residuals above tolerance (first: {name} at x={x:.3f}, lam={lam:.3f}, alpha={alpha:.3f})"
    return True, f"{len(rows)} identity checks; worst residual {worst[6]:.2e} (allowed {worst[7]:.2e})"


def section_equality_cases():
    rows = equality_case_rows()
    for name, lam, lhs, rhs, expected in rows:
        if abs(rhs - lhs) > 1e-9:
            return False, f"{name} lam={lam}: |rhs-lhs| = {abs(rhs-lhs):.2e} > 1e-9"
        if abs(lhs - expected) > 1e-9:
            return False, f"{name} lam={lam}: lhs {lhs!r} != expected {expected!r}"
    return True, "3 equality configurations reproduce lhs in {1/4, 1/6, 1/12} with zero margin"


def section_coefficient_grid():
    k = PhiKernel.constant()
    worst_a1 = 0.0
    worst_id = 0.0
    for alpha in COEFF_GRID_ALPHAS:
        for lam in COEFF_GRID_LAMS:
            a1c = t1_coefficients(alpha, lam, k)[0]
            a1o = coef_integral("A1", alpha, lam)
            worst_a1 = max(worst_a1, abs(a1c - a1o))
            a2 = coef_integral("A2", alpha, lam, k)
            a3 = coef_integral("A3", alpha, lam, k)
            worst_id = max(worst_id, abs(a3 - (a1o - a2)))
    if worst_a1 > 1e-10:
        return False, f"A1 closed-vs-oracle residual {worst_a1:.2e} > 1e-10"
    if worst_id > 1e-10:
        return False, f"A3 = A1 - A2 identity residual {worst_id:.2e} > 1e-10"
    return True, f"20-point grid; A1 residual {worst_a1:.2e}, A3=A1-A2 residual {worst_id:.2e}"


# (finding, coefficient, alpha, lam, s, printed value, oracle value)
DISAGREEMENT_FINDINGS = (
    ("printed A3 at (alpha,lam)=(1,1): 0.25 vs oracle 1/12", "A3C", 1.0, 1.0, None, 0.25, 1.0 / 12.0),
    ("printed A3 at (1,0): -1/12 vs oracle +1/12", "A3C", 1.0, 0.0, None, -1.0 / 12.0, 1.0 / 12.0),
    ("printed A4 at (1,1,s=1): 5/12 vs oracle 1/12", "A4", 1.0, 1.0, 1.0, 5.0 / 12.0, 1.0 / 12.0),
)


def expected_findings(entries):
    """The discrepancies every correct build must reproduce."""
    findings = []
    for label, name, alpha, lam, s, printed, oracle in DISAGREEMENT_FINDINGS:
        e = find_entry(entries, name, alpha, lam, s=s)
        findings.append((
            label,
            e.verdict == "DISAGREES"
            and e.printed is not None and abs(e.printed - printed) <= 1e-12
            and abs(e.oracle - oracle) <= 1e-10,
            f"verdict={e.verdict}, printed={e.printed}, oracle={e.oracle}",
        ))
    e = find_entry(entries, "B_closed", 1.0, 1.0, p=2.0)
    findings.append((
        "printed B at (1,1,p=2) requests Beta with a negative parameter",
        e.verdict == "PRINTED_UNDEFINED",
        f"verdict={e.verdict}",
    ))
    return findings


def section_ledger():
    entries = build_ledger()
    findings = expected_findings(entries)
    failed = [f for f in findings if not f[1]]
    if failed:
        return False, f"expected finding missing: {failed[0][0]} ({failed[0][2]})"
    agrees = sum(1 for e in entries if e.verdict == "AGREES")
    disagrees = sum(1 for e in entries if e.verdict == "DISAGREES")
    undefined = sum(1 for e in entries if e.verdict == "PRINTED_UNDEFINED")
    return True, (
        f"{len(entries)} entries: {agrees} agree, {disagrees} disagree, "
        f"{undefined} printed-undefined; all 4 expected findings reproduced"
    )


def section_hermite_hadamard():
    reg = registry()
    expectations = {
        "t^2": (0.25, 1.0 / 3.0, 0.5),
        "exp(t)": (math.exp(0.5), math.e - 1.0, 0.5 * (1.0 + math.e)),
        "t": (0.5, 0.5, 0.5),
    }
    for name, (mid, mean, end) in expectations.items():
        r = hermite_hadamard_check(reg[name])
        if r.status != "PASS":
            return False, f"{name}: status {r.status}"
        got = (r.oracle_residuals["midpoint"], r.oracle_residuals["integral_mean"],
               r.oracle_residuals["endpoint_avg"])
        if max(abs(g - w) for g, w in zip(got, (mid, mean, end))) > 1e-10:
            return False, f"{name}: triple {got} != expected {(mid, mean, end)}"
    return True, "t^2, exp(t) and the linear equality case all PASS with exact triples"


def section_sweep():
    reports = sweep(default_sweep_plan())
    counts = sweep_summary(reports)
    if counts["total"] < 500:
        return False, f"sweep produced only {counts['total']} points"
    if counts["FAIL"] or counts["ERROR"]:
        return False, f"sweep counts {counts}"
    control = [r for r in reports
               if r.function == "sqrt_control" and r.status == "HYPOTHESIS_UNMET"]
    if not control:
        return False, "non-convex control produced no HYPOTHESIS_UNMET point"
    return True, (
        f"{counts['total']} points: {counts['PASS']} pass, 0 fail, "
        f"{counts['HYPOTHESIS_UNMET']} hypothesis-unmet ({len(control)} from the control)"
    )


SECTIONS = (
    ("special-functions", section_specfun),
    ("fractional-integrals", section_fracint),
    ("identity-battery", section_identity_battery),
    ("equality-cases", section_equality_cases),
    ("coefficient-grid", section_coefficient_grid),
    ("discrepancy-ledger", section_ledger),
    ("hermite-hadamard", section_hermite_hadamard),
    ("default-sweep", section_sweep),
)


def run_selftest():
    """Run every section, printing one line each; returns 0 when all
    pass, 1 otherwise."""
    failures = 0
    for name, fn in SECTIONS:
        ok, detail = fn()
        failures += 0 if ok else 1
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    note = (
        "note: the printed A3 closed form disagrees with its quadrature oracle "
        "(e.g. (alpha,lam)=(1,1): printed 0.25 vs oracle 0.0833...); this is an "
        "expected finding surfaced by the coeffs command, not a failure."
    )
    print(note)
    if failures:
        print(f"selftest: {len(SECTIONS) - failures}/{len(SECTIONS)} sections passed")
        return 1
    print(f"selftest: all {len(SECTIONS)} sections passed")
    return 0
