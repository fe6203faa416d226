"""Independent oracle for phi-ineq's outputs.

Every number the program reports is recomputed here with
``scipy.integrate.quad`` and closed-form derivatives, without importing
phi_ineq:

* the Riemann-Liouville integrals through ``weight='alg'``, so the
  endpoint singularity of the kernel is the weight, not the integrand;
* Gamma(alpha+2)/Gamma(alpha) taken as alpha*(alpha+1);
* the kink lam**(1/alpha) of |t*(lam - t**alpha)| given as a break point.

|S| is compared relative to the largest of its four terms, never relative
to itself: for f = t the terms cancel and S is zero.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings

from scipy.integrate import IntegrationWarning, quad

# Agreement allowed between program and oracle.  On the 20,790-point sweep
# they agree to 9e-15 (|S|, relative to its largest term) and 9e-14 (the
# bounds, relative to themselves).
LHS_RTOL = 1e-10
RHS_RTOL = 1e-9
HH_RTOL = 1e-10
SERIALIZE_RTOL = 1e-12  # a number the program derives from its own outputs
TOL = 1e-9              # margin tolerance of every verdict the benchmark requests
AGREE_TOL = 1e-8        # the ledger's AGREES threshold

# Every other registry f'' is nonnegative and convex, so |f''|**q is
# phi-convex for all three kernels; only this control may miss the gate.
UNMET_ALLOWED = frozenset({"sqrt_control"})

DOMAINS = {
    "t": (0.0, 1.0), "t^2": (0.0, 1.0), "t^3": (0.0, 1.0), "t^4": (0.0, 1.0),
    "exp(t)": (0.0, 1.0), "-ln(t)": (0.5, 2.0), "sqrt_control": (0.0, 1.0),
}

# (f, f', f'') of the registry, from closed forms.
_REGISTRY_FORMS = {
    "t": (lambda t: t, lambda t: 1.0, lambda t: 0.0),
    "t^2": (lambda t: t * t, lambda t: 2.0 * t, lambda t: 2.0),
    "t^3": (lambda t: t ** 3, lambda t: 3.0 * t * t, lambda t: 6.0 * t),
    "t^4": (lambda t: t ** 4, lambda t: 4.0 * t ** 3, lambda t: 12.0 * t * t),
    "exp(t)": (math.exp, math.exp, math.exp),
    "-ln(t)": (lambda t: -math.log(t), lambda t: -1.0 / t, lambda t: 1.0 / (t * t)),
    "sqrt_control": (lambda t: (4.0 / 15.0) * t ** 2.5, lambda t: (2.0 / 3.0) * t ** 1.5,
                     lambda t: t ** 0.5),
}

# Parsed-expression templates: source text and closed forms in c, d.
_EXPRESSIONS = {
    "poly2": ("{c}*t^2 - {d}*t", lambda c, d: (
        lambda t: c * t * t - d * t, lambda t: 2.0 * c * t - d, lambda t: 2.0 * c)),
    "poly3": ("{c}*t^3 - {d}*t", lambda c, d: (
        lambda t: c * t ** 3 - d * t, lambda t: 3.0 * c * t * t - d, lambda t: 6.0 * c * t)),
    "poly4": ("{c}*t^4 - {d}*t", lambda c, d: (
        lambda t: c * t ** 4 - d * t, lambda t: 4.0 * c * t ** 3 - d, lambda t: 12.0 * c * t * t)),
    "exp": ("{c}*exp(t) + {d}*t^2", lambda c, d: (
        lambda t: c * math.exp(t) + d * t * t, lambda t: c * math.exp(t) + 2.0 * d * t,
        lambda t: c * math.exp(t) + 2.0 * d)),
}


def expression_spec(template, c, d):
    """A parsed-expression test function: its source text for ``--fn`` and
    what the oracle needs to rebuild it."""
    source = _EXPRESSIONS[template][0].format(c=repr(c), d=repr(d))
    return {"kind": "expr", "template": template, "c": c, "d": d, "source": source}


def function_forms(spec):
    """(f, f', f'') for a registry spec or an expression spec."""
    if spec["kind"] == "registry":
        return _REGISTRY_FORMS[spec["name"]]
    return _EXPRESSIONS[spec["template"]][1](spec["c"], spec["d"])


class OracleError(Exception):
    """scipy could not reach the oracle's own tolerance."""


def _quad(g, lo, hi, weight_exponents=(0.0, 0.0), points=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            if weight_exponents == (0.0, 0.0):
                value, _ = quad(g, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=500, points=points)
            else:
                value, _ = quad(g, lo, hi, weight="alg", wvar=weight_exponents,
                                epsabs=1e-14, epsrel=1e-12, limit=500)
        except IntegrationWarning as exc:
            raise OracleError(f"quad on [{lo}, {hi}]: {exc}") from None
    return value


def parse_kernel(label):
    """("constant"|"power"|"mt", s) from a report's kernel label."""
    if label.startswith("power(") and label.endswith(")"):
        return "power", float(label[6:-1])
    return label, None


def _family_integrand(family, alpha, lam, kind, s, p):
    """(c, e0, e1) with integrand c(t) * t**e0 * (1-t)**e1, c smooth away
    from the kink."""
    def base(t):
        return abs(t * (lam - t ** alpha))
    if family == "A1":
        return base, 0.0, 0.0
    if family == "B":
        return (lambda t: base(t) ** p), 0.0, 0.0
    if family == "A2":  # |base| * t * phi(t)
        if kind == "constant":
            return (lambda t: base(t) * t), 0.0, 0.0
        if kind == "power":
            return base, s, 0.0
        return (lambda t: 0.5 * base(t)), 0.5, -0.5
    if family == "A3":  # |base| * (1-t) * phi(1-t)
        if kind == "constant":
            return (lambda t: base(t) * (1.0 - t)), 0.0, 0.0
        if kind == "power":
            return base, 0.0, s
        return (lambda t: 0.5 * base(t)), -0.5, 0.5
    # M = int t * phi(t)
    if kind == "constant":
        return (lambda t: 1.0), 1.0, 0.0
    if kind == "power":
        return (lambda t: 1.0), s, 0.0
    return (lambda t: 0.5), 0.5, -0.5


class Oracle:
    """Memoised oracle values; one instance per checked output set."""

    def __init__(self):
        self._coef = {}
        self._rl = {}

    def coefficient(self, family, alpha, lam, kind=None, s=None, p=None, lo=0.0, hi=1.0):
        key = (family, alpha, lam, kind, s, p, lo, hi)
        if key not in self._coef:
            self._coef[key] = self._coefficient(*key)
        return self._coef[key]

    def _coefficient(self, family, alpha, lam, kind, s, p, lo, hi):
        c, e0, e1 = _family_integrand(family, alpha, lam, kind, s, p)
        kink = lam ** (1.0 / alpha) if family != "M" and 0.0 < lam < 1.0 else None
        inside = kink is not None and lo < kink < hi
        if e0 == 0.0 and e1 == 0.0:
            return _quad(c, lo, hi, points=(kink,) if inside else None)
        edges = [lo, kink, hi] if inside else [lo, hi]
        total = 0.0
        for u, v in zip(edges, edges[1:]):
            w0 = e0 if u == 0.0 else 0.0
            w1 = e1 if v == 1.0 else 0.0

            def g(t, w0=w0, w1=w1):
                out = c(t)
                if e0 != w0:
                    out *= t ** e0
                if e1 != w1:
                    out *= (1.0 - t) ** e1
                return out
            total += _quad(g, u, v, (w0, w1))
        return total

    def s_value(self, key, forms, a, b, x, lam, alpha):
        """(S, largest |term|) at one point."""
        f, f1, _ = forms
        w = b - a
        dxa, dbx = x - a, b - x
        rl_key = (key, a, b, x, alpha)
        if rl_key not in self._rl:
            left = _quad(f, a, x, (alpha - 1.0, 0.0)) if x > a else 0.0
            right = _quad(f, x, b, (0.0, alpha - 1.0)) if x < b else 0.0
            self._rl[rl_key] = left + right
        terms = (
            (1.0 - lam) * (dbx ** (alpha + 1.0) - dxa ** (alpha + 1.0)) / w * f1(x),
            (1.0 + alpha - lam) * (dxa ** alpha + dbx ** alpha) / w * f(x),
            lam * (dxa ** alpha * f(a) + dbx ** alpha * f(b)) / w,
            -alpha * (alpha + 1.0) / w * self._rl[rl_key],
        )
        return math.fsum(terms), max(abs(t) for t in terms)

    def bound(self, theorem, forms, a, b, x, lam, alpha, q, kind, s):
        """The T1 or T2 right-hand side at one point."""
        f2 = forms[2]
        w = b - a
        fx, fa, fb = (abs(f2(t)) ** q for t in (x, a, b))
        wa = (x - a) ** (alpha + 2.0) / w
        wb = (b - x) ** (alpha + 2.0) / w
        if theorem == "T1":
            a2 = self.coefficient("A2", alpha, lam, kind, s)
            a3 = self.coefficient("A3", alpha, lam, kind, s)
            pre = 1.0 if q == 1.0 else self.coefficient("A1", alpha, lam) ** (1.0 - 1.0 / q)
            return pre * (wa * (a2 * fx + a3 * fa) ** (1.0 / q)
                          + wb * (a2 * fx + a3 * fb) ** (1.0 / q))
        p = q / (q - 1.0)
        m = self.coefficient("M", 1.0, 0.0, kind, s)
        b_val = self.coefficient("B", alpha, lam, p=p)
        return b_val ** (1.0 / p) * (wa * ((fx + fa) * m) ** (1.0 / q)
                                     + wb * ((fx + fb) * m) ** (1.0 / q))

    def identity(self, forms, a, b, x, lam, alpha):
        """(second-derivative form of S, largest |part|)."""
        f2 = forms[2]
        w = b - a
        kink = lam ** (1.0 / alpha) if 0.0 < lam < 1.0 else None
        parts = []
        for end, weight in ((a, (x - a) ** (alpha + 2.0) / w), (b, (b - x) ** (alpha + 2.0) / w)):
            def g(t, end=end):
                return t * (lam - t ** alpha) * f2(t * x + (1.0 - t) * end)
            parts.append(weight * _quad(g, 0.0, 1.0, points=(kink,) if kink else None))
        return math.fsum(parts), max(abs(v) for v in parts)


# ---------------------------------------------------------------- reports

STATUSES = ("PASS", "FAIL", "HYPOTHESIS_UNMET", "ERROR")


def parse_reports(text):
    """Report rows from the CSV or JSON output, as dicts keyed by the CSV
    header, with numbers as floats, empty cells as None and booleans as
    bools."""
    if text.lstrip().startswith("{"):
        rows = [{k: v for k, v in r.items() if k != "message"} for r in json.loads(text)["reports"]]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for r in rows:
        row = {}
        for k, v in r.items():
            if v is None or v == "":
                row[k] = None
            elif k in ("function", "kernel", "theorem", "status"):
                row[k] = v
            elif k == "hypothesis_ok":
                row[k] = v if isinstance(v, bool) else v == "true"
            else:
                row[k] = float(v)
        out.append(row)
    return out


def _close(label, got, want, atol):
    if got is None or not abs(got - want) <= atol:
        return [f"{label} {got!r} vs oracle {want!r} (allowed {atol:.1e})"]
    return []


def check_report(oracle, row, key, forms):
    """Problems with one report row; ``key`` names the test function for
    memoisation and ``forms`` is its (f, f', f'')."""
    try:
        return _check_report(oracle, row, key, forms)
    except OracleError as exc:
        return [f"oracle did not converge: {exc}"]


def _check_report(oracle, row, key, forms):
    th, status = row["theorem"], row["status"]
    if status == "ERROR":
        return ["ERROR verdict"]
    if status not in STATUSES:
        return [f"unknown status {status!r}"]
    a, b, x, lam, alpha, q = (row[k] for k in ("a", "b", "x", "lambda", "alpha", "q"))
    lhs, rhs, margin = row["lhs"], row["rhs"], row["margin"]
    if lhs is None or rhs is None or margin is None:
        return ["missing lhs, rhs or margin"]
    problems = []
    if th == "HH":
        f = forms[0]
        mid = f(0.5 * (a + b))
        mean = _quad(f, a, b) / (b - a)
        end = 0.5 * (f(a) + f(b))
        scale = max(abs(mid), abs(mean), abs(end)) * HH_RTOL
        problems += _close("midpoint", lhs, mid, scale)
        problems += _close("endpoint average", rhs, end, scale)
        problems += _close("margin", margin, min(mean - mid, end - mean), scale)
        if status != "PASS" or not row["hypothesis_ok"]:
            problems.append(f"status {status} for a convex function")
        return problems

    s_val, s_scale = oracle.s_value(key, forms, a, b, x, lam, alpha)
    if th == "LEMMA1":
        r_val, r_scale = oracle.identity(forms, a, b, x, lam, alpha)
        problems += _close("S", lhs, s_val, LHS_RTOL * s_scale)
        problems += _close("identity rhs", rhs, r_val, LHS_RTOL * max(r_scale, s_scale))
        problems += _close("margin", margin, abs(lhs - rhs), SERIALIZE_RTOL * s_scale)
        if status != "PASS":
            problems.append(f"identity status {status}; the identity holds for smooth f")
        return problems

    kind, s = parse_kernel(row["kernel"])
    lhs_o = abs(s_val)
    rhs_o = oracle.bound(th, forms, a, b, x, lam, alpha, q, kind, s)
    lhs_tol = LHS_RTOL * s_scale
    rhs_tol = RHS_RTOL * rhs_o
    problems += _close("lhs", lhs, lhs_o, lhs_tol)
    problems += _close("rhs", rhs, rhs_o, rhs_tol)
    problems += _close("margin", margin, rhs - lhs, SERIALIZE_RTOL * max(abs(lhs), abs(rhs)))
    if th == "T2":
        problems += _close("p", row["p"], q / (q - 1.0), SERIALIZE_RTOL * q / (q - 1.0))
    if not row["hypothesis_ok"]:
        if key not in UNMET_ALLOWED:
            problems.append("hypothesis gate failed for a function whose |f''|^q is phi-convex")
        if status != "HYPOTHESIS_UNMET":
            problems.append(f"status {status} with the hypothesis unmet")
        return problems
    if status not in ("PASS", "FAIL"):
        problems.append(f"status {status} with the hypothesis met")
    elif (status == "PASS") != (margin >= -TOL):
        problems.append(f"status {status} does not follow from margin {margin!r}")
    oracle_margin = rhs_o - lhs_o
    guard = lhs_tol + rhs_tol
    if oracle_margin >= -TOL + guard and status != "PASS":
        problems.append(f"status {status} but oracle margin {oracle_margin!r}")
    if oracle_margin < -TOL - guard and status != "FAIL":
        problems.append(f"status {status} but oracle margin {oracle_margin!r}")
    return problems


# ----------------------------------------------------------------- ledger

_LEDGER_FAMILY = {"A2C": ("A2", "constant"), "A3C": ("A3", "constant"),
                  "A4": ("A2", "power"), "A5": ("A3", "power")}

# The four discrepancies every correct build reproduces:
# (coefficient, alpha, lambda, s, p) -> (verdict, printed, oracle)
EXPECTED_FINDINGS = {
    ("A3C", 1.0, 1.0, None, None): ("DISAGREES", 0.25, 1.0 / 12.0),
    ("A3C", 1.0, 0.0, None, None): ("DISAGREES", -1.0 / 12.0, 1.0 / 12.0),
    ("A4", 1.0, 1.0, 1.0, None): ("DISAGREES", 5.0 / 12.0, 1.0 / 12.0),
    ("B_closed", 1.0, 1.0, None, 2.0): ("PRINTED_UNDEFINED", None, None),
}


def _ledger_oracle(oracle, name, alpha, lam, s, p):
    if name in _LEDGER_FAMILY:
        family, kind = _LEDGER_FAMILY[name]
        return oracle.coefficient(family, alpha, lam, kind, s if kind == "power" else None)
    if name == "B_closed":
        return oracle.coefficient("B", alpha, lam, p=p)
    m = lam ** (1.0 / alpha) if lam > 0.0 else 0.0
    if name == "C1":
        return 0.0 if m == 0.0 else oracle.coefficient("B", alpha, lam, p=p, hi=m)
    return 0.0 if m == 1.0 else oracle.coefficient("B", alpha, lam, p=p, lo=m)


def check_ledger(oracle, text):
    """(entries checked, entries with a problem, first problems) for the
    ``coeffs`` CSV: every oracle value against scipy, every verdict
    against its own numbers, and the four expected findings."""
    rows = list(csv.DictReader(io.StringIO(text)))
    bad, notes = 0, []
    seen = {}
    for r in rows:
        num = {k: (float(r[k]) if r[k] != "" else None)
               for k in ("alpha", "lambda", "s", "p", "printed", "oracle", "abs_diff")}
        name = r["coefficient"]
        problems = []
        try:
            want = _ledger_oracle(oracle, name, num["alpha"], num["lambda"], num["s"], num["p"])
            problems += _close("oracle", num["oracle"], want, 1e-10 * max(1.0, abs(want)))
        except OracleError as exc:
            problems.append(f"oracle did not converge: {exc}")
        if num["printed"] is None:
            if r["verdict"] != "PRINTED_UNDEFINED":
                problems.append(f"verdict {r['verdict']} without a printed value")
        else:
            problems += _close("abs_diff", num["abs_diff"], abs(num["printed"] - num["oracle"]),
                               SERIALIZE_RTOL * max(1.0, abs(num["oracle"])))
            want_verdict = "AGREES" if num["abs_diff"] <= AGREE_TOL else "DISAGREES"
            if r["verdict"] != want_verdict:
                problems.append(f"verdict {r['verdict']}, its numbers say {want_verdict}")
        key = (name, num["alpha"], num["lambda"], num["s"], num["p"])
        seen[key] = (r["verdict"], num["printed"], num["oracle"])
        if problems:
            bad += 1
            notes.append(f"ledger {key}: {'; '.join(problems)}")
    for key, (verdict, printed, value) in EXPECTED_FINDINGS.items():
        got = seen.get(key)
        ok = (got is not None and got[0] == verdict
              and (printed is None or abs(got[1] - printed) <= 1e-12)
              and (value is None or abs(got[2] - value) <= 1e-10))
        if not ok:
            bad += 1
            notes.append(f"expected finding {key} missing: got {got}")
    return len(rows) + len(EXPECTED_FINDINGS), bad, notes


def check_selftest(stdout, exit_code):
    """Problems with one ``selftest`` run."""
    problems = []
    if exit_code != 0:
        problems.append(f"selftest exit code {exit_code}")
    lines = stdout.splitlines()
    if not lines or not (lines[-1].startswith("selftest: all ") and lines[-1].endswith(" sections passed")):
        problems.append(f"selftest summary line: {lines[-1] if lines else ''!r}")
    if not any(l.startswith("[ok] discrepancy-ledger:") and "all 4 expected findings" in l
               for l in lines):
        problems.append("selftest did not reproduce the 4 expected ledger findings")
    return problems
