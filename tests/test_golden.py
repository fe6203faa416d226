"""Golden outputs: the sha256 of stdout for the default sweep, a
20,790-point sweep, the discrepancy ledger, the selftest and a set of
verify commands that reach every theorem, kernel and preset, in both
formats where there are two.  The ledger and one verify command per
theorem also run at ``--quad-tol 1e-9``, where their bytes differ from
those at the default 1e-12, so a tolerance lost on its way to an
integral shows.  A battery of 105 verify_point calls at seeded
non-integer alpha covers the continuous parameters the plans skip.

Same-process reruns are checked for byte-identity elsewhere; these digests
catch drift between versions of the code.  A change that alters any of
these outputs on purpose records why and updates the digest here.
"""

import hashlib
import json
import random

import pytest

from phi_ineq.cli import main, parse_config, reports_to_csv, reports_to_json
from phi_ineq.bounds import EvalParams
from phi_ineq.convexity import PhiKernel
from phi_ineq.functions import registry
from phi_ineq.verify import sweep, verify_point

GOLDEN = {
    "sweep": "58322cdb15b9f794fc3ef575b2a90a30bddb55210bc7acb99210fa38f2a73c2b",
    "sweep --format json": "36678726a2cea134570a48ebbb14f6971164c53440e8cf8ce3cda809cc0226d0",
    "coeffs": "59dfd7cb5ede2f175b3f2fc4baf5519c9e111627e201e06d16942818888117f8",
    "coeffs --format json": "2899f86e472c186d9fe22f5028a3ff8473c025ca951b65987d11e048d5227a16",
    "selftest": "8e5c21d7da41a046c769b6858ba7781372823f3665c5210ab1789bfa242b376a",
    "verify --fn t^3 --preset c2":
        "e890c3d9ee4fdfa8939a44570efcf66ba355e6f6afcd39ccd5e998fd931a768b",
    "verify --fn exp(t) --preset c5 --alpha 2.5 --q 3 --format json":
        "2fc4822358883eef2f8e6a7feb507c9411d9f152880d2e8ef634ad50d14e80cc",
    "verify --fn exp(t) --theorem hh --format json":
        "98d1908dcb602b277331b91ad89ae4cc772c9a1ad9ed93b3a2923ac53bf4aca6",
    "verify --fn=-ln(t) --theorem lemma1 --x 0.8 --lambda 0.7 --alpha 2.5 --format json":
        "6bcf2d4413046050abedd77e1b08e395a1fffcdab4950bbfe9cdb137a4365322",
    "verify --fn t^2 --theorem t2 --q 2 --kernel mt --format json":
        "40bf06ac2a12bc74fdd685eb6a8836023bb8e1d6e22d44a7f13c8bf7436845b8",
    "verify --fn=2*t^4-t --kernel power --s 0.5 --q 1.5 --x 0.3 --lambda 0.4 --alpha 0.7":
        "70cc001f349687fee178236a20ddae09ef7df6b96e8bddf6384d418623265189",
    "coeffs --quad-tol 1e-9":
        "23d0ab661291c8b940ad8a17c70fe97470bc7d475c4aee10edc47e3c6edaf608",
    "verify --fn=2*t^4-t --kernel power --s 0.5 --q 1.5 --x 0.3 --lambda 0.4 --alpha 0.7 "
    "--quad-tol 1e-9":
        "0bb41915cc2fff0f9a7677a0f2707f083ec447007fdea75cee7413072c92f2c9",
    "verify --fn t^2 --theorem t2 --q 2 --kernel mt --format json --quad-tol 1e-9":
        "a38a031c4d7694866d436e954231e4c18ffbc8405b5cac8509d0a650c15e0bd7",
    "verify --fn=-ln(t) --theorem lemma1 --x 0.8 --lambda 0.7 --alpha 2.5 --format json "
    "--quad-tol 1e-9":
        "4db908510b5ebd66b95cb3ced5c4dea9a5a3df56f9ad7ca783ebb68f68cb27a4",
    # exp(t)'s hh bytes are the same at 1e-9 and 1e-12; sqrt_control's are not
    "verify --fn sqrt_control --theorem hh --format json --quad-tol 1e-9":
        "113f157d2c6d92565e7520c0d3086b1594e38d25d4274958ac93e58bd4b4d40e",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, capsys):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[command], f"stdout of `phi-ineq {command}` drifted"


# The 20,790-point plan: 7 functions x 3 kernels x 3 x x 11 lambda x
# 6 alpha x q in {1, 1.5, 3}, T1 at every q and T2 where q > 1.  Reports
# are sorted, so the digests do not depend on the order of the axes.
LARGE_PLAN = {
    "functions": ["t", "t^2", "t^3", "t^4", "exp(t)", "-ln(t)", "sqrt_control"],
    "kernels": ["constant", "power:0.5", "mt"],
    "x": [0.1, 0.5, 0.9],
    "lambda": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    "alpha": [0.25, 0.5, 1.0, 1.5, 2.0, 3.0],
    "q": [1.0, 1.5, 3.0],
}
LARGE_GOLDEN = {
    "csv": "89c8b1641393eed1e37e92d3f87650b57fbd19eb7b70ca8159c3a4417dcd2084",
    "json": "9a2091cdb433c14c96aa988fb3aa4a3627afef9dcebc3f614f4ca87ce473ee92",
}


def test_large_sweep_digests(tmp_path):
    """One sweep of the large plan, rendered as `phi-ineq sweep --config
    PLAN` and `... --format json` would print it."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(LARGE_PLAN), encoding="utf-8")
    cfg = parse_config(["sweep", "--config", str(path)])
    reports = sweep(cfg.plan, quad_tol=cfg.quad_tol)
    assert len(reports) == 20790
    for fmt, render in (("csv", reports_to_csv), ("json", reports_to_json)):
        digest = hashlib.sha256(render(reports).encode()).hexdigest()
        assert digest == LARGE_GOLDEN[fmt], f"{fmt} output of the large sweep drifted"


# One verify_point per (function, kernel, (q, theorem)) cell at a seeded
# random (x, lambda, alpha), alpha in [0.3, 3]: points off the integer and
# half-integer alphas of the plans above.
CONTINUOUS_CELLS = ((1.0, "T1"), (1.5, "T1"), (1.5, "T2"), (3.0, "T1"), (3.0, "T2"))
CONTINUOUS_GOLDEN = "2ba197d1ec0ff15d34eed019a633c015b6ac4e027f4b2da075b8742aa12c9427"


def test_continuous_parameter_battery_digest():
    rng = random.Random(20161607)
    reports = []
    for fn in registry().values():
        a, b = fn.domain.a, fn.domain.b
        for kernel in (PhiKernel.constant(), PhiKernel.power(0.5), PhiKernel.mt()):
            for q, theorem in CONTINUOUS_CELLS:
                params = EvalParams(fn.domain, x=rng.uniform(a, b), lam=rng.random(),
                                    alpha=rng.uniform(0.3, 3.0), q=q)
                reports.append(verify_point(fn, params, kernel, theorem))
    assert len(reports) == 105
    digest = hashlib.sha256(reports_to_csv(reports).encode()).hexdigest()
    assert digest == CONTINUOUS_GOLDEN, "the continuous-parameter battery drifted"
