"""Golden outputs: the sha256 of stdout for the default sweep, a
20,790-point sweep, the discrepancy ledger, the selftest and a set of
verify commands that reach every theorem, kernel and preset, in both
formats where there are two.  The ledger and one verify command per
theorem also run at ``--quad-tol 1e-9``, where their bytes differ from
those at the default 1e-12 (checked below), so a tolerance lost on its
way to an integral shows.  A battery of 105 verify_point calls at seeded
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
    "sweep": "05d37fc38647b3ed6e27c8865dc01fb5904cb74daf602dce0b327e5ee45f4f79",
    "sweep --format json": "a8849bb6b09a474cc7c7769ab0c16ef3e660828fa98c7fe1bd3763fd361504ea",
    "coeffs": "7011c8b3d4d5e7d62278b4a806d0a77d2a8c20c075492142aad4d0db3430ec69",
    "coeffs --format json": "aee1d66b97a641dd470c87df8f1f354ec1be63087223ffc70411f71ae815873f",
    "selftest": "013d3df171879849ce2efa67f0f53a2953ba35d439425d9ec007c2e839ef8e68",
    "verify --fn t^3 --preset c2":
        "d9911d5bbeb42ff531b8ce00d2a148b46881fc1e56326f8f40d3e3306a9ac747",
    "verify --fn exp(t) --preset c5 --alpha 2.5 --q 3 --format json":
        "f94c376000178842f620d2054390a15b942a0cfe1975a5d42b262ebc765de42e",
    "verify --fn exp(t) --theorem hh --format json":
        "98d1908dcb602b277331b91ad89ae4cc772c9a1ad9ed93b3a2923ac53bf4aca6",
    "verify --fn=-ln(t) --theorem lemma1 --x 0.8 --lambda 0.7 --alpha 2.5 --format json":
        "89899914562e5cf7423abda28efbeba4e2467a33268c6a0586898e6fb7e44f96",
    "verify --fn t^2 --theorem t2 --q 2 --kernel mt --format json":
        "b57e88771fdc2c4652274f3c98d209ccb381ff012293a2c2b3105abd6fd3f300",
    "verify --fn=2*t^4-t --kernel power --s 0.5 --q 1.5 --x 0.3 --lambda 0.4 --alpha 0.7":
        "70cc001f349687fee178236a20ddae09ef7df6b96e8bddf6384d418623265189",
    "coeffs --quad-tol 1e-9":
        "e47e5180b734352d74b56c3ea88f22845a2d41c348d38087b68ad599ae35ee03",
    "verify --fn=2*t^4-t --kernel power --s 0.5 --q 1.5 --x 0.3 --lambda 0.4 --alpha 0.7 "
    "--quad-tol 1e-9":
        "0bb41915cc2fff0f9a7677a0f2707f083ec447007fdea75cee7413072c92f2c9",
    "verify --fn t^2 --theorem t2 --q 3 --lambda 0.5 --alpha 1.5 --kernel mt --format json "
    "--quad-tol 1e-9":
        "872957b71073d7bae6d5904ff851cba807d1d17198ad259146981800daf16c9d",
    "verify --fn=-ln(t) --theorem lemma1 --x 0.8 --lambda 0.7 --alpha 2.5 --format json "
    "--quad-tol 1e-9":
        "10944670d5458397f01c1d936c67836b7a8bcffb04d231d9aa8fe3e67d1ed10a",
    # exp(t)'s hh bytes are the same at 1e-9 and 1e-12; sqrt_control's are not
    "verify --fn sqrt_control --theorem hh --format json --quad-tol 1e-9":
        "113f157d2c6d92565e7520c0d3086b1594e38d25d4274958ac93e58bd4b4d40e",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, capsys):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[command], f"stdout of `phi-ineq {command}` drifted"


LOOSE_TOL = " --quad-tol 1e-9"


@pytest.mark.parametrize("command", sorted(c for c in GOLDEN if c.endswith(LOOSE_TOL)))
def test_a_looser_quad_tol_changes_the_bytes(command, capsys):
    outputs = []
    for argv in (command, command[:-len(LOOSE_TOL)]):
        assert main(argv.split()) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1], f"`phi-ineq {command}` prints the default's bytes"


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
    "csv": "64686eb1dd6cd3f951ec3151f792a2cd87a32ff0e544736bbbe6ba639102e35e",
    "json": "043550fcde52d7a32f1adfacffd2d210d16bb8be92e0c15c54bc0d0a35c4758c",
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
CONTINUOUS_GOLDEN = "ee087e8456497e40022e83c974059fdf38cb75172a6b802954e04d674c00130a"


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
