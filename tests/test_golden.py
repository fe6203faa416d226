"""Golden outputs: the sha256 of stdout for the default sweep, a
20,790-point sweep, the discrepancy ledger, the selftest and a set of
verify commands that reach every theorem, kernel and preset, in both
formats where there are two.

Same-process reruns are checked for byte-identity elsewhere; these digests
catch drift between versions of the code.  A change that alters any of
these outputs on purpose records why and updates the digest here.
"""

import hashlib
import json

import pytest

from phi_ineq.cli import main, parse_config, reports_to_csv, reports_to_json
from phi_ineq.verify import sweep

GOLDEN = {
    "sweep": "22ae18ed431d22950be83240675fc13e4b9978f3a9e226cbb5a0df89f1feb181",
    "sweep --format json": "a0d096241467a22701e2a1207c93b8aa585f29ec75573c4be85f2150136d3855",
    "coeffs": "f8fc116d03d1711c9837e2ce78520675653819f2b78dc7cec4c17f557bb8eb80",
    "coeffs --format json": "81430edf686581d72f2c168796ea5b91530c217f9d4d1caf06d5c6eb93a6f40e",
    "selftest": "7a3fc15aef3251ce634b91ae16c5a69fc187a3dd88d2cb946ca41972e05ef92c",
    "verify --fn t^3 --preset c2":
        "e890c3d9ee4fdfa8939a44570efcf66ba355e6f6afcd39ccd5e998fd931a768b",
    "verify --fn exp(t) --preset c5 --alpha 2.5 --q 3 --format json":
        "feccb89fb0ff2fceb3e9555f04434fdd6ea85579e4db756f7f546cd871f2608d",
    "verify --fn exp(t) --theorem hh --format json":
        "98d1908dcb602b277331b91ad89ae4cc772c9a1ad9ed93b3a2923ac53bf4aca6",
    "verify --fn=-ln(t) --theorem lemma1 --x 0.8 --lambda 0.7 --alpha 2.5 --format json":
        "11a93edaaf0ebb64284719974a69aa21ca52e0f3a97788098387135550b25c81",
    "verify --fn t^2 --theorem t2 --q 2 --kernel mt --format json":
        "00fcc48bbbab1be1d8088afdc0030b7bdd43eeefa3455a344bd0fa5fdac2d3b3",
    "verify --fn=2*t^4-t --kernel power --s 0.5 --q 1.5 --x 0.3 --lambda 0.4 --alpha 0.7":
        "2e315c69b237b2e42d2884c0e43b5c3b51c1e2f7f27371942627914569911a00",
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
    "csv": "efdc3c57a838adb17cc59419c4e2af14fbb7237fcb486fc59a44fc03ca90258a",
    "json": "b63ce52decf7e4bcb2ef663d7b855186850056fb56e525005045b3de8bf821e9",
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
