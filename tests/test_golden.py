"""Golden outputs: the sha256 of stdout for the default sweep, the
discrepancy ledger, the selftest and a set of verify commands that reach
every theorem, kernel and preset, in both formats where there are two.

Same-process reruns are checked for byte-identity elsewhere; these digests
catch drift between versions of the code.  A change that alters any of
these outputs on purpose records why and updates the digest here.
"""

import hashlib

import pytest

from phi_ineq.cli import main

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
