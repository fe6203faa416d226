"""Golden outputs: the sha256 of stdout for the default sweep, the
discrepancy ledger and the selftest, in both formats where there are two.

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
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, capsys):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[command], f"stdout of `phi-ineq {command}` drifted"
