"""The README's library examples run and print what their comments say, and
its table of the flags each verify check reads is the command line's."""

import math
import re
from pathlib import Path

from phi_ineq.cli import _READS

README = Path(__file__).resolve().parents[1] / "README.md"

# "expression  # value ..." where value is a number or a fraction
_COMMENTED_VALUE = re.compile(r"^(.+?)#\s*(-?\d+(?:\.\d+)?(?:/\d+)?)\b")


def test_library_examples_run_and_match_their_comments():
    # the blocks share one namespace: the second uses `pi` from the first
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace = {}
    checked = {}
    for block in blocks:
        exec(block, namespace)
        for line in block.splitlines():
            m = _COMMENTED_VALUE.match(line)
            if m:
                checked[m[1].strip()] = (eval(m[1], namespace), eval(m[2]))
    assert len(checked) == 4, checked
    for expression, (got, want) in checked.items():
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12), expression


def test_verify_flag_table_is_the_clis():
    # the README's table of the flags each verify check reads and their
    # defaults, against the one the command line decides with
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| ((?:`--(?:theorem|preset) \w+`(?:, )?)+) \| (.*) \|$", text, re.M)
    named = {"none": None, "midpoint": None, "constant": "constant"}
    table = {}
    for checks, flags in rows:
        read = {flag: named[value] if value in named else float(value)
                for flag, value in re.findall(r"`(--[\w-]+)` \(([^)]*)\)", flags)}
        table.update({check: read for check in re.findall(r"`--\w+ (\w+)`", checks)})
    assert table == {check: {flag: value for flag, value in reads.items() if flag != "--theorem"}
                     for check, reads in _READS.items()}
