"""A seeded fuzz of the exit-code contract: every ``phi-ineq verify``
command exits 0, 1, 2 or 3 and none ends in a traceback.

The commands mix registry names and random expressions of the grammar,
intervals 1e-6 to 1e3 wide at offsets up to 1e4, all four theorems, all
three kernels, both presets and both formats.  Which exit-1 rows are real
violations is not checked here.
"""

import random
import warnings
from collections import Counter

from phi_ineq.cli import main
from phi_ineq.functions import registry

SEED = 20161
COMMANDS = 150


def _expression(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        return rng.choice(["t", "t", str(rng.randint(1, 9)), f"{rng.uniform(0, 5):.3f}"])
    if roll < 0.5:
        return f"{_expression(rng, depth + 1)} {rng.choice('+-*')} {_expression(rng, depth + 1)}"
    if roll < 0.7:
        return f"({_expression(rng, depth + 1)})^{rng.randint(0, 5)}"
    if roll < 0.85:
        return f"exp({_expression(rng, depth + 1)})"
    return f"ln({_expression(rng, depth + 1)})"


def _value(rng, lo, hi):
    return repr(rng.uniform(lo, hi))


def _command(rng):
    fn = rng.choice(list(registry())) if rng.random() < 0.4 else _expression(rng)
    argv = ["verify", "--fn", fn]
    if rng.random() < 0.8:
        width = 10.0 ** rng.uniform(-6, 3)
        offset = rng.choice([0.0, 10.0 ** rng.uniform(-3, 4), -(10.0 ** rng.uniform(-3, 4))])
        a, b = offset, offset + width
        argv += ["--a", repr(a), "--b", repr(b)]
    else:
        a, b = 0.0, 1.0  # a registry function's own domain may differ
    alpha = repr(10.0 ** rng.uniform(-1, 1))
    check = rng.choice(["t1", "t1", "t2", "hh", "lemma1", "c2", "c5"])
    if check in ("c2", "c5"):
        argv += ["--preset", check, "--alpha", alpha]
        if rng.random() < 0.3:
            argv += ["--q", _value(rng, 1.0, 4.0)]
    elif check == "hh":
        argv += ["--theorem", "hh"]
    else:
        argv += ["--theorem", check, "--alpha", alpha]
        if rng.random() < 0.6:
            argv += ["--x", _value(rng, a, b)]
        if rng.random() < 0.8:
            argv += ["--lambda", _value(rng, 0.0, 1.0)]
        if check != "lemma1":
            argv += ["--q", _value(rng, 1.0, 4.0) if check == "t2" or rng.random() < 0.5
                     else "1"]
            kernel = rng.choice(["constant", "power", "mt"])
            argv += ["--kernel", kernel]
            if kernel == "power":
                argv += ["--s", _value(rng, 0.05, 1.0)]
    if rng.random() < 0.1:
        argv += ["--inject-bound-scale", _value(rng, 0.0, 1.0)]
    return argv + ["--format", rng.choice(["csv", "json"])]


def test_exit_code_contract_under_a_seeded_fuzz(capsys):
    rng = random.Random(SEED)
    codes = Counter()
    for _ in range(COMMANDS):
        argv = _command(rng)
        with warnings.catch_warnings():
            # the power kernel's documented warning for a negative g; every
            # other warning stays an error, which main reports with a traceback
            warnings.filterwarnings("ignore", message="function takes negative values")
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, (argv, err)
        codes[code] += 1
    # the generator reaches beyond usage errors
    assert codes[0] >= COMMANDS // 3, codes

