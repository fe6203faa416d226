"""CLI contract tests: flag/config parsing, output schemas, round trips,
determinism and exit codes."""

import json

import pytest

from phi_ineq import cli
from phi_ineq.cli import (
    LEDGER_COLUMNS,
    REPORT_COLUMNS,
    main,
    parse_config,
)
from phi_ineq.errors import UsageError

CSV_HEADER = "function,kernel,theorem,a,b,x,lambda,alpha,q,p,s,lhs,rhs,margin,hypothesis_ok,status"


def test_report_columns_contract():
    assert ",".join(REPORT_COLUMNS) == CSV_HEADER


class TestParseConfig:
    def test_valid_verify(self):
        cfg = parse_config(["verify", "--fn", "t^3", "--x", "0.5", "--lambda", "0",
                            "--alpha", "1", "--q", "1", "--kernel", "constant",
                            "--theorem", "t1"])
        assert cfg.command == "verify"
        assert cfg.function == "t^3"
        assert cfg.kernel.kind == "constant"
        assert cfg.theorem == "t1"

    def test_sweep_with_config_file(self, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "functions": ["t^2"], "kernels": ["constant", "power:0.5"],
            "x": [0.5], "lambda": [0.0, 1.0], "alpha": [1.0], "q": [1.0, 2.0],
        }))
        cfg = parse_config(["sweep", "--config", str(plan_file)])
        assert cfg.plan.function_names == ("t^2",)
        assert len(cfg.plan.kernels) == 2

    def test_lambda_constraint_named(self):
        with pytest.raises(UsageError) as info:
            parse_config(["verify", "--fn", "t^2", "--lambda", "1.5"])
        assert any("lambda" in v and "[0, 1]" in v for v in info.value.violations)

    def test_all_violations_listed(self):
        with pytest.raises(UsageError) as info:
            parse_config(["verify", "--fn", "t^2", "--lambda", "1.5",
                          "--alpha", "-1", "--q", "0.5"])
        assert len(info.value.violations) >= 3

    def test_unknown_config_fields_rejected(self, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"functions": ["t^2"], "bogus": 1}))
        with pytest.raises(UsageError) as info:
            parse_config(["sweep", "--config", str(plan_file)])
        assert any("bogus" in v for v in info.value.violations)

    def test_power_kernel_requires_s(self):
        with pytest.raises(UsageError):
            parse_config(["verify", "--fn", "t^2", "--kernel", "power"])

    def test_t2_requires_q_above_one(self):
        with pytest.raises(UsageError):
            parse_config(["verify", "--fn", "t^2", "--theorem", "t2"])

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_config(["verify", "--fn", "t^2", "--frobnicate", "1"])


class TestExecute:
    def test_verify_equality_case_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["verify", "--fn", "t^3", "--x", "0.5", "--lambda", "0",
                     "--alpha", "1", "--q", "1", "--kernel", "constant",
                     "--theorem", "t1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        row = lines[1].split(",")
        assert row[0] == "t^3" and row[-1] == "PASS"
        margin = float(row[REPORT_COLUMNS.index("margin")])
        assert abs(margin) <= 1e-9

    def test_verify_stdout(self, capsys):
        code = main(["verify", "--fn", "t^2", "--theorem", "hh"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)
        assert ",HH," in out

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--fn", "t^2", "--theorem", "t2", "--q", "2",
                     "--format", "json", "--out", str(out)]) == 0
        raw = out.read_bytes()
        obj = json.loads(raw)
        again = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
        assert raw == again

    def test_sweep_determinism(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "functions": ["t^2", "t^3", "sqrt_control"],
            "kernels": ["constant", "mt"],
            "x": [0.25, 0.5], "lambda": [0.0, 1.0], "alpha": [0.5, 1.0],
            "q": [1.0, 2.0],
        }))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["sweep", "--config", str(plan_file), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(plan_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_sweep_json_round_trip(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "functions": ["t^2"], "kernels": ["constant"],
            "x": [0.5], "lambda": [0.0], "alpha": [1.0], "q": [2.0],
        }))
        out = tmp_path / "s.json"
        assert main(["sweep", "--config", str(plan_file), "--format", "json",
                     "--out", str(out)]) == 0
        raw = out.read_bytes()
        obj = json.loads(raw)
        assert (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode() == raw
        capsys.readouterr()

    def test_coeffs_schema_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert main(["coeffs", "--out", str(out1)]) == 0
        assert main(["coeffs", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == ",".join(LEDGER_COLUMNS)
        assert any(",DISAGREES" in line for line in lines)
        assert any(",PRINTED_UNDEFINED" in line for line in lines)

    def test_preset_rows(self, capsys):
        assert main(["verify", "--fn", "t^3", "--preset", "c2"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 4  # header + three lambda presets
        for lam in ("0.3333333333333333", "0.0", "1.0"):
            assert f",{lam}," in out


class TestExitCodes:
    def test_pass_is_zero(self):
        assert main(["verify", "--fn", "t^2", "--theorem", "t1"]) == 0

    def test_fault_injection_is_one(self, capsys):
        code = main(["verify", "--fn", "t^2", "--theorem", "t1",
                     "--inject-bound-scale", "0.01"])
        assert code == 1
        capsys.readouterr()

    def test_usage_is_two(self, capsys):
        assert main(["verify", "--fn", "t^2", "--lambda", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "lambda" in err

    @pytest.mark.parametrize("argv, reason", [
        (["--fn", "t^2", "--a", "2"], "interval requires a < b"),
        (["--fn", "bogus("], "cannot parse function expression"),
        (["--fn", "t^2", "--x", "5"], "x must lie in [0.0, 1.0]"),
        *((["--fn", fn], "cannot parse function expression")
          for fn in (".", "t+.", "..5", "²", "t^²", "t^1" + "0" * 400)),
        # the quadrature summed complex samples: a TypeError traceback, exit 3
        (["--fn", "sqrt_control", "--a", "-0.005", "--b", "242", "--theorem", "t2", "--q", "2"],
         "sqrt_control is defined for t >= 0 only, got a=-0.005"),
    ])
    def test_bad_verify_input_is_two(self, argv, reason, capsys):
        # a bad interval, expression or x is the caller's mistake, not a
        # numerical error; the malformed numbers ended in a ValueError or
        # OverflowError traceback and exit 1, the FAIL code
        assert main(["verify", *argv]) == 2
        assert f"usage error: {reason}" in capsys.readouterr().err

    def test_unexpected_error_is_three(self, monkeypatch, capsys):
        # exit 1 is reserved for a FAIL row: any other exception leaves main
        # with its traceback on stderr and exit 3
        def execute(config):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "execute", execute)
        assert main(["verify", "--fn", "t^2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and err.endswith("RuntimeError: unexpected\n")

    @pytest.mark.parametrize("fn", [
        "(" * 400 + "t" + ")" * 400,
        "exp(" * 300 + "t" + ")" * 300,
        "*".join(["t"] * 3001),
    ], ids=["parentheses", "exp", "product"])
    def test_too_deep_expression_is_two(self, fn, capsys):
        # the parser, diff and the compiler recurse once per level of the
        # tree; a RecursionError ended in a traceback and exit 1, the FAIL code
        assert main(["verify", "--fn", fn]) == 2
        err = capsys.readouterr().err
        assert f"usage error: function expression {fn[:37] + '...'!r} is nested too deeply" in err

    @pytest.mark.parametrize("fn", ["-ln(t)", "-t^2"])
    def test_fn_value_may_start_with_minus(self, fn, capsys):
        # argparse used to read a leading minus as a flag and exit 2 with
        # "argument --fn: expected one argument"; classical convexity has no
        # sign condition, so the negative values of either function draw no
        # warning (the suite turns warnings into errors)
        assert main(["verify", "--fn", fn, "--theorem", "hh"]) == 0
        spaced = capsys.readouterr()
        assert spaced.out.splitlines()[1].startswith(f"{fn},")
        assert spaced.err == ""
        assert main(["verify", f"--fn={fn}", "--theorem", "hh"]) == 0
        assert capsys.readouterr() == spaced

    @pytest.mark.parametrize("argv, column, value", [
        (["--a", "-1e-3", "--theorem", "hh"], "a", "-0.001"),
        (["--a", "-1e-3", "--x", "-5e-4"], "x", "-0.0005"),
        (["--x", "-5e-4", "--a=-1e-3"], "x", "-0.0005"),
    ])
    def test_flag_value_in_exponent_notation_may_start_with_minus(self, argv, column,
                                                                  value, capsys):
        # argparse read -1e-3 as a flag and exited 2 with
        # "argument --a: expected one argument"
        assert main(["verify", "--fn", "t^2", *argv]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))[column] == value

    @pytest.mark.parametrize("argv", [
        ["--b", "1e77"],
        ["--b", "1e77", "--theorem", "lemma1"],
        ["--b", "1e77", "--theorem", "hh"],
        ["--b", "1e76"],
    ])
    def test_overflowing_integral_is_three(self, argv, capsys):
        # the integral of t^4 exceeds the double range: it was inf, and the
        # verdict FAIL, or PASS for lemma1, whose lhs was -inf
        assert main(["verify", "--fn", "t^4", "--a", "0", *argv, "--format", "json"]) == 3
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["status"] == "ERROR"
        assert report["message"].endswith("exceeds the double-precision range")

    @pytest.mark.parametrize("argv", [
        ["--b", "1e-308"],
        ["--b", "1e-310"],
        ["--b", "1e-308", "--theorem", "t2", "--q", "2"],
        ["--b", "1e-308", "--theorem", "lemma1"],
    ])
    def test_nan_side_is_three(self, argv, capsys):
        # Gamma(alpha+2)/(b-a) overflows to inf and multiplies an underflowed
        # J1+J2 of 0: the nan lhs gave a nan margin, reported as FAIL
        assert main(["verify", "--fn", "t^2", "--a", "0", *argv, "--format", "json"]) == 3
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["status"] == "ERROR"
        assert report["message"].startswith("lhs is nan")

    @pytest.mark.parametrize("argv, code", [
        (["--fn", "exp(t)", "--a", "0", "--b", "709"], 0),
        (["--fn", "exp(t)", "--a", "0", "--b", "709", "--q", "2"], 3),
        (["--fn", "exp(t)", "--a", "0", "--b", "800"], 2),
        (["--fn", "ln(t)", "--a", "0", "--b", "1", "--q", "2"], 3),
        (["--fn", "ln(t)", "--a", "-1", "--b", "1"], 2),
    ])
    def test_numpy_warnings_stay_off_stderr(self, argv, code, capsys):
        # numpy overflow, divide and invalid-value warnings escaped from
        # the quadrature, the gate and the domain check; under
        # filterwarnings = error the first command died with a traceback
        assert main(["verify", *argv]) == code
        err = capsys.readouterr().err
        assert "Warning" not in err
        if code != 2:
            assert err == ""

    def test_cancellation_off_the_unit_interval_is_not_a_fail(self, capsys):
        # the four-term S loses ~1e-9 to cancellation here; Lemma 1's form
        # gives |S| = 85.277077811097631 (mpmath), which equals the bound
        assert main(["verify", "--fn", "t^3", "--a", "100", "--b", "101",
                     "--lambda", "0", "--alpha", "0.5"]) == 0
        assert capsys.readouterr().out.endswith(",true,PASS\n")

    def test_confirmation_below_the_rounding_floor_is_three(self, capsys):
        # at lam = 2/(alpha+2) Lemma 1's integrand cancels to 1e-3 of its
        # |f''| mass of 6e6; this was FAIL with lhs 4.0 against rhs 0.094
        assert main(["verify", "--fn", "t^3", "--a", "1e6", "--b", "1000000.01",
                     "--lambda", "0.5", "--alpha", "2", "--format", "json"]) == 3
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["status"] == "ERROR"
        assert "lies below the rounding floor 50*eps*int|f|" in report["message"]

    def test_fail_takes_lhs_from_lemma1(self, capsys):
        assert main(["verify", "--fn", "t^2", "--inject-bound-scale", "0.5"]) == 1
        header, row = capsys.readouterr().out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["status"] == "FAIL"
        assert fields["lhs"] == "0.16666666666666666"

    @pytest.mark.parametrize("kernel", [[], ["--kernel", "constant"], ["--kernel", "mt"]])
    def test_s_without_power_kernel_is_two(self, kernel, capsys):
        # s is the power kernel's exponent; the check used to run without
        # it and print the unused value in the s column
        assert main(["verify", "--fn", "t^2", "--s", "0.5", *kernel]) == 2
        assert "usage error: --s applies to --kernel power only" in capsys.readouterr().err

    def test_non_positive_tol_is_two(self, tmp_path, capsys):
        # t^2 at the defaults is an equality case (margin -5.6e-17), which
        # a tolerance <= 0 would report as FAIL
        assert main(["verify", "--fn", "t^2", "--tol", "0"]) == 2
        assert "--tol must be positive" in capsys.readouterr().err
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "functions": ["t^2"], "kernels": ["constant"],
            "x": [0.5], "lambda": [0.0], "alpha": [1.0], "q": [1.0], "tol": -1,
        }))
        assert main(["sweep", "--config", str(plan_file)]) == 2
        assert "tol -1.0 outside (0, inf)" in capsys.readouterr().err

    @pytest.mark.parametrize("plan, reason", [
        ({"kernels": [1]}, "plan kernels must be a JSON list of strings"),
        ({"functions": [["t"]]}, "plan functions must be a JSON list of strings"),
        ({"functions": ["bogus"]}, "unknown registry function 'bogus'"),
        ({"functions": "t^2"}, "plan functions must be a JSON list of strings, got 't^2'"),
        ({"x": ["0.5"]}, "plan x must be a JSON list of numbers, got ['0.5']"),
    ])
    def test_malformed_plan_is_two(self, plan, reason, tmp_path, capsys):
        # these ended in a traceback (exit 1, the FAIL code) or in exit 3
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan))
        assert main(["sweep", "--config", str(plan_file)]) == 2
        assert reason in capsys.readouterr().err

    def test_deeply_nested_plan_is_two(self, tmp_path, capsys):
        # the JSON decoder raised RecursionError: a traceback and exit 1
        plan_file = tmp_path / "plan.json"
        plan_file.write_text("[" * 100000 + "]" * 100000)
        assert main(["sweep", "--config", str(plan_file)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify", "--fn", "t^2"], ["coeffs"]])
    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_is_two(self, argv, target, tmp_path, capsys):
        # a missing directory or a directory as the --out path
        assert main([*argv, "--out", str(tmp_path / target)]) == 2
        assert "usage error: cannot write --out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, reason", [
        (["--tol", "inf", "--inject-bound-scale", "0"], "--tol must be positive and finite"),
        (["--alpha", "inf"], "alpha must be positive and finite"),
        (["--q", "inf"], "q must be finite and >= 1"),
        (["--quad-tol", "inf"], "--quad-tol must be positive and finite"),
        (["--inject-bound-scale", "inf"], "--inject-bound-scale must be finite, got inf"),
        (["--inject-bound-scale", "nan"], "--inject-bound-scale must be finite, got nan"),
    ])
    def test_non_finite_flag_is_two(self, argv, reason, capsys):
        # --tol inf turned a zeroed bound into PASS; alpha or q = inf gave ERROR
        assert main(["verify", "--fn", "t^2", *argv]) == 2
        assert f"usage error: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("plan, argv, reason", [
        ({"tol": float("inf")}, ["--inject-bound-scale", "0"], "tol inf outside (0, inf)"),
        ({"alpha": [float("inf")]}, [], "alpha inf outside (0, inf)"),
        ({"q": [float("inf")]}, [], "q inf outside [1, inf)"),
        ({}, ["--tol", "inf"], "--tol must be positive and finite"),
        ({}, ["--inject-bound-scale", "nan"], "--inject-bound-scale must be finite, got nan"),
        ({}, ["--inject-bound-scale", "-inf"], "--inject-bound-scale must be finite, got -inf"),
    ])
    def test_non_finite_plan_value_is_two(self, plan, argv, reason, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"functions": ["t^2"], "kernels": ["constant"],
                                         "x": [0.5], "lambda": [0.0], **plan}))
        assert main(["sweep", "--config", str(plan_file), *argv]) == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("lam, alpha", [("1e-20", "0.01"), ("0.9999999999999999", "100")])
    def test_identity_at_a_kink_that_rounds_to_an_end(self, lam, alpha, capsys):
        # lam**(1/alpha) rounds to 0.0 or 1.0, which identity_rhs used to
        # pass as a split point: ERROR "split point ... not strictly inside"
        assert main(["verify", "--fn", "t^2", "--theorem", "lemma1",
                     "--lambda", lam, "--alpha", alpha]) == 0
        assert capsys.readouterr().out.endswith(",true,PASS\n")

    def test_numerical_failure_is_three(self, capsys):
        code = main(["verify", "--fn", "t^2", "--theorem", "t1",
                     "--quad-tol", "1e-30"])
        assert code == 3
        capsys.readouterr()

    def test_sweep_fault_injection_is_one(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "functions": ["t^2"], "kernels": ["constant"],
            "x": [0.5], "lambda": [0.0], "alpha": [1.0], "q": [1.0],
        }))
        code = main(["sweep", "--config", str(plan_file),
                     "--inject-bound-scale", "0.001"])
        assert code == 1
        capsys.readouterr()

    def test_huge_interval_checks_its_midpoint(self, capsys):
        # the default x was 0.5 * (a + b), which overflows: exit 3 with
        # "x=inf outside [1e+308, 1.7e+308]" before any check ran
        assert main(["verify", "--fn", "t", "--a", "1e308", "--b", "1.7e308",
                     "--format", "json"]) == 3
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert (report["theorem"], report["x"], report["status"]) == ("T1", 1.35e308, "ERROR")
        assert report["message"].endswith("exceeds the double-precision range")

    @pytest.mark.parametrize("check, flag", [
        *(("--theorem hh", flag) for flag in ("--x 0.3", "--lambda 0.5", "--tol 1e-3",
                                              "--inject-bound-scale 0")),
        *(("--theorem lemma1", flag) for flag in ("--tol 1e-3", "--inject-bound-scale 0")),
        *(("--preset c2", flag) for flag in ("--x 0.3", "--lambda 0.5")),
    ])
    def test_flag_the_check_never_reads_is_two(self, check, flag, capsys):
        # --theorem hh --inject-bound-scale 0 printed PASS, exit 0: the
        # test hook never reaches HH
        assert main(["verify", "--fn", "t^2", *check.split(), *flag.split()]) == 2
        assert capsys.readouterr().err == (
            f"usage error: {flag.split()[0]} does not apply to {check}\n")

    def test_unread_flags_are_listed_with_the_other_violations(self, capsys):
        assert main(["verify", "--fn", "t^2", "--theorem", "hh", "--x", "0.3",
                     "--lambda", "0.5", "--tol", "1e-3", "--inject-bound-scale", "0",
                     "--alpha", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage error: alpha must be positive")
        assert err[1:] == [f"usage error: {flag} does not apply to --theorem hh" for flag
                           in ("--x", "--lambda", "--tol", "--inject-bound-scale")]

    def test_hypothesis_unmet_not_a_failure(self, capsys):
        code = main(["verify", "--fn", "sqrt_control", "--theorem", "t1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "HYPOTHESIS_UNMET" in out


def test_csv_rows_match_the_cell_renderer():
    # reports_to_csv writes a row with one hand-written f-string; every
    # row shape must give the cells _cell renders, in REPORT_COLUMNS order
    commands = (
        "t^3 --x 0.5 --lambda 0 --alpha 1",               # T1 PASS
        "t^2 --inject-bound-scale 0.5",                   # T1 FAIL
        "t^2 --theorem t2 --q 2 --kernel mt",             # T2: p set
        "t^4 --a -1.5 --b 2 --kernel power --s 0.5",      # power kernel: s set
        "sqrt_control",                                   # HYPOTHESIS_UNMET
        "t^4 --a 0 --b 1e77",                             # ERROR: lhs, rhs, margin empty
        "t^2 --theorem hh",
        "2*t^4 - t --theorem lemma1 --x 0.3 --lambda 0.7 --alpha 2.5",
    )
    reports = []
    for command in commands:
        fn, _, flags = command.partition(" --")
        argv = ["verify", f"--fn={fn}", *(f"--{flags}".split() if flags else ())]
        reports += cli._run_verify(parse_config(argv))
    shapes = {(r.theorem, r.status) for r in reports}
    assert {("T1", "PASS"), ("T1", "FAIL"), ("T1", "HYPOTHESIS_UNMET"), ("T1", "ERROR"),
            ("T2", "PASS"), ("HH", "PASS"), ("LEMMA1", "PASS")} <= shapes
    assert any(r.p is not None for r in reports) and any(r.s is not None for r in reports)
    assert any(r.lhs is r.rhs is r.margin is None for r in reports)
    lines = cli.reports_to_csv(reports).splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert lines[1:] == [",".join(cli._cell(v) for v in cli._report_values(r))
                         for r in reports]


def test_convexity_gate_tolerance_scales_with_function(capsys):
    # |f''|^3 reaches 1.6e6 on this grid; its worst sampled violation is
    # 1.05e-9 of rounding, which an absolute 1e-9 tolerance misread as a
    # failed hypothesis
    code = main(["verify", "--fn=2.43*t^4 - 1.7*t", "--a", "0.303", "--b", "2.002",
                 "--preset", "c5", "--alpha", "2.544", "--q", "3"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3
    assert all(row.endswith(",true,PASS") for row in rows)


def test_any_json_plan_parses_or_is_a_usage_error(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=8) | st.sampled_from(["t^2", "constant", "power:0.5", "mt"]))
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                          max_leaves=8)
    plan_key = st.sampled_from(["functions", "kernels", "x", "lambda", "alpha", "q", "tol"])
    path = tmp_path / "plan.json"

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.dictionaries(plan_key, values))
    def check(plan):
        path.write_text(json.dumps(plan))
        try:
            cfg = parse_config(["sweep", "--config", str(path)])
        except UsageError:
            return
        assert len(cfg.plan.kernels) > 0

    check()
