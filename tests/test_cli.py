"""Tests for the command-line interface and its exit-code contract."""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from baryquad import cli
from baryquad.cli import _write_rows, main, parse_grid


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestParseGrid:
    def test_comma_list(self):
        assert parse_grid("1,2,5") == [1.0, 2.0, 5.0]

    def test_matlab_range(self):
        assert parse_grid("-0.4:0.1:0.1") == [-0.4, -0.3, -0.2, -0.1, 0.0, 0.1]

    def test_malformed_range_rejected(self):
        with pytest.raises(ValueError):
            parse_grid("1:2")
        with pytest.raises(ValueError):
            parse_grid("")
        with pytest.raises(ValueError):
            parse_grid("0:0:1")


class TestGimCommand:
    def test_happy_path_writes_matrix(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["gim", "--n", "10", "--alpha", "0.5", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == "rows,cols,q,alpha,interval"
        assert rows[0][:3] == ["11", "11", "1"]
        assert len(rows) == 1 + 11
        entries = np.array([[float(v) for v in row] for row in rows[1:]])
        assert entries.shape == (11, 11)

    def test_infeasible_plain_exits_two(self, tmp_path, capsys):
        code = main(["gim", "--n", "4", "--alpha", "1", "--variant", "plain",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "CollisionError" in capsys.readouterr().err

    def test_bumped_succeeds_at_failing_pair(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["gim", "--n", "4", "--alpha", "1", "--variant", "bumped",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_basis_variant_and_higher_order(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["gim", "--n", "6", "--alpha", "0", "--variant", "basis",
                     "--q", "2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert rows[0][2] == "2"

    def test_missing_argument_exits_one(self, capsys):
        assert main(["gim", "--n", "4"]) == 1

    def test_invalid_alpha_exits_one(self, capsys):
        assert main(["gim", "--n", "4", "--alpha", "-0.8"]) == 1
        assert "UsageError" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["0", "-2"])
    def test_non_positive_order_exits_one(self, q, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["gim", "--n", "3", "--alpha", "0.5", "--q", q, "--out", str(out)]) == 1
        assert "UsageError: order must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["nan", "-1", "0"])
    def test_non_positive_epsilon_exits_one(self, epsilon, tmp_path, capsys):
        out = tmp_path / "m.csv"
        for variant in ("plain", "basis"):  # the basis variant takes no epsilon, but checks it
            assert main(["gim", "--n", "4", "--alpha", "1", "--variant", variant,
                         "--epsilon", epsilon, "--out", str(out)]) == 1
            assert "UsageError: epsilon must be positive" in capsys.readouterr().err
            assert not out.exists()


    @pytest.mark.parametrize("variant", ["plain", "guarded", "bumped", "basis"])
    def test_infinite_epsilon_exits_one(self, variant, tmp_path, capsys):
        # an infinite tolerance makes every mapped point a hit: the guarded rows
        # would be a nearest-node rule instead of the barycentric one
        out = tmp_path / "m.csv"
        assert main(["gim", "--n", "4", "--alpha", "0.5", "--variant", variant,
                     "--epsilon", "inf", "--out", str(out)]) == 1
        assert "UsageError: epsilon must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestQuadbenchCommand:
    def test_degree_twenty_monomial_is_exact(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["quadbench", "--f", "f1", "--n-grid", "20",
                     "--alpha-grid", "0.5", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == "n,alpha,node_index,err_bary,err_basis"
        errs = np.array([[float(r[3]), float(r[4])] for r in rows])
        assert np.all(np.isfinite(errs))
        assert errs.max() <= 1e-10

    def test_empty_grid_exits_one(self, capsys):
        assert main(["quadbench", "--f", "f1", "--n-grid", "", "--alpha-grid", "0.5"]) == 1

    def test_infeasible_point_becomes_nan_row(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["quadbench", "--f", "f2", "--n-grid", "4",
                     "--alpha-grid", "0.5,1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        nan_rows = [r for r in rows if r[1] == "1" and r[2] == "-1"]
        assert len(nan_rows) == 1 and nan_rows[0][3] == "nan"
        regular = [r for r in rows if r[1] == "0.5"]
        assert len(regular) == 5

    def test_user_expression(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["quadbench", "--f", "exp(-x**2)", "--n-grid", "8",
                     "--alpha-grid", "0.5", "--out", str(out)]) == 0

    def test_bad_expression_exits_one(self, capsys):
        assert main(["quadbench", "--f", "__import__('os')", "--n-grid", "8",
                     "--alpha-grid", "0.5"]) == 1

    @pytest.mark.parametrize("expression", ["x**", "[x]", "x/0"])
    def test_malformed_expression_exits_one(self, expression, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["quadbench", "--f", expression, "--n-grid", "4", "--alpha-grid", "0.5",
                     "--out", str(out)]) == 1
        assert "UsageError" in capsys.readouterr().err and not out.exists()

    def test_reciprocal_warns_and_exits_zero(self, tmp_path):
        # 1/x is infinite at the middle Gauss node of an even degree: numpy warns,
        # and the errors written are not finite
        out = tmp_path / "bench.csv"
        with pytest.warns(RuntimeWarning):
            assert main(["quadbench", "--f", "1/x", "--n-grid", "4", "--alpha-grid", "0.5",
                         "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert not all(math.isfinite(float(r[3])) for r in rows)

    def test_non_integer_degree_exits_one(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["quadbench", "--n-grid", "3.7", "--alpha-grid", "0.5",
                     "--out", str(out)]) == 1
        assert "UsageError" in capsys.readouterr().err and not out.exists()


class TestFeasibilityCommand:
    def test_known_failure_row(self, tmp_path):
        out = tmp_path / "feas.csv"
        code = main(["feasibility", "--n-grid", "1,4", "--alpha-grid", "0.5,1",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == "n,alpha,feasible"
        table = {(r[0], r[1]): r[2] for r in rows}
        assert table[("4", "1")] == "false"
        assert table[("4", "0.5")] == "true"
        assert table[("1", "0.5")] == "true" and table[("1", "1")] == "true"

    def test_malformed_range_exits_one(self, capsys):
        assert main(["feasibility", "--n-grid", "1:5", "--alpha-grid", "0.5"]) == 1

    def test_invalid_alpha_grid_exits_one(self, capsys):
        assert main(["feasibility", "--n-grid", "3", "--alpha-grid", "-0.6"]) == 1

    @pytest.mark.parametrize("epsilon", ["nan", "-1", "0"])
    def test_non_positive_epsilon_exits_one(self, epsilon, tmp_path, capsys):
        out = tmp_path / "feas.csv"
        assert main(["feasibility", "--n-grid", "4", "--alpha-grid", "1", "--epsilon", epsilon,
                     "--out", str(out)]) == 1
        assert "UsageError: epsilon must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_epsilon_exits_one(self, tmp_path, capsys):
        out = tmp_path / "feas.csv"
        assert main(["feasibility", "--n-grid", "4", "--alpha-grid", "0.5", "--epsilon", "inf",
                     "--out", str(out)]) == 1
        assert "UsageError: epsilon must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_degree_exits_one(self, tmp_path, capsys):
        out = tmp_path / "feas.csv"
        assert main(["feasibility", "--n-grid", "2.5", "--alpha-grid", "0.5",
                     "--out", str(out)]) == 1
        assert "UsageError" in capsys.readouterr().err and not out.exists()

    def test_rule_past_its_alpha_range_exits_two(self, tmp_path, capsys):
        out = tmp_path / "feas.csv"
        assert main(["feasibility", "--n-grid", "640", "--alpha-grid", "30", "--out", str(out)]) == 2
        assert "ConvergenceError" in capsys.readouterr().err and not out.exists()


class TestReadmeRangeGrids:
    @pytest.mark.parametrize("argv", [
        ["feasibility", "--n-grid", "1:1:3", "--alpha-grid", "-0.4:0.1:2"],
        ["quadbench", "--f", "f3", "--n-grid", "4", "--alpha-grid", "-0.25:0.25:2"],
    ])
    def test_separate_negative_range_matches_attached_form(self, tmp_path, argv):
        separate, attached = tmp_path / "separate.csv", tmp_path / "attached.csv"
        assert main(argv + ["--out", str(separate)]) == 0
        joined = argv[:-2] + [f"--alpha-grid={argv[-1]}"]
        assert main(joined + ["--out", str(attached)]) == 0
        assert separate.read_bytes() == attached.read_bytes()
        header, rows = read_csv(separate)
        assert float(rows[0][1]) == parse_grid(argv[-1])[0] < 0.0


class TestExampleCommand:
    def test_linear_problem_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        code = main(["example", "--id", "1", "--n", "10", "--m", "14",
                     "--alpha", "0.7", "--out", str(out)])
        assert code == 0
        summary = capsys.readouterr().out
        mae = float(summary.split("MAE=")[1].split()[0])
        assert mae <= 5e-14
        header, rows = read_csv(out)
        assert header == "n,m,alpha,mae,cd,kappa2"

    def test_nonlinear_problem_reports_digits(self, capsys):
        code = main(["example", "--id", "2", "--n", "9", "--alpha", "0.5"])
        assert code == 0
        cd = float(capsys.readouterr().out.split("cd=")[1].split()[0])
        assert cd >= 6.0

    def test_unsupported_id_exits_one(self, capsys):
        assert main(["example", "--id", "3", "--n", "8", "--alpha", "0.5"]) == 1
        assert "not supported" in capsys.readouterr().err

    def test_example1_requires_m(self, capsys):
        assert main(["example", "--id", "1", "--n", "10", "--alpha", "0.5"]) == 1


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["gim", "--n", "3", "--alpha", "0.5"],
        ["quadbench", "--f", "f1", "--n-grid", "4", "--alpha-grid", "0.5"],
        ["feasibility", "--n-grid", "4", "--alpha-grid", "0.5"],
        ["example", "--id", "2", "--n", "4", "--alpha", "0.5"],
    ])
    def test_missing_directory_exits_one(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "FileNotFoundError" in err and "Traceback" not in err
        assert not out.parent.exists()

    def test_process_exit_code(self, tmp_path):
        # through entry(), as the installed script runs
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-m", "baryquad", "gim", "--n", "3", "--alpha", "0.5",
                               "--out", str(tmp_path / "missing" / "x.csv")],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 1
        assert "FileNotFoundError" in done.stderr and "Traceback" not in done.stderr


_DEGREES = st.one_of(st.integers(0, 40).map(str),
                     st.sampled_from(["-1", "2.5", "nan", "inf", "1e400", "abc"]))
_ALPHAS = st.one_of(st.floats(-0.45, 2.0).map(repr), st.sampled_from(["-0.5", "-1", "nan", "inf", "x"]))
_ORDERS = st.sampled_from(["-2", "0", "1", "2", "x"])
_EPSILONS = st.sampled_from(["1e-3", "0", "-1", "nan", "inf"])
_INTEGRANDS = st.sampled_from(["f1", "f2", "f3", "exp(x)", "x**", "[x]", "x/0", "y"])


@st.composite
def _command_lines(draw):
    """One command line of each command's grammar, valid or not; valid sizes stay at n <= 40."""
    command = draw(st.sampled_from(["gim", "quadbench", "feasibility", "example"]))
    if command == "gim":
        return ["gim", "--n", draw(_DEGREES), "--alpha", draw(_ALPHAS),
                "--variant", draw(st.sampled_from(["plain", "guarded", "bumped", "basis"])),
                "--q", draw(_ORDERS), "--epsilon", draw(_EPSILONS)]
    if command == "quadbench":
        return ["quadbench", "--f", draw(_INTEGRANDS), "--n-grid", draw(_DEGREES),
                "--alpha-grid", draw(_ALPHAS)]
    if command == "feasibility":
        return ["feasibility", "--n-grid", draw(_DEGREES), "--alpha-grid", draw(_ALPHAS),
                "--epsilon", draw(_EPSILONS)]
    argv = ["example", "--id", str(draw(st.integers(0, 3))), "--n", draw(_DEGREES),
            "--alpha", draw(_ALPHAS)]
    return argv + (["--m", str(draw(st.integers(0, 20)))] if draw(st.booleans()) else [])


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_command_lines(), missing=st.booleans())
    def test_every_command_line_exits_zero_one_or_two(self, argv, missing, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv" if missing else tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err


def _run(parser_factory, argv, capsys):
    """stdout, stderr and exit code of ``main`` with the parser built by ``parser_factory``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", parser_factory)
        code = main(argv)
    out, err = capsys.readouterr()
    return out, err, code


class TestLazyParser:
    # main builds only the subparser that argv names; everything it prints and returns
    # must equal the parse by the parser of all four commands
    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["gim", "--help"], ["quadbench", "--help"],
        ["feasibility", "--help"], ["example", "--help"],
        # left over after the subparser, so reported by the top-level parser
        ["example", "--id", "1", "--n", "4", "--m", "3", "--alpha", "0.5", "zzz"],
        ["gim", "--n", "4"], ["gim", "--n", "4", "--alpha", "1", "--variant", "odd"],
        ["example", "--id", "2", "--n", "4", "--alpha", "0.5"],
    ], ids=lambda argv: " ".join(argv) or "no arguments")
    def test_same_output_as_the_full_parser(self, argv, capsys):
        full = cli.build_parser
        lazy = _run(full, argv, capsys)
        assert lazy == _run(lambda command=None: full(), argv, capsys)
        if argv[-1:] == ["zzz"]:
            assert "{gim,quadbench,feasibility,example}" in lazy[1]
            assert "unrecognized arguments: zzz" in lazy[1] and lazy[2] == 1

    def test_only_the_named_subparser_is_built(self):
        sub = next(a for a in cli.build_parser("example")._actions if a.dest == "command")
        assert list(sub.choices) == ["example"]
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert list(sub.choices) == ["gim", "quadbench", "feasibility", "example"]


class TestDeterminism:
    def test_identical_bytes_between_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["quadbench", "--f", "f3", "--n-grid", "12",
                         "--alpha-grid", "0,0.5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gim_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["gim", "--n", "12", "--alpha", "-0.25", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRowWriter:
    ROWS = [("4", "1", "false"), ("10", "-0.25", "true")]
    WANT = "n,alpha,feasible\n4,1,false\n10,-0.25,true\n"

    def test_literal_bytes_to_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        _write_rows(str(path), "n,alpha,feasible", self.ROWS)
        assert path.read_bytes() == self.WANT.encode()

    def test_literal_bytes_to_stdout(self, capsys):
        _write_rows(None, "n,alpha,feasible", self.ROWS)
        assert capsys.readouterr().out == self.WANT


#: SHA-256 of the CSV each README command with --out writes, keyed by the command
README_CSV_SHA256 = json.loads((Path(__file__).with_name("readme_csv_sha256.json")).read_text())


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\s+```sh\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("baryquad ")]


class TestReadmeCommands:
    @pytest.mark.parametrize("line", _readme_commands())
    def test_runs_with_documented_exit_code(self, line, tmp_path, monkeypatch, capsys):
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        monkeypatch.chdir(tmp_path)  # relative --out paths land here
        assert main(argv) == (2 if "exit 2" in comment else 0)
        if "--out" in argv:
            written = (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
            assert hashlib.sha256(written).hexdigest() == README_CSV_SHA256[command.strip()]

    def test_every_pinned_command_is_in_the_readme(self):
        assert sorted(README_CSV_SHA256) == sorted(
            line.partition("#")[0].strip() for line in _readme_commands() if "--out" in line)
