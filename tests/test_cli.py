"""Tests for the command-line interface and its exit-code contract."""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from baryquad import cli, gim, optimal, rules
from baryquad.bench import EXACT_INTEGRALS
from baryquad.cli import _write_rows, main, parse_grid


def _python(*args, text=True, **env):
    """A fresh interpreter on ``args``, with the package's source on its path and ``env`` set.

    Its output is text with line ends translated, or bytes where ``text`` is false.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), **env}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=text)


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
        with pytest.raises(ValueError, match="empty range"):
            parse_grid("5:1:1")
        # refused before any value is built: 10^12 points would never finish
        with pytest.raises(ValueError, match="of at most 1000000 points"):
            parse_grid("1:1:1e12")


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

    @pytest.mark.parametrize("argv, message", [
        # the rule of (640, 30) fails its moment check, and (4, 1) collides: a usage
        # error must not wait for either
        (["--n", "640", "--alpha", "30", "--epsilon", "-1"], "epsilon must be positive and finite"),
        (["--n", "640", "--alpha", "30", "--q", "0"], "order must be a positive integer, got 0"),
        (["--n", "4", "--alpha", "1", "--q", "0"], "order must be a positive integer, got 0"),
        # from q = 172 on, (q - 1)! is past the largest double
        (["--n", "640", "--alpha", "30", "--q", "172"], "order must be at most 171, got 172"),
    ])
    def test_options_are_checked_before_the_build(self, argv, message, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["gim", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"UsageError: {message}\n"
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
        # "," parses to an empty list, which the grid check refuses before the integrand is read
        assert main(["quadbench", "--f", "x**", "--n-grid", ",", "--alpha-grid", "0.5"]) == 1
        assert main(["quadbench", "--f", "f1", "--n-grid", "4", "--alpha-grid", ","]) == 1
        err = capsys.readouterr().err
        assert err.count("UsageError: --n-grid and --alpha-grid must each list at least one value\n") == 2
        assert "integrand" not in err

    def test_time_flag_reports_elapsed_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["quadbench", "--f", "f1", "--n-grid", "4", "--alpha-grid", "0.5",
                     "--time", "--out", str(out)]) == 0
        assert re.fullmatch(r"elapsed: \d+\.\d{3} s\n", capsys.readouterr().err)
        assert read_csv(out)[0] == "n,alpha,node_index,err_bary,err_basis"

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

    @pytest.mark.parametrize("expression", ["1", "pi", "exp(0)"])
    def test_constant_expression(self, expression, tmp_path):
        # an expression without x evaluates to one number, which quadbench takes at every node
        out = tmp_path / "bench.csv"
        assert main(["quadbench", "--f", expression, "--n-grid", "4,10", "--alpha-grid", "0.5",
                     "--out", str(out)]) == 0
        rows = read_csv(out)[1]
        assert len(rows) == 5 + 11
        assert max(float(r[3]) for r in rows) <= 1e-14

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

    def test_empty_grid_exits_one(self, tmp_path, capsys):
        # "," parses to an empty list: it wrote a header-only CSV and exited 0
        out = tmp_path / "feas.csv"
        assert main(["feasibility", "--n-grid", ",", "--alpha-grid", "0.5", "--out", str(out)]) == 1
        assert main(["feasibility", "--n-grid", "4", "--alpha-grid", ",", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("UsageError: --n-grid and --alpha-grid must each list at least one value\n") == 2
        assert not out.exists()

    def test_malformed_range_exits_one(self, capsys):
        assert main(["feasibility", "--n-grid", "1:5", "--alpha-grid", "0.5"]) == 1
        # refused before any of its 10^12 values is built
        assert main(["feasibility", "--n-grid", "1:1:1e12", "--alpha-grid", "0.5"]) == 1
        assert "UsageError: range '1:1:1e12' must be finite, of at most" in capsys.readouterr().err

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

    def test_epsilon_is_checked_before_the_rules(self, tmp_path, capsys):
        # the rule of (640, 30) fails its moment check; the usage error comes first
        out = tmp_path / "feas.csv"
        assert main(["feasibility", "--n-grid", "640", "--alpha-grid", "30", "--epsilon", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "UsageError: epsilon must be positive and finite\n"
        assert not out.exists()

    def test_non_integer_degree_exits_one(self, tmp_path, capsys):
        out = tmp_path / "feas.csv"
        assert main(["feasibility", "--n-grid", "2.5", "--alpha-grid", "0.5",
                     "--out", str(out)]) == 1
        assert "UsageError" in capsys.readouterr().err and not out.exists()

    def test_large_alpha_grid_memory_is_bounded(self, tmp_path):
        # 2,001 alpha at n = 100: one SVD of every block with its vectors peaked at 130 MiB
        out = tmp_path / "feas.csv"
        tracemalloc.start()
        try:
            code = main(["feasibility", "--n-grid", "100", "--alpha-grid", "0:0.001:2", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(read_csv(out)[1]) == 2001
        assert peak < 16 * 2 ** 20

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

    def test_m_is_checked_before_any_work(self, capsys):
        # the rule of (640, 30) does not converge, so any work before the check exits 2
        assert main(["example", "--id", "1", "--n", "640", "--m", "-1", "--alpha", "30"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "m must be a non-negative integer" in err

    def test_example2_refuses_m(self, tmp_path, capsys):
        path = tmp_path / "sol.csv"
        assert main(["example", "--id", "2", "--n", "9", "--m", "3", "--alpha", "0.5",
                     "--out", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "example 2 takes no --m" in err
        assert not path.exists()


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

    @pytest.mark.parametrize("argv", [
        ["gim", "--n", "640", "--alpha", "30"],
        ["example", "--id", "2", "--n", "640", "--alpha", "30"],
        ["feasibility", "--n-grid", "640", "--alpha-grid", "10"],
        ["quadbench", "--n-grid", "640", "--alpha-grid", "10"],
    ])
    def test_checked_before_any_work(self, argv, tmp_path, capsys):
        # each of these rules fails its moment check (exit 2) once it is built
        out = tmp_path / "missing" / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"FileNotFoundError: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_directory_exits_one(self, tmp_path, capsys):
        assert main(["gim", "--n", "640", "--alpha", "30", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("IsADirectoryError: ")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_directory_exits_one(self, tmp_path, capsys, monkeypatch):
        # as root every directory is writable, so the permission test is stubbed
        monkeypatch.setattr(os, "access", lambda path, mode: mode != os.W_OK)
        out = tmp_path / "x.csv"
        assert main(["feasibility", "--n-grid", "640", "--alpha-grid", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("PermissionError: ")
        assert not out.exists()

    def test_process_exit_code(self, tmp_path):
        # through entry(), as the installed script runs
        done = _python("-m", "baryquad", "gim", "--n", "3", "--alpha", "0.5",
                       "--out", str(tmp_path / "missing" / "x.csv"))
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

    @pytest.mark.parametrize("argv", [
        ["gim", "--n", "640", "--alpha", "-0.499999999999"],
        ["feasibility", "--n-grid", "640", "--alpha-grid=-0.499999999999"],
        ["example", "--id", "2", "--n", "640", "--alpha", "-0.499999999999"]])
    def test_one_line_where_a_node_rounds_onto_one(self, argv):
        # within 1e-12 of -1/2 an end node rounds onto 1: the error line alone, no numpy warning
        done = _python("-m", "baryquad", *argv)
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["ConvergenceError: node computation failed for n=640, "
                                            "alpha=-0.499999999999: nodes not ordered in (-1, 1)"]

    @pytest.mark.parametrize("argv", [
        # the next double above -1/2: the recurrence's k = 2 step divides by 0
        ["gim", "--n", "10", "--alpha=-0.49999999999999994"],
        ["feasibility", "--n-grid", "10", "--alpha-grid=-0.49999999999999994"],
        ["example", "--id", "1", "--n", "10", "--m", "14", "--alpha=-0.49999999999999994"],
        # beta of the Jacobi matrix overflows: NaN nodes, or an SVD that does not converge
        ["gim", "--n", "40", "--alpha", "1e160"],
        ["gim", "--n", "3", "--alpha", "1e308"],
        ["feasibility", "--n-grid", "3", "--alpha-grid", "1e308"],
        ["example", "--id", "2", "--n", "3", "--alpha", "1e308"],
        # at n <= 1 the moment checked is the mass: lgamma overflows from alpha = 2.5e305, and
        # from about 1.2e5 its rounding passes the tolerance, so the weights are not known
        ["gim", "--n", "0", "--alpha", "1e308"],
        ["gim", "--n", "1", "--alpha", "3e305"],
        ["feasibility", "--n-grid", "0", "--alpha-grid", "3e305"],
        ["example", "--id", "2", "--n", "0", "--alpha", "3e305"],
        ["gim", "--n", "1", "--alpha", "1e50"],
        ["example", "--id", "2", "--n", "1", "--alpha", "1e50"],
        ["example", "--id", "1", "--n", "1", "--m", "14", "--alpha", "1e160"],
        ["quadbench", "--n-grid", "1", "--alpha-grid", "1e50"],
        ["gim", "--n", "0", "--alpha", "1e50", "--variant", "basis"]],
        ids=lambda argv: " ".join(argv))
    def test_one_line_at_either_end_of_alpha(self, argv):
        done = _python("-m", "baryquad", *argv)
        assert done.returncode == 2
        assert re.fullmatch(r"ConvergenceError: (node computation|SVD) failed for n=\d+, alpha[^\n]*\n",
                            done.stderr)

    @pytest.mark.parametrize("argv", [
        ["gim", "--n", "4", "--alpha", "0.5", "--q", "172"],
        ["gim", "--n", "4", "--alpha", "0.5", "--variant", "basis", "--q", "300"]])
    def test_one_line_for_an_order_past_the_factorials_of_doubles(self, argv):
        done = _python("-m", "baryquad", *argv)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == f"UsageError: order must be at most 171, got {argv[-1]}\n"


def _fresh(argv):
    """stdout, stderr and exit code of ``argv`` in a fresh interpreter, which builds its own parser."""
    done = _python("-m", "baryquad", *argv, text=False)  # keep the CSV rows' CR LF ends
    return done.stdout.decode(), done.stderr.decode(), done.returncode


def _reused(argv, capsys):
    """stdout, stderr and exit code of ``main(argv)`` in this process, on the parser it shares."""
    code = main(argv)
    out, err = capsys.readouterr()
    return out, err, code


class TestLazyParser:
    # main builds the parser of all four commands on its first call, not at import, and every
    # later call parses with it: a call must print and return what it does in a fresh interpreter
    @pytest.fixture(autouse=True)
    def _fixed_help_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal's width

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["gim", "--help"], ["quadbench", "--help"],
        ["feasibility", "--help"], ["example", "--help"],
        # left over after the subparser, so reported by the top-level parser
        ["example", "--id", "1", "--n", "4", "--m", "3", "--alpha", "0.5", "zzz"],
        ["gim", "--n", "4"], ["gim", "--n", "4", "--alpha", "1", "--variant", "odd"],
        ["example", "--id", "2", "--n", "4", "--alpha", "0.5"],
    ], ids=lambda argv: " ".join(argv) or "no arguments")
    def test_same_output_as_the_full_parser(self, argv, capsys):
        # the parser has just parsed other options of other commands
        _reused(["example", "--id", "1", "--n", "4", "--m", "3", "--alpha", "0.25"], capsys)
        _reused(["gim", "--n", "3", "--alpha", "2", "--variant", "basis", "--q", "2"], capsys)
        reused = _reused(argv, capsys)
        assert reused == _fresh(argv)
        if argv[-1:] == ["zzz"]:
            assert "{gim,quadbench,feasibility,example}" in reused[1]
            assert "unrecognized arguments: zzz" in reused[1] and reused[2] == 1

    @pytest.mark.parametrize("calls", [
        # a --m left over from example 1 would make example 2 exit 1
        [["example", "--id", "1", "--n", "10", "--m", "14", "--alpha", "0.5"],
         ["example", "--id", "2", "--n", "9", "--alpha", "0.5"]],
        [["gim", "--n", "4", "--alpha", "0.5", "--variant", "basis"], ["gim", "--n", "4", "--alpha", "0.5"]],
        [["feasibility", "--n-grid", "4", "--alpha-grid", "0.5", "--epsilon", "0"],
         ["feasibility", "--n-grid", "1:1:4", "--alpha-grid", "0.5,1"]],
    ], ids=["example 1 then 2", "basis then plain", "usage error then valid"])
    def test_reused_parser_leaks_no_state(self, calls, capsys):
        reused = [_reused(argv, capsys) for argv in calls]
        assert reused == [_fresh(argv) for argv in calls]
        assert [code for _, _, code in reused] == ([1, 0] if "--epsilon" in calls[0] else [0, 0])

    def test_the_parser_is_built_once(self, monkeypatch, capsys):
        built = []

        class Counted(cli._Parser):
            def __init__(self, **kwargs):
                built.append(kwargs["prog"])
                super().__init__(**kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        cli.build_parser.cache_clear()
        try:
            codes = [main(argv) for argv in (["gim", "--n", "3", "--alpha", "0.5"], ["bogus"],
                                             ["feasibility", "--n-grid", "4", "--alpha-grid", "1"],
                                             ["example", "--id", "2", "--n", "4", "--alpha", "0.5"])]
        finally:
            cli.build_parser.cache_clear()  # the next call builds a parser of the real class
        capsys.readouterr()
        assert codes == [0, 1, 0, 0]
        # one top-level parser and each subparser once, all at the first call
        assert built == ["baryquad", "baryquad gim", "baryquad quadbench", "baryquad feasibility",
                         "baryquad example"]


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

    def test_matrix_does_not_depend_on_the_blas_thread_count(self):
        # the square matrix reads no Gauss weight, and below n = 780 the Legendre rule's
        # weights do not depend on the thread count either
        script = ("import hashlib; from baryquad import GegenbauerParam, build_gim_gg; "
                  "print(hashlib.sha256(build_gim_gg(640, GegenbauerParam(0.5)).entries).hexdigest())")
        runs = [_python("-c", script, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
        assert [run.returncode for run in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout


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


def _paper_xi(nodes, alpha):
    """The paper's explicit weights (-1)^i sin(arccos x_i) sqrt(w_i) at the same nodes."""
    n = nodes.shape[-1] - 1
    weights = np.array([w for _, w in rules._nodes_weights(n, tuple(np.ravel(alpha).tolist()))])
    return (-1.0) ** np.arange(n + 1) * np.sin(np.arccos(nodes)) * np.sqrt(weights.reshape(nodes.shape))


def _numbers(path):
    """Every number of a CSV but the column ``cd``, -log10 of the column ``mae`` beside it."""
    values, names = [], []
    for line in path.read_text().splitlines():
        cells = line.split(",")
        try:
            float(cells[0])
        except ValueError:
            names = cells  # a header line
            continue
        for name, cell in zip(names + [""] * len(cells), cells):
            if name != "cd" and '"' not in cell:  # the quoted interval holds a comma
                values.append(float(cell))
    return np.array(values)


class TestReadmeValuesMoveByRounding:
    # the hashes of these commands were re-pinned when the barycentric weights moved from the
    # paper's explicit form to 1 / G_n^(alpha+1)(x_i).  With the explicit form put back at the
    # same nodes, each value moves by at most 3.6e-16 (gim), 4.4e-16 (quadbench) and 7.6e-15
    # (example 1, its MAE) relative to max(1, |value|)
    @pytest.mark.parametrize("command", [c for c in README_CSV_SHA256 if "feasibility" not in c])
    def test_values_move_within_the_tolerance(self, command, tmp_path, monkeypatch, capsys):
        argv = shlex.split(command)[1:]
        values = []
        for form in ("now", "paper"):
            (tmp_path / form).mkdir()
            monkeypatch.chdir(tmp_path / form)
            if form == "paper":
                monkeypatch.setattr(gim, "_gauss_xi", _paper_xi)
                monkeypatch.setattr(optimal, "_gauss_xi", _paper_xi)
            assert main(argv) == 0
            values.append(_numbers(tmp_path / form / argv[argv.index("--out") + 1]))
        now, paper = values
        assert now.size == paper.size > 0 and np.array_equal(np.isnan(now), np.isnan(paper))
        moved = np.abs(now - paper)[~np.isnan(now)] / np.maximum(1.0, np.abs(now[~np.isnan(now)]))
        assert np.max(moved) <= 1e-14


class TestReadmeLibraryExample:
    def test_runs_and_integrates_the_gaussian(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Library example\s+```python\n(.*?)```", readme, re.S).group(1)
        namespace = {}
        exec(block, namespace)
        square, optimal = namespace["matrix"], namespace["optimal"]
        assert square.shape == (21, 21) and optimal.source_nodes.shape == (21, 15)
        exact = EXACT_INTEGRALS["f2"](optimal.target_nodes)
        # the last block computes the optimal matrix's integrals; its error is 3.3e-11
        assert np.max(np.abs(namespace["integrals"] - exact)) <= 1e-9
        samples = np.exp(-square.source_nodes ** 2)
        assert np.max(np.abs(square.entries @ samples - exact)) <= 1e-14  # same targets
