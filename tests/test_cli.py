"""Tests for the command-line interface and its exit-code contract."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

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

    @pytest.mark.parametrize("epsilon", ["nan", "-1", "0"])
    def test_non_positive_epsilon_exits_one(self, epsilon, tmp_path, capsys):
        out = tmp_path / "m.csv"
        for variant in ("plain", "basis"):  # the basis variant takes no epsilon, but checks it
            assert main(["gim", "--n", "4", "--alpha", "1", "--variant", variant,
                         "--epsilon", epsilon, "--out", str(out)]) == 1
            assert "UsageError: epsilon must be positive" in capsys.readouterr().err
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
