"""Smoke run of the benchmark on tiny versions of all four workloads.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json

import pytest

import checks
import run
import spans
from workloads import DEFAULT_SEED, WORKLOADS, load_reference


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_tiny_workload_passes_its_checks(name, seed):
    result, lines = run.run(name, seed, seconds=0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0, lines
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer():
    result, lines = run.run("solve", DEFAULT_SEED, seconds=0, trace=True, tiny=True)
    assert result["correct"], lines
    assert list(result["metrics"]) == list(spans.PER_LAYER_UNITS)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["optimal.optimize_alpha.calls"] > 0
    assert metrics["polynomials.eta.calls"] > metrics["optimal.optimize_alpha.calls"]
    assert metrics["solvers.newton_solve.residual_evals"] > metrics["solvers.newton_solve.calls"]


def test_seed_draws_distinct_grids_and_keeps_the_refusals():
    ref = load_reference()
    for name, build in WORKLOADS.items():
        default, drawn = build(DEFAULT_SEED, ref), build(11, ref)
        assert build(11, ref) == drawn
        assert len(drawn.commands) == len(default.commands)
        assert [c.refusal for c in drawn.commands] == [c.refusal for c in default.commands]
        assert drawn != default


def test_feasibility_check_rejects_a_flipped_flag(tmp_path):
    path = tmp_path / "feas.csv"
    path.write_text("n,alpha,feasible\n4,1,false\n4,0.5,true\n")
    params = {"ns": [4], "ks": [20, 10]}
    assert checks.feasibility(params, path, load_reference())[0]
    path.write_text("n,alpha,feasible\n4,1,true\n4,0.5,true\n")
    assert not checks.feasibility(params, path, load_reference())[0]


def test_result_line_is_the_last_line(capsys):
    assert run.main(["--workload", "nonlocal", "--seconds", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}
