"""Tier-1 guards for what the benchmark in ``perfbench/`` relies on.

The tests read ``perfbench/`` files and change none of them.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from baryquad.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: install perfbench's tracer, run each command of argv[3] (JSON) through the CLI, and print
#: the number of spans named argv[2] of each command
_COUNT_SPANS = """
import importlib.util, json, sys
import baryquad.cli
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
counts = []
for command, argv in enumerate(json.loads(sys.argv[3])):
    tracer.command = command
    assert baryquad.cli.main(argv) == 0, argv
    counts.append(sum(span[0] == sys.argv[2] and span[4] == command for span in tracer.spans))
print(json.dumps(counts))
"""


def _span_counts(name, commands):
    """The number of spans named ``name`` of each command, traced in a fresh interpreter.

    A fresh interpreter keeps the tracer's rebinding out of the other tests.
    """
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    run = subprocess.run([sys.executable, "-c", _COUNT_SPANS, str(PERFBENCH / "spans.py"), name,
                          json.dumps(commands)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for qualified in spans.TRACED:
        module_name, attr = qualified.split(".")
        module = importlib.import_module("baryquad." + module_name)
        assert callable(getattr(module, attr, None)), qualified


def test_every_square_build_is_one_traced_span(tmp_path):
    # each command builds one square matrix, the solvers' bumped one included
    out = str(tmp_path / "out.csv")
    commands = [["example", "--id", "2", "--n", "9", "--alpha", "0.5"],
                ["example", "--id", "1", "--n", "10", "--m", "14", "--alpha", "0.7"],
                ["gim", "--n", "4", "--alpha", "1", "--variant", "bumped", "--out", out],
                ["gim", "--n", "4", "--alpha", "1", "--variant", "guarded", "--out", out],
                ["quadbench", "--f", "f3", "--n-grid", "10", "--alpha-grid", "0.5", "--out", out]]
    assert _span_counts("gim.build_gim_gg", commands) == [1] * len(commands)


def test_every_feasibility_degree_is_one_traced_check(tmp_path):
    # feasibility calls the public check once per degree, with that degree's whole alpha grid
    out = str(tmp_path / "out.csv")
    commands = [["feasibility", "--n-grid", "1:1:4", "--alpha-grid=-0.4:0.1:2", "--out", out],
                ["feasibility", "--n-grid", "640", "--alpha-grid", "0.5", "--out", out]]
    assert _span_counts("gim.check_gg_condition", commands) == [4, 1]


def test_feasibility_flags_on_the_default_grid_match_the_reference(tmp_path):
    # n = 1..100 over the reference's whole 0.05 grid, alpha = -0.4:0.05:2, the points any
    # benchmark seed can draw; the README's default grid is every other one.  One command
    # checks them, so each degree goes through the CLI's batch check as a scan does.  The
    # flags do not pin the nodes' last bits (they also hold with the Newton polish switched off)
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    units = ref["grid_units"]
    alphas = [k / units for k in range(-8, 41)]
    out = tmp_path / "feas.csv"
    assert main(["feasibility", "--n-grid", "1:1:100", "--alpha-grid", ",".join(map(repr, alphas)),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(alpha) for _, alpha, _ in rows[:len(alphas)]] == alphas
    for n in range(1, 101):
        flags = rows[(n - 1) * len(alphas):n * len(alphas)]
        got = "".join("1" if feasible == "true" else "0" for _, _, feasible in flags)
        assert {degree for degree, _, _ in flags} == {str(n)}
        assert got == ref["scan"][str(n)], n
