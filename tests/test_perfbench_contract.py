"""Tier-1 guards for what the benchmark in ``perfbench/`` relies on.

Both tests read ``perfbench/`` files and change none of them.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from baryquad.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for qualified in spans.TRACED:
        module_name, attr = qualified.split(".")
        module = importlib.import_module("baryquad." + module_name)
        assert callable(getattr(module, attr, None)), qualified


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
