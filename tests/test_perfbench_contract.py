"""Tier-1 guards for what the benchmark in ``perfbench/`` relies on.

Both tests read ``perfbench/`` files and change none of them.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from baryquad import GegenbauerParam, check_gg_condition
from baryquad.rules import _nodes_weights

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for qualified in spans.TRACED:
        module_name, attr = qualified.split(".")
        module = importlib.import_module("baryquad." + module_name)
        assert callable(getattr(module, attr, None)), qualified


def test_feasibility_flags_on_the_default_grid_match_the_reference():
    # n = 1..100 over the reference's whole 0.05 grid, alpha = -0.4:0.05:2, the
    # points any benchmark seed can draw; the README's default grid is every other
    # one.  The flags do not pin the nodes' last bits (they also hold with the
    # Newton polish switched off)
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    units = ref["grid_units"]
    alphas = tuple(k / units for k in range(-8, 41))
    for n in range(1, 101):
        _nodes_weights(n, alphas)  # the Gauss rules of all alpha in one batch, as feasibility does
        got = "".join("1" if check_gg_condition(n, GegenbauerParam(a)).feasible else "0"
                      for a in alphas)
        assert got == ref["scan"][str(n)], n
