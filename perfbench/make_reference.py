"""Regenerate ``reference.json``, the expected outcomes the benchmark checks against.

Run from the repository root::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

The file pins the program's behaviour at the commit that produced it:

* ``scan``: feasibility flags for n = 1..100 on the 0.05 alpha grid over
  [-0.4, 2] (one '0'/'1' character per grid point), and ``scan640`` for
  n = 640 on the 0.1 grid.  The scan workload compares every flag the CLI
  prints against this table.
* ``*_alpha_ok``: the grid points (in units of 0.05) at which every
  command of a workload succeeds.  Seeds other than the default draw their
  alpha values from these lists, so that a seed never adds a refusal to
  the known ones.

The n = 640 column runs the feasibility check 25 times at about 2 GB each,
one at a time; the whole script takes a few minutes.
"""

from __future__ import annotations

import json
from pathlib import Path

from baryquad import (CollisionError, ConvergenceError, GegenbauerParam, build_gim_gg,
                      check_gg_condition, solve_example1, solve_example2)

from workloads import (GRID_UNITS, SCAN_RANGE, SOLVE_RANGE, QUADBENCH_RANGE, QUADBENCH_NS,
                       NONLOCAL_NS, GIM_NS, units)


def _succeeds(fn) -> bool:
    try:
        fn()
    except (CollisionError, ConvergenceError):
        return False
    return True


def _flags(n, ks, scale):
    return "".join("1" if check_gg_condition(n, GegenbauerParam(k / scale)).feasible else "0"
                   for k in ks)


def main() -> None:
    scan_ks = units(SCAN_RANGE)
    tenth_ks = units(SCAN_RANGE, step=2)
    solve_ks = units(SOLVE_RANGE)
    ref = {
        "grid_units": GRID_UNITS,
        "scan": {str(n): _flags(n, scan_ks, GRID_UNITS) for n in range(1, 101)},
        "scan640": _flags(640, tenth_ks, GRID_UNITS),
        "solve_alpha_ok": [
            k for k in solve_ks
            if all(_succeeds(lambda n=n, m=m: solve_example1(n, m, GegenbauerParam(k / GRID_UNITS)))
                   for n, m in ((10, 14), (16, 14), (10, 15)))
            and _succeeds(lambda: solve_example2(9, GegenbauerParam(k / GRID_UNITS)))],
        "nonlocal_alpha_ok": [
            k for k in solve_ks
            if all(_succeeds(lambda n=n: solve_example2(n, GegenbauerParam(k / GRID_UNITS)))
                   for n in NONLOCAL_NS)],
        "gim_alpha_ok": [
            k for k in tenth_ks
            if all(_succeeds(lambda n=n: build_gim_gg(n, GegenbauerParam(k / GRID_UNITS)))
                   for n in GIM_NS)],
        "quadbench_alpha_ok": [
            k for k in units(QUADBENCH_RANGE)
            if all(_succeeds(lambda n=n: build_gim_gg(n, GegenbauerParam(k / GRID_UNITS)))
                   for n in QUADBENCH_NS)],
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
