"""Benchmark workloads: a seed becomes the CLI commands of one repetition.

Each command is an argv list for ``baryquad.cli.main``.  Alpha values live
on a 0.05 grid and are kept as integers ``k = 20 * alpha`` so that the
output checks can look them up exactly.  The default seed gives the grids
the workloads are named after; any other seed draws the interior alpha
values from the same ranges, keeps the range ends, and keeps alpha = 1.0 in
``scan``, ``solve`` and ``nonlocal``, so the known refusals and infeasible
flags stay in every run and a seed never adds a refusal.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

GRID_UNITS = 20
SCAN_RANGE = (-8, 40)          # alpha in [-0.4, 2]
SOLVE_RANGE = (-8, 20)         # alpha in [-0.4, 1]
QUADBENCH_RANGE = (-5, 40)     # alpha in [-0.25, 2]
GIM_NS = (400, 640)
QUADBENCH_NS = (20, 80, 160, 320)
NONLOCAL_NS = (80, 160, 240)
DEFAULT_SEED = 0

#: the README's literal scan form: argparse reads "-0.4:..." as an option, exit 1
README_SCAN = ("feasibility", "--n-grid", "1:1:3", "--alpha-grid", "-0.4:0.1:2")
#: pairs (example id, n) refused with exit 2 at alpha = 1.0: the solvers use the plain builder
REFUSED_AT_ONE = {(1, 16), (2, 160)}


def units(bounds, step=1):
    return list(range(bounds[0], bounds[1] + 1, step))


def alpha_text(k: int) -> str:
    return f"{k / GRID_UNITS:g}"


def load_reference() -> dict:
    return json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


@dataclass(frozen=True)
class Command:
    """One CLI call, the output check that applies, and its known refusal code (0: none)."""

    argv: tuple
    check: str
    params: dict = field(default_factory=dict)
    refusal: int = 0


@dataclass(frozen=True)
class Workload:
    commands: list
    tail_percentile: int
    min_reps: int


def _draw(rng, bounds, count, allowed, keep=()):
    """Range ends plus `keep`, topped up with distinct interior grid points from `allowed`."""
    chosen = {bounds[0], bounds[1], *keep}
    pool = [k for k in allowed if bounds[0] < k < bounds[1] and k not in chosen]
    return sorted(chosen | set(rng.sample(pool, count - len(chosen))))


def _grid_arg(ks, default_text, default):
    return default_text if default else ",".join(alpha_text(k) for k in ks)


def scan(seed: int, ref: dict, tiny: bool = False) -> Workload:
    default = seed == DEFAULT_SEED
    rng = random.Random(seed)
    # every infeasible point of the scan range sits at alpha = 1.0, so every grid keeps it
    ks = (units(SCAN_RANGE, 2) if default
          else _draw(rng, SCAN_RANGE, 25, units(SCAN_RANGE), keep=(GRID_UNITS,)))
    k_big = 10 if default else rng.choice(units(SCAN_RANGE, 2))
    grid = _grid_arg(ks, "-0.4:0.1:2", default)
    commands = []
    for n in (range(1, 5) if tiny else range(1, 101)):
        commands.append(Command(("feasibility", "--n-grid", str(n), f"--alpha-grid={grid}"),
                                "feasibility", {"ns": [n], "ks": ks}))
    n_big = 40 if tiny else 640
    commands.append(Command(("feasibility", "--n-grid", str(n_big),
                             f"--alpha-grid={alpha_text(k_big)}"),
                            "feasibility", {"ns": [n_big], "ks": [k_big]}))
    commands.append(Command(README_SCAN, "feasibility",
                            {"ns": [1, 2, 3], "ks": units(SCAN_RANGE, 2)}, refusal=1))
    return Workload(commands, tail_percentile=95, min_reps=1 if tiny else 2)


def matrices(seed: int, ref: dict, tiny: bool = False) -> Workload:
    default = seed == DEFAULT_SEED
    rng = random.Random(seed)
    k_gim = 10 if default else rng.choice(ref["gim_alpha_ok"])
    ks = (units(QUADBENCH_RANGE, 5) if default
          else _draw(rng, QUADBENCH_RANGE, 10, ref["quadbench_alpha_ok"]))
    grid = _grid_arg(ks, "-0.25:0.25:2", default)
    commands = []
    for n in ((10, 16) if tiny else GIM_NS):
        for variant in ("plain", "basis"):
            commands.append(Command(("gim", "--n", str(n), "--alpha", alpha_text(k_gim),
                                     "--variant", variant), "gim", {"n": n, "k": k_gim}))
    for n in ((20,) if tiny else QUADBENCH_NS):
        commands.append(Command(("quadbench", "--f", "f3", "--n-grid", str(n),
                                 f"--alpha-grid={grid}"), "quadbench", {"n": n, "ks": ks}))
    return Workload(commands, tail_percentile=55, min_reps=1 if tiny else 3)


def _example(example_id, n, k, m=None):
    argv = ("example", "--id", str(example_id), "--n", str(n))
    if m is not None:
        argv += ("--m", str(m))
    argv += ("--alpha", alpha_text(k))
    refusal = 2 if k == GRID_UNITS and (example_id, n) in REFUSED_AT_ONE else 0
    return Command(argv, f"example{example_id}", {"n": n, "k": k}, refusal=refusal)


def _solve_alphas(seed, allowed):
    if seed == DEFAULT_SEED:
        return units(SOLVE_RANGE, 2)
    return _draw(random.Random(seed), SOLVE_RANGE, 15, allowed, keep=(GRID_UNITS,))


def solve(seed: int, ref: dict, tiny: bool = False) -> Workload:
    if tiny:
        commands = [_example(1, 10, 10, 14), _example(1, 16, GRID_UNITS, 14),
                    _example(1, 10, 10, 15), _example(2, 9, 10)]
        return Workload(commands, tail_percentile=90, min_reps=1)
    ks = _solve_alphas(seed, ref["solve_alpha_ok"])
    commands = [_example(1, n, k, m) for n, m in ((10, 14), (16, 14), (10, 15)) for k in ks]
    commands += [_example(2, 9, k) for k in ks]
    return Workload(commands, tail_percentile=90, min_reps=2)


def nonlocal_(seed: int, ref: dict, tiny: bool = False) -> Workload:
    if tiny:
        return Workload([_example(2, 80, 10), _example(2, 160, GRID_UNITS)],
                        tail_percentile=90, min_reps=1)
    ks = _solve_alphas(seed, ref["nonlocal_alpha_ok"])
    commands = [_example(2, n, k) for n in NONLOCAL_NS for k in ks]
    return Workload(commands, tail_percentile=90, min_reps=3)


WORKLOADS = {"scan": scan, "matrices": matrices, "solve": solve, "nonlocal": nonlocal_}
