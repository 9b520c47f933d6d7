"""Command-line front end.

Subcommands::

    gim          build an integration matrix, write it as CSV
    quadbench    compare barycentric vs basis quadrature errors on a grid
    feasibility  scan the square-matrix sufficient condition over a grid
    example      reproduce one of the benchmark collocation problems

Exit codes: 0 success, 1 usage error (including an output file that
cannot be written), 2 infeasible parameters.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import re
import sys
import time

import numpy as np

from .bench import run_benchmark
from .errors import CollisionError, ConvergenceError
from .gim import (SQUARE_VARIANTS, _check_gg_batch, build_basis_gim, build_gim_gg, matrix_to_csv,
                  qth_order_gim)
from .polynomials import EPS_MACH, GegenbauerParam, _check_degree, _check_epsilon
from .rules import _write_lines
from .solvers import solve_example1, solve_example2, solution_to_csv

USAGE_ERROR = 1
INFEASIBLE = 2
_GRID_OPTIONS = ("--n-grid", "--alpha-grid")
#: most points of one start:step:stop range, checked before any value is built
_MAX_RANGE_POINTS = 10 ** 6


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"UsageError: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def parse_grid(text: str):
    """Parse '1,2,5' lists or MATLAB-style 'start:step:stop' ranges."""
    text = text.strip()
    if not text:
        raise ValueError("empty grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if step == 0.0:
            raise ValueError("range step must be nonzero")
        span = (stop - start) / step
        if span < -0.5:  # rounds to a negative count
            raise ValueError(f"empty range {text!r}")
        if not span < _MAX_RANGE_POINTS - 0.5:  # round(span) + 1 points at most; NaN and inf fail
            raise ValueError(f"range {text!r} must be finite, of at most {_MAX_RANGE_POINTS} points")
        count = int(round(span))
        values = [start + i * step for i in range(count + 1)]
        return [round(v, 12) for v in values if (v - stop) * np.sign(step) <= 1e-12]
    return [float(p) for p in text.split(",") if p.strip()]


def _attach_grid_values(argv):
    """Join '--alpha-grid -0.4:0.1:2' into '--alpha-grid=-0.4:0.1:2'.

    argparse reads a separate value that starts with '-' as an option
    unless it is a plain negative number, which a range or list is not.
    """
    out = []
    for token in argv:
        if out and out[-1] in _GRID_OPTIONS and re.match(r"-[\d.]", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _grid(args):
    """The degrees and parameters of ``--n-grid`` and ``--alpha-grid``, every value checked first."""
    n_grid, alpha_grid = parse_grid(args.n_grid), parse_grid(args.alpha_grid)
    if not n_grid or not alpha_grid:
        raise ValueError("--n-grid and --alpha-grid must each list at least one value")
    return [_check_degree(n, "degree") for n in n_grid], [GegenbauerParam(a) for a in alpha_grid]


def _check_out(path) -> None:
    """Raise the ``OSError`` that opening ``--out`` would: its directory missing or read-only, or a directory."""
    if path is None:
        return
    parent = os.path.dirname(path) or os.curdir
    fault = (errno.EISDIR if os.path.isdir(path) else errno.ENOENT if not os.path.isdir(parent)
             else errno.EACCES if not os.access(parent, os.W_OK) else None)
    if fault:
        raise OSError(fault, os.strerror(fault), path)


def _write_rows(path, header, rows):
    _write_lines(sys.stdout if path is None else path, [header + "\n"],
                 (",".join(cells) + "\n" for cells in rows))


def cmd_gim(args) -> int:
    param = GegenbauerParam(args.alpha)
    _check_epsilon(args.epsilon)  # every option is checked before the rule is built
    _check_degree(args.q, "order", positive=True)
    if args.variant == "basis":
        matrix = build_basis_gim(args.n, param)
    else:
        matrix = build_gim_gg(args.n, param, args.epsilon, args.variant)
    matrix = qth_order_gim(matrix, args.q)
    matrix_to_csv(matrix, sys.stdout if args.out is None else args.out)
    return 0


def cmd_quadbench(args) -> int:
    degrees, params = _grid(args)
    start = time.perf_counter()
    rows = [(str(n), f"{alpha:.17g}", str(j), f"{eb:.17g}", f"{es:.17g}")
            for n, alpha, j, eb, es in run_benchmark(args.f, degrees, params)]
    elapsed = time.perf_counter() - start
    _write_rows(args.out, "n,alpha,node_index,err_bary,err_basis", rows)
    if args.time:
        print(f"elapsed: {elapsed:.3f} s", file=sys.stderr)
    return 0


def cmd_feasibility(args) -> int:
    degrees, params = _grid(args)
    rows = []
    for n in degrees:
        for param, report in zip(params, _check_gg_batch(n, params, args.epsilon)):
            rows.append((str(n), f"{param.alpha:.17g}", "true" if report.feasible else "false"))
    _write_rows(args.out, "n,alpha,feasible", rows)
    return 0


def cmd_example(args) -> int:
    if args.id not in (1, 2):
        raise ValueError(f"example id {args.id} is not supported (choose 1 or 2)")
    param = GegenbauerParam(args.alpha)
    if args.id == 1:
        if args.m is None:
            raise ValueError("example 1 requires --m")
        solution = solve_example1(args.n, args.m, param)
    elif args.m is not None:
        raise ValueError("example 2 takes no --m")
    else:
        solution = solve_example2(args.n, param)
    if args.out is not None:
        solution_to_csv(solution, args.out)
    k_s = "n/a" if solution.kappa2 is None else f"{solution.kappa2:.6g}"
    print(f"example {args.id}: n={solution.n} m={solution.m if solution.m is not None else 'n/a'} "
          f"alpha={solution.alpha:g} MAE={solution.mae:.6e} cd={solution.cd:.3f} kappa2={k_s}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared, unchanged, by every later one."""
    parser = _Parser(prog="baryquad",
                     description="Stable barycentric Gegenbauer integration matrices and quadratures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gim", help="build an integration matrix and write CSV")
    p.add_argument("--n", type=int, required=True, help="degree (matrix has n+1 source nodes)")
    p.add_argument("--alpha", type=float, required=True, help="family parameter, > -1/2")
    p.add_argument("--variant", choices=[*SQUARE_VARIANTS, "basis"], default="plain")
    p.add_argument("--q", type=int, default=1, help="integration order")
    p.add_argument("--epsilon", type=float, default=EPS_MACH, help="collision tolerance")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_gim)

    p = sub.add_parser("quadbench", help="benchmark quadrature errors against exact integrals "
                       "(f1, f2, f3) or adaptive quadrature (expressions)")
    p.add_argument("--f", default="f2",
                   help="f1 (x^20), f2 (exp(-x^2)), f3 (Runge) or an expression in x")
    p.add_argument("--n-grid", default="20,80")
    p.add_argument("--alpha-grid", default="-0.25:0.25:2")
    p.add_argument("--time", action="store_true", help="report elapsed wall time on stderr")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quadbench)

    p = sub.add_parser("feasibility", help="scan the square-matrix sufficient condition")
    p.add_argument("--n-grid", default="1:1:100")
    p.add_argument("--alpha-grid", default="-0.4:0.1:2")
    p.add_argument("--epsilon", type=float, default=EPS_MACH)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("example", help="run a benchmark collocation problem")
    p.add_argument("--id", type=int, required=True, help="1 (linear) or 2 (nonlinear)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="source expansion degree (example 1)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", default=None, help="solution CSV path")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    argv = _attach_grid_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        _check_out(args.out)  # every command has --out
        return args.func(args)
    except ValueError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CollisionError, ConvergenceError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return INFEASIBLE


def entry() -> None:
    sys.exit(main())
