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
import re
import sys
import time

import numpy as np

from .bench import BenchmarkSpec, run_benchmark
from .errors import CollisionError, ConvergenceError
from .gim import (build_basis_gim, build_gim_gg, build_gim_gg_bumped, build_gim_gg_guarded,
                  check_gg_condition, matrix_to_csv, qth_order_gim)
from .polynomials import EPS_MACH, GegenbauerParam, _check_epsilon
from .rules import _nodes_weights, _write_lines
from .solvers import solve_example1, solve_example2, solution_to_csv

USAGE_ERROR = 1
INFEASIBLE = 2
_GRID_OPTIONS = ("--n-grid", "--alpha-grid")

_VARIANTS = {
    "plain": build_gim_gg,
    "guarded": build_gim_gg_guarded,
    "bumped": build_gim_gg_bumped,
}


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
        count = int(round((stop - start) / step))
        if count < 0:
            raise ValueError(f"empty range {text!r}")
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


def _parse_degrees(text: str):
    """Parse a degree grid as :func:`parse_grid` does; every value must be an integer."""
    values = parse_grid(text)
    if not all(v.is_integer() for v in values):
        raise ValueError(f"degree grid values must be integers, got {text!r}")
    return [int(v) for v in values]


def _write_rows(path, header, rows):
    _write_lines(sys.stdout if path is None else path, [header + "\n"],
                 (",".join(cells) + "\n" for cells in rows))


def cmd_gim(args) -> int:
    param = GegenbauerParam(args.alpha)
    if args.variant == "basis":
        _check_epsilon(args.epsilon)  # the modal form screens nothing, but the option is still checked
        matrix = build_basis_gim(args.n, param)
    else:
        matrix = _VARIANTS[args.variant](args.n, param, args.epsilon)
    matrix = qth_order_gim(matrix, args.q)
    matrix_to_csv(matrix, sys.stdout if args.out is None else args.out)
    return 0


def cmd_quadbench(args) -> int:
    spec = BenchmarkSpec(integrand=args.f, n_grid=tuple(_parse_degrees(args.n_grid)),
                         alpha_grid=tuple(parse_grid(args.alpha_grid)))
    start = time.perf_counter()
    rows = [(str(n), f"{alpha:.17g}", str(j), f"{eb:.17g}", f"{es:.17g}")
            for n, alpha, j, eb, es in run_benchmark(spec)]
    elapsed = time.perf_counter() - start
    _write_rows(args.out, "n,alpha,node_index,err_bary,err_basis", rows)
    if args.time:
        print(f"elapsed: {elapsed:.3f} s", file=sys.stderr)
    return 0


def cmd_feasibility(args) -> int:
    n_grid = _parse_degrees(args.n_grid)
    params = [GegenbauerParam(a) for a in parse_grid(args.alpha_grid)]
    rows = []
    for n in n_grid:
        _nodes_weights(n, tuple(p.alpha for p in params))  # the Gauss rules of all alpha in one batch
        for param in params:
            report = check_gg_condition(n, param, args.epsilon)
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
    else:
        solution = solve_example2(args.n, param)
    if args.out is not None:
        solution_to_csv(solution, args.out)
    k_s = "n/a" if solution.kappa2 is None else f"{solution.kappa2:.6g}"
    print(f"example {args.id}: n={solution.n} m={solution.m if solution.m is not None else 'n/a'} "
          f"alpha={solution.alpha:g} MAE={solution.mae:.6e} cd={solution.cd:.3f} kappa2={k_s}")
    return 0


_COMMANDS = ("gim", "quadbench", "feasibility", "example")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    Without the other subcommands the parser still names all of them in
    its usage line, so a command line that starts with ``command`` prints
    and returns the same as with the full parser.
    """
    parser = _Parser(prog="baryquad",
                     description="Stable barycentric Gegenbauer integration matrices and quadratures")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    names = _COMMANDS if command is None else (command,)

    if "gim" in names:
        p = sub.add_parser("gim", help="build an integration matrix and write CSV")
        p.add_argument("--n", type=int, required=True, help="degree (matrix has n+1 source nodes)")
        p.add_argument("--alpha", type=float, required=True, help="family parameter, > -1/2")
        p.add_argument("--variant", choices=["plain", "guarded", "bumped", "basis"], default="plain")
        p.add_argument("--q", type=int, default=1, help="integration order")
        p.add_argument("--epsilon", type=float, default=EPS_MACH, help="collision tolerance")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.set_defaults(func=cmd_gim)

    if "quadbench" in names:
        p = sub.add_parser("quadbench", help="benchmark quadrature errors against exact integrals "
                           "(f1, f2, f3) or adaptive quadrature (expressions)")
        p.add_argument("--f", default="f2",
                       help="f1 (x^20), f2 (exp(-x^2)), f3 (Runge) or an expression in x")
        p.add_argument("--n-grid", default="20,80")
        p.add_argument("--alpha-grid", default="-0.25:0.25:2")
        p.add_argument("--time", action="store_true", help="report elapsed wall time on stderr")
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_quadbench)

    if "feasibility" in names:
        p = sub.add_parser("feasibility", help="scan the square-matrix sufficient condition")
        p.add_argument("--n-grid", default="1:1:100")
        p.add_argument("--alpha-grid", default="-0.4:0.1:2")
        p.add_argument("--epsilon", type=float, default=EPS_MACH)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_feasibility)

    if "example" in names:
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
    # a command line that starts with a command needs only that command's parser
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
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


if __name__ == "__main__":
    entry()
