"""Output checks, independent of the package being timed.

Each check reads one command's output file and returns ``(ok, digits,
detail)``.  ``digits`` is -log10 of the worst error against an independent
value (exact integrals and solutions, scipy's Gauss nodes, scipy's adaptive
quadrature as reported by ``quadbench``), capped at full double precision;
an exact output that matches (feasibility flags) scores full precision.
Nothing here imports ``baryquad``.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import roots_gegenbauer, roots_legendre

from workloads import GRID_UNITS, SCAN_RANGE

EPS = float(np.finfo(np.float64).eps)
FULL_DIGITS = -math.log10(EPS)
#: quadbench asks its adaptive oracle for 1e-14; errors below that are not resolved
ORACLE_FLOOR = 1e-14
#: correct-digit floor of example 2 at n = 9 (the paper's size); larger n must reach 13.5
EXAMPLE2_FLOOR = {9: 7.0}
EXAMPLE2_FLOOR_LARGE = 13.5


def _digits(err: float) -> float:
    return min(FULL_DIGITS, -math.log10(max(err, EPS)))


def _k(alpha: float) -> int:
    k = round(alpha * GRID_UNITS)
    if abs(alpha - k / GRID_UNITS) > 1e-12:
        raise ValueError(f"alpha {alpha!r} is off the benchmark grid")
    return k


def gauss_nodes(count: int, alpha: float) -> np.ndarray:
    """Nodes of the count-point Gauss rule for the weight (1 - x^2)^(alpha - 1/2)."""
    if alpha == 0.5:
        return roots_legendre(count)[0]
    return roots_gegenbauer(count, alpha)[0]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def feasibility(params, path, ref):
    rows = _rows(path)
    if rows[0] != ["n", "alpha", "feasible"]:
        return False, 0.0, "bad header"
    expected = {(n, k) for n in params["ns"] for k in params["ks"]}
    seen = set()
    for n_s, alpha_s, flag in rows[1:]:
        n, k = int(n_s), _k(float(alpha_s))
        offset = k - SCAN_RANGE[0]
        want = ref["scan640"][offset // 2] if n == 640 else ref["scan"][str(n)][offset]
        if flag != {"1": "true", "0": "false"}[want]:
            return False, 0.0, f"flag at n={n}, alpha={alpha_s} is {flag}, reference {want}"
        seen.add((n, k))
    if seen != expected or len(rows) - 1 != len(expected):
        return False, 0.0, "grid points missing or repeated"
    return True, FULL_DIGITS, "flags match the reference table"


def gim(params, path, ref):
    """Parse the CSV back and check it integrates monomials of degree <= n exactly."""
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]))
        meta = next(csv.reader([fh.readline()]))
        body = fh.read()
    n, alpha = params["n"], params["k"] / GRID_UNITS
    if header != ["rows", "cols", "q", "alpha", "interval"] or meta[:3] != [str(n + 1)] * 2 + ["1"]:
        return False, 0.0, f"bad header {header} {meta}"
    entries = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float).reshape(n + 1, n + 1)
    x = gauss_nodes(n + 1, alpha)
    powers = np.arange(n + 1)[:, None]
    exact = (x[None, :] ** (powers + 1) - (-1.0) ** (powers + 1)) / (powers + 1)
    err = float(np.max(np.abs((x[None, :] ** powers) @ entries.T - exact)))
    tol = 1e-12 * (n + 1)
    return err <= tol, _digits(err), f"monomial error {err:.2e} (bound {tol:.1e})"


def quadbench(params, path, ref):
    """Barycentric and basis errors agree within a factor of 10 at every node."""
    rows = _rows(path)
    if rows[0] != ["n", "alpha", "node_index", "err_bary", "err_basis"]:
        return False, 0.0, "bad header"
    n = params["n"]
    by_alpha = {}
    for n_s, alpha_s, j_s, eb, es in rows[1:]:
        if int(n_s) != n:
            return False, 0.0, f"unexpected n {n_s}"
        by_alpha.setdefault(_k(float(alpha_s)), []).append((int(j_s), float(eb), float(es)))
    if sorted(by_alpha) != sorted(params["ks"]):
        return False, 0.0, "alpha grid points missing"
    worst_ratio, worst_err = 1.0, 0.0
    for k, entries in by_alpha.items():
        if len(entries) == 1 and entries[0][0] == -1 and math.isnan(entries[0][1]):
            # the documented marker of an infeasible pair; not allowed where the reference
            # says the plain builder succeeds
            if k in ref["quadbench_alpha_ok"]:
                return False, 0.0, f"NaN row at feasible alpha {k / GRID_UNITS:g}"
            continue
        if [j for j, _, _ in entries] != list(range(n + 1)):
            return False, 0.0, f"node rows missing at alpha {k / GRID_UNITS:g}"
        eb = np.maximum([e for _, e, _ in entries], ORACLE_FLOOR)
        es = np.maximum([e for _, _, e in entries], ORACLE_FLOOR)
        worst_ratio = max(worst_ratio, float(np.max(np.maximum(eb, es) / np.minimum(eb, es))))
        worst_err = max(worst_err, max(e for _, e, _ in entries))
    ok = worst_ratio <= 10.0
    return ok, _digits(worst_err), f"worst error ratio {worst_ratio:.2f} (bound 10)"


def _solution(params, path):
    rows = _rows(path)
    if rows[0] != ["n", "m", "alpha", "mae", "cd", "kappa2"] or rows[2] != [
            "x", "u_approx", "u_exact", "abs_error"]:
        raise ValueError("bad solution header")
    data = np.array(rows[3:], dtype=float)
    n = params["n"]
    nodes = 0.5 * (gauss_nodes(n + 1, params["k"] / GRID_UNITS) + 1.0)
    if data.shape != (n + 1, 4) or np.max(np.abs(data[:, 0] - nodes)) > 1e-14:
        raise ValueError("collocation nodes are not the Gauss nodes mapped to [0, 1]")
    return rows[1], data[:, 0], data[:, 1]


def example1(params, path, ref):
    """MAE against e^x at most 1e-12 and 2-norm condition number in [30, 50]."""
    try:
        meta, x, u = _solution(params, path)
    except ValueError as exc:
        return False, 0.0, str(exc)
    mae = float(np.max(np.abs(u - np.exp(x))))
    kappa = float(meta[5])
    ok = mae <= 1e-12 and 30.0 <= kappa <= 50.0
    return ok, _digits(mae), f"MAE {mae:.2e} (bound 1e-12), kappa2 {kappa:.2f} (bound [30, 50])"


def example2(params, path, ref):
    """Correct digits against 1/sqrt(1+x) at or above the floor for n."""
    try:
        _, x, u = _solution(params, path)
    except ValueError as exc:
        return False, 0.0, str(exc)
    digits = _digits(float(np.max(np.abs(u - 1.0 / np.sqrt(1.0 + x)))))
    floor = EXAMPLE2_FLOOR.get(params["n"], EXAMPLE2_FLOOR_LARGE)
    return digits >= floor, digits, f"{digits:.2f} correct digits (floor {floor})"


CHECKS = {"feasibility": feasibility, "gim": gim, "quadbench": quadbench,
          "example1": example1, "example2": example2}
