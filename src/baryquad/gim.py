"""Barycentric Gegenbauer integration matrices.

An integration matrix maps samples f(x_i) at the source (interpolation)
nodes to approximations of the running integrals of f from the left
endpoint up to each target node.  Entries are built by integrating the
barycentric interpolant with a mapped Legendre-Gauss rule, which is exact
for the degree-n interpolant, so every matrix here integrates polynomials
of degree <= n exactly up to rounding.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .barycentric import BarycentricBasis, _HitDetected, bary_weights_gg, lagrange_matrix
from .errors import CollisionError
from .polynomials import EPS_MACH, GegenbauerParam, PolySpec, gegenbauer_norm_leading, _table
from .rules import gg_rule, lg_rule

INTERVAL_BIUNIT = "[-1,1]"
INTERVAL_UNIT = "[0,1]"


@dataclass(frozen=True, eq=False)
class IntegrationMatrix:
    """Dense quadrature-coefficient matrix with its node sets.

    Row j applied to samples at ``source_nodes`` approximates the integral
    of the sampled function from the interval's left endpoint to
    ``target_nodes[j]`` (iterated ``order`` times for higher orders).
    """

    entries: np.ndarray = field(repr=False)
    order: int
    source_nodes: np.ndarray = field(repr=False)
    target_nodes: np.ndarray = field(repr=False)
    interval: str
    alpha: float

    def __post_init__(self):
        for name in ("entries", "source_nodes", "target_nodes"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.entries.shape != (self.target_nodes.size, self.source_nodes.size):
            raise ValueError("entry shape does not match node counts")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("matrix entries must be finite")

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a sufficient-condition scan; violations are index triples."""

    feasible: bool
    violations: tuple

    def __bool__(self):
        return self.feasible


def _lg_count_default(n: int) -> int:
    # ceil((n - 1) / 2), the minimal count whose rule is exact for degree n
    return n // 2


def _near_sorted(t: np.ndarray, u: np.ndarray, epsilon: float):
    """Index triples (r, c, k) with |u[k] - t[r, c]| <= epsilon, for ascending u.

    For fixed t the rounded difference u - t is monotone in u, so the
    matching k form one run of u.  ``searchsorted`` finds each run in a
    window widened by a few ulp beyond t -/+ epsilon, which covers the
    rounding of both the window ends and the difference; every candidate
    is then re-tested with the exact expression, so the decision is the
    one a dense comparison of all triples makes.  Costs O(t.size log u.size)
    time and O(t.size + candidates) memory.  Returns three int arrays in
    (r, c, k) lexicographic order.
    """
    flat = t.ravel()
    slack = 8.0 * EPS_MACH * (np.abs(flat) + epsilon)
    high = flat + epsilon + slack
    start = np.searchsorted(u, flat - epsilon - slack, side="left")
    # most windows are empty; search the upper end only for the others
    nonempty = np.flatnonzero(np.append(u, np.inf)[start] <= high)
    counts = np.searchsorted(u, high[nonempty], side="right") - start[nonempty]
    pair = np.repeat(nonempty, counts)
    first = np.cumsum(counts) - counts  # position of each window's first candidate
    k = np.arange(pair.size) + np.repeat(start[nonempty] - first, counts)
    hit = np.abs(u[k] - flat[pair]) <= epsilon
    row, col = np.divmod(pair[hit], t.shape[1])
    return row, col, k[hit]


def check_gg_condition(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH) -> FeasibilityReport:
    """Test the sufficient no-collision condition for the square matrix.

    Feasible when |1 + y_k - 2 (1 + x_i) / (1 + x_j)| > epsilon for every
    source index i, target index j and Legendre node index k, with y the
    Legendre-Gauss nodes used during construction.  Equality of the mapped
    Legendre point with a source node is exactly the overflow case.

    The (n+1)^2 ratios are searched in the sorted 1 + y_k rather than
    compared with every k, which takes O(n^2 log n) time and
    O(n^2 + #violations) memory.  Violations are (i, j, k) triples in
    lexicographic order.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    x = gg_rule(n, param).nodes
    y = lg_rule(_lg_count_default(n)).nodes
    ratios = 2.0 * (1.0 + x[:, None]) / (1.0 + x[None, :])
    i, j, k = _near_sorted(ratios, 1.0 + y, epsilon)
    violations = tuple(zip(i.tolist(), j.tolist(), k.tolist()))
    return FeasibilityReport(feasible=not violations, violations=violations)


def _build_rows(target_nodes, basis: BarycentricBasis, lg, epsilon: float, on_hit: str):
    """Shared row constructor: integrate the interpolant over [-1, x_j]."""
    targets = np.atleast_1d(np.asarray(target_nodes, dtype=float))
    rows = np.empty((targets.size, basis.nodes.size))
    for j, xj in enumerate(targets):
        mapped = 0.5 * ((xj + 1.0) * lg.nodes + xj - 1.0)
        try:
            table = lagrange_matrix(basis, mapped, exact_hit_tol=epsilon, on_hit=on_hit)
        except _HitDetected as hit:
            raise CollisionError(hit.i, j, hit.k,
                                 "mapped Legendre point coincides with a source node") from None
        rows[j] = 0.5 * (xj + 1.0) * (lg.weights @ table)
    return rows


def build_gim_gg(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH) -> IntegrationMatrix:
    """First-order square matrix on the n+1 Gauss nodes of the family.

    Raises
    ------
    CollisionError
        If a mapped Legendre point lands within ``epsilon`` of a source
        node (the infeasible case); the guarded or bumped builders handle
        those parameter pairs.
    """
    rule = gg_rule(n, param)
    basis = bary_weights_gg(rule)
    lg = lg_rule(_lg_count_default(n))
    entries = _build_rows(rule.nodes, basis, lg, epsilon, on_hit="raise")
    return IntegrationMatrix(entries=entries, order=1, source_nodes=rule.nodes,
                             target_nodes=rule.nodes, interval=INTERVAL_BIUNIT, alpha=param.alpha)


def build_gim_gg_guarded(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH) -> IntegrationMatrix:
    """Square matrix with exact-hit rows replaced by cardinal unit rows.

    Identical to :func:`build_gim_gg` on the feasible set; at a collision
    the interpolant value at the hit node is the sample itself, so the
    cardinal row preserves polynomial exactness instead of overflowing.
    """
    rule = gg_rule(n, param)
    basis = bary_weights_gg(rule)
    lg = lg_rule(_lg_count_default(n))
    entries = _build_rows(rule.nodes, basis, lg, epsilon, on_hit="cardinal")
    return IntegrationMatrix(entries=entries, order=1, source_nodes=rule.nodes,
                             target_nodes=rule.nodes, interval=INTERVAL_BIUNIT, alpha=param.alpha)


def build_gim_gg_bumped(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH) -> IntegrationMatrix:
    """Square matrix that retries with one extra Legendre point on collision.

    The interpolant has degree <= n, so both Legendre counts integrate it
    exactly and the result equals :func:`build_gim_gg` whenever the latter
    exists; the enlarged rule merely moves the evaluation points off the
    colliding configuration.
    """
    rule = gg_rule(n, param)
    basis = bary_weights_gg(rule)
    try:
        lg = lg_rule(_lg_count_default(n))
        entries = _build_rows(rule.nodes, basis, lg, epsilon, on_hit="raise")
    except CollisionError:
        lg = lg_rule(_lg_count_default(n) + 1)
        entries = _build_rows(rule.nodes, basis, lg, epsilon, on_hit="raise")
    return IntegrationMatrix(entries=entries, order=1, source_nodes=rule.nodes,
                             target_nodes=rule.nodes, interval=INTERVAL_BIUNIT, alpha=param.alpha)


def row_gim_endpoint(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH) -> np.ndarray:
    """Quadrature row for the full interval: coefficients for the integral to 1.

    The target 1 maps the Legendre points onto themselves, and both node
    families contain 0 when n and the default Legendre count are even, so
    that parity case bumps the count by one before building.
    """
    rule = gg_rule(n, param)
    basis = bary_weights_gg(rule)
    count = _lg_count_default(n)
    if n % 2 == 0 and count % 2 == 0:
        count += 1
    lg = lg_rule(count)
    return _build_rows(np.array([1.0]), basis, lg, epsilon, on_hit="raise")[0]


def build_gim_arbitrary(target_nodes, n: int, param: GegenbauerParam,
                        epsilon: float = EPS_MACH) -> IntegrationMatrix:
    """Rectangular matrix for any target set inside [-1, 1].

    Source nodes are still the n+1 Gauss nodes of the family; one row is
    produced per target.  The endpoint parity bump applies whenever 1 is
    among the targets.
    """
    targets = np.atleast_1d(np.asarray(target_nodes, dtype=float))
    if targets.size == 0:
        raise ValueError("target set must be non-empty")
    if np.any(targets < -1.0) or np.any(targets > 1.0):
        raise ValueError("target nodes must lie in [-1, 1]")
    rule = gg_rule(n, param)
    basis = bary_weights_gg(rule)
    count = _lg_count_default(n)
    if 1.0 in targets and n % 2 == 0 and count % 2 == 0:
        count += 1
    lg = lg_rule(count)
    entries = _build_rows(targets, basis, lg, epsilon, on_hit="raise")
    return IntegrationMatrix(entries=entries, order=1, source_nodes=rule.nodes,
                             target_nodes=targets, interval=INTERVAL_BIUNIT, alpha=param.alpha)


def build_basis_gim(n: int, param: GegenbauerParam) -> IntegrationMatrix:
    """Reference construction through the modal (basis) form of the cardinal functions.

    Integrates each cardinal function term by term in the orthogonal
    expansion instead of evaluating the barycentric form; mathematically
    identical to :func:`build_gim_gg` and kept as the comparison baseline.
    """
    rule = gg_rule(n, param)
    x = rule.nodes
    alpha = param.alpha
    lg = lg_rule((n + 1) // 2 + 1)
    p = lg.nodes.size
    mapped = (0.5 * ((x[:, None] + 1.0) * lg.nodes[None, :] + x[:, None] - 1.0)).ravel()
    scale = 0.5 * (x + 1.0)

    # stream the recurrence over degrees; I[l, j] = integral of G_l over [-1, x_j]
    integrals = np.empty((n + 1, n + 1))
    g_prev = np.ones_like(mapped)
    integrals[0] = scale * (g_prev.reshape(n + 1, p) @ lg.weights)
    if n >= 1:
        g_cur = mapped.copy()
        integrals[1] = scale * (g_cur.reshape(n + 1, p) @ lg.weights)
        for k in range(2, n + 1):
            g_next = (2.0 * (k + alpha - 1.0) * mapped * g_cur - (k - 1.0) * g_prev) / (k + 2.0 * alpha - 1.0)
            g_prev, g_cur = g_cur, g_next
            integrals[k] = scale * (g_cur.reshape(n + 1, p) @ lg.weights)

    table = _table(n, alpha, x)
    norms = np.array([gegenbauer_norm_leading(PolySpec(l, param)).norm for l in range(n + 1)])
    entries = (integrals.T @ (table / norms[:, None])) * rule.weights[None, :]
    return IntegrationMatrix(entries=entries, order=1, source_nodes=x,
                             target_nodes=x, interval=INTERVAL_BIUNIT, alpha=alpha)


def qth_order_gim(first: IntegrationMatrix, q: int) -> IntegrationMatrix:
    """Iterated-integral matrix of order q from a first-order matrix.

    Entry-wise: p_q[j, i] = (x_j - x_i)^(q-1) / (q-1)! * p_1[j, i] in the
    matrix's own node coordinates; applied to samples of f it approximates
    the q-fold iterated integral, exactly so for degree <= n - q + 1.
    """
    if int(q) != q or q < 1:
        raise ValueError(f"order must be a positive integer, got {q}")
    if first.order != 1:
        raise ValueError("qth_order_gim expects a first-order matrix")
    q = int(q)
    if q == 1:
        return first
    diff = first.target_nodes[:, None] - first.source_nodes[None, :]
    entries = diff ** (q - 1) / math.factorial(q - 1) * first.entries
    return IntegrationMatrix(entries=entries, order=q, source_nodes=first.source_nodes,
                             target_nodes=first.target_nodes, interval=first.interval,
                             alpha=first.alpha)


def apply_quadrature(matrix: IntegrationMatrix, values) -> np.ndarray:
    """Matrix-vector product: samples at the source nodes to integral values."""
    f = np.asarray(values, dtype=float)
    if f.shape != matrix.source_nodes.shape:
        raise ValueError(f"expected {matrix.source_nodes.size} samples, got {f.size}")
    return matrix.entries @ f


def map_to_unit(matrix: IntegrationMatrix) -> IntegrationMatrix:
    """Affine image of the matrix on [0, 1]: nodes mapped, entries / 2^q."""
    if matrix.interval == INTERVAL_UNIT:
        return matrix
    return IntegrationMatrix(entries=matrix.entries / 2.0 ** matrix.order,
                             order=matrix.order,
                             source_nodes=0.5 * (matrix.source_nodes + 1.0),
                             target_nodes=0.5 * (matrix.target_nodes + 1.0),
                             interval=INTERVAL_UNIT, alpha=matrix.alpha)


def matrix_to_csv(matrix: IntegrationMatrix, path_or_file) -> None:
    """Write ``rows,cols,q,alpha,interval`` header then the entries row-major."""
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        writer = csv.writer(fh)
        writer.writerow(["rows", "cols", "q", "alpha", "interval"])
        rows, cols = matrix.shape
        writer.writerow([rows, cols, matrix.order, f"{matrix.alpha:.17g}", matrix.interval])
        for row in matrix.entries:
            writer.writerow([f"{v:.17g}" for v in row])
    finally:
        if own:
            fh.close()


def matrix_to_csv_string(matrix: IntegrationMatrix) -> str:
    buf = io.StringIO()
    matrix_to_csv(matrix, buf)
    return buf.getvalue()
