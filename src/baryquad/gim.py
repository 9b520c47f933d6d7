"""Barycentric Gegenbauer integration matrices.

An integration matrix maps samples f(x_i) at the source (interpolation)
nodes to approximations of the running integrals of f from the left
endpoint up to each target node.  Entries are built by integrating the
barycentric interpolant with a mapped Legendre-Gauss rule, which is exact
for the degree-n interpolant, so every matrix here integrates polynomials
of degree <= n exactly up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .barycentric import BarycentricBasis, bary_weights_gg
from .errors import CollisionError
from .polynomials import EPS_MACH, GegenbauerParam, _check_epsilon, _integration_relation, _norms, _terms
from .rules import _write_lines, gg_rule, lg_rule

INTERVAL_BIUNIT = "[-1,1]"
INTERVAL_UNIT = "[0,1]"


@dataclass(frozen=True, eq=False)
class IntegrationMatrix:
    """Dense quadrature-coefficient matrix with its node sets.

    Row j applied to samples at its source nodes approximates the integral
    of the sampled function from the interval's left endpoint to
    ``target_nodes[j]`` (iterated ``order`` times for higher orders).
    ``source_nodes`` is 1-D when every row samples at the same nodes, or
    (rows, cols) when row j samples at its own nodes ``source_nodes[j]``;
    ``alpha`` is the family parameter, or one parameter per row, as in the
    optimal matrices of :mod:`baryquad.optimal`.
    """

    entries: np.ndarray = field(repr=False)
    order: int
    source_nodes: np.ndarray = field(repr=False)
    target_nodes: np.ndarray = field(repr=False)
    interval: str
    alpha: float | np.ndarray

    def __post_init__(self):
        per_row = ("alpha",) if np.ndim(self.alpha) else ()
        for name in ("entries", "source_nodes", "target_nodes") + per_row:
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        rows, cols = self.target_nodes.size, self.source_nodes.shape[-1]
        if self.entries.shape != (rows, cols) or self.source_nodes.shape[:-1] not in ((), (rows,)):
            raise ValueError("entry shape does not match node counts")
        if per_row and self.alpha.shape != (rows,):
            raise ValueError("a per-row alpha needs one value per target")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("matrix entries must be finite")

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a no-collision check; violations are index triples."""

    feasible: bool
    violations: tuple

    def __bool__(self):
        return self.feasible


def _lg_count_default(n: int) -> int:
    # ceil((n - 1) / 2), the minimal count whose rule is exact for degree n
    return n // 2


def _lg_count(n: int, targets: np.ndarray, epsilon: float) -> int:
    """Legendre count for the targets: the default, bumped by one in the endpoint parity case.

    For even n and an even default count both node families contain 0, and
    a target within 2 epsilon of 1 maps the zero Legendre node, (x - 1) / 2,
    within epsilon of the zero Gauss node.
    """
    count = _lg_count_default(n)
    if n % 2 == 0 and count % 2 == 0 and np.any((1.0 - targets) / 2.0 <= epsilon):
        count += 1
    return count


def _validated_targets(target_nodes) -> np.ndarray:
    targets = np.atleast_1d(np.asarray(target_nodes, dtype=float))
    if targets.size == 0:
        raise ValueError("target set must be non-empty")
    if not np.all(np.abs(targets) <= 1.0):  # also rejects NaN
        raise ValueError("target nodes must lie in [-1, 1]")
    return targets


#: element budget of one block of targets in the row kernel and the per-row screen: each
#: block's (targets x Legendre points x nodes) temporaries hold at most this many elements,
#: or one target's when that is more
_BLOCK_ELEMENTS = 4096


def _screen(targets: np.ndarray, nodes: np.ndarray, lg, epsilon: float):
    """Legendre points mapped onto [-1, x_j] per target x_j, their gap to the nearest node, hits.

    ``nodes`` is 1-D, shared by every target, or (targets, cols), row j the
    nodes of target j.  A point with |y_jk - x_i| <= epsilon is a hit.
    Rounded differences are monotone in x_i, so the smallest |y_jk - x_i|
    lies at one of the two nodes next to y_jk in sorted order; those
    decide, for all targets at once, which targets have a hit.  Shared
    nodes are searched with :func:`numpy.searchsorted`; for per-row nodes
    the same left index is the count of the row's nodes below the point,
    taken in blocks of targets within the kernel's element budget.
    Returns ``(mapped, nearest, hit)``, ``hit`` a list of one bool per
    target.
    """
    _check_epsilon(epsilon)
    mapped = 0.5 * ((targets[:, None] + 1.0) * lg.nodes + targets[:, None] - 1.0)
    # x_below < y <= x_above, so both differences are |y - x| without abs
    inf = np.full(nodes.shape[:-1] + (1,), np.inf)
    padded = np.concatenate((-inf, nodes, inf), axis=-1)
    if nodes.ndim == 1:
        above = np.searchsorted(nodes, mapped) + 1
        nearest = np.minimum(mapped - padded[above - 1], padded[above] - mapped)
    else:
        nearest = np.empty_like(mapped)
        size = max(1, _BLOCK_ELEMENTS // (lg.nodes.size * nodes.shape[1]))
        for start in range(0, targets.size, size):
            b = slice(start, start + size)
            above = (nodes[b, None, :] < mapped[b, :, None]).sum(axis=2) + 1
            np.minimum(mapped[b] - np.take_along_axis(padded[b], above - 1, axis=1),
                       np.take_along_axis(padded[b], above, axis=1) - mapped[b], out=nearest[b])
    return mapped, nearest, (nearest <= epsilon).any(axis=1).tolist()


def _collisions(targets: np.ndarray, nodes: np.ndarray, lg, epsilon: float, screen=None):
    """Every (i, j, k) with |y_jk - x_i| <= epsilon, in (j, k, i) order.

    ``nodes`` is shared or per row, as in :func:`_screen`.  The hits of
    :func:`_screen`, or of ``screen``, its result for these targets, select
    the targets; each of those takes one dense test of its mapped points
    against its nodes.
    """
    mapped, _, hit = _screen(targets, nodes, lg, epsilon) if screen is None else screen
    triples = []
    for j in (j for j, h in enumerate(hit) if h):
        row = nodes if nodes.ndim == 1 else nodes[j]
        k, i = np.nonzero(np.abs(mapped[j, :, None] - row) <= epsilon)  # in (k, i) order
        triples += zip(i.tolist(), [j] * k.size, k.tolist())
    return triples


def check_gg_condition(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH) -> FeasibilityReport:
    """Test the no-collision condition of the square matrix with the builders' own screen.

    Feasible when |y_jk - x_i| > epsilon for every source node x_i and
    every Legendre point y_jk mapped onto [-1, x_j], with the Legendre
    count of :func:`build_gim_gg`, so a feasible report is a build that
    raises no :class:`CollisionError`.  The paper puts epsilon on the ratio
    2 (1 + x_i) / (1 + x_j) instead, whose gap is 2 / (1 + x_j) times the
    mapped point's; at the default epsilon and at 1e-12 both flag the same
    triples for n <= 100 on the paper's alpha grids.

    Each mapped point is searched in the sorted nodes (:func:`_screen`),
    which takes O(n^2 log n) time and O(n^2) memory.  Violations are
    (i, j, k) triples in lexicographic order.
    """
    x = gg_rule(n, param).nodes
    violations = tuple(sorted(_collisions(x, x, lg_rule(_lg_count_default(n)), epsilon)))
    return FeasibilityReport(feasible=not violations, violations=violations)


def _build_rows(target_nodes, nodes: np.ndarray, xi: np.ndarray, lg, epsilon: float, on_hit: str,
                screen=None):
    """The one row kernel: integrate the interpolant over [-1, x_j] for each target x_j.

    ``nodes`` and their barycentric weights ``xi`` are 1-D, shared by every
    target, or (targets, cols), row j the basis of target j, as in the
    optimal matrices.  With y_j the Legendre points mapped onto [-1, x_j],
    mu = xi / (y_j - x) and c = w / (mu 1), the barycentric cardinal
    functions give

        row_j = (x_j + 1) / 2 * c^T mu,

    one division, one row sum and one vector-matrix product per target.
    The row sum is numpy's pairwise sum, as in :func:`lagrange_matrix`:
    the terms alternate in sign, and a BLAS dot loses up to a digit there
    at large alpha.  The targets are taken in blocks whose p x cols
    temporaries stay within :data:`_BLOCK_ELEMENTS` (one target per block
    from about n = 90 on for square matrices), in one reused buffer, so
    memory stays O(p (n + T)) for p Legendre points and T targets.

    Hits are found by :func:`_screen`, or taken from ``screen``, its result
    for these targets.  ``on_hit`` "raise" reports the first hit in
    (j, k, i) order as a :class:`CollisionError` (i, j, k) before any row
    is built; "cardinal" replaces the point's cardinal values by the unit
    row of its nearest node (the lower one on a tie), which the cardinal
    property dictates, as :func:`lagrange_matrix` does.  A point within
    epsilon of two nodes thus still counts once.
    """
    targets = np.atleast_1d(np.asarray(target_nodes, dtype=float))
    w = lg.weights
    mapped, nearest, hit = _screen(targets, nodes, lg, epsilon) if screen is None else screen
    if on_hit == "raise" and any(hit):
        i, j, k = _collisions(targets, nodes, lg, epsilon, (mapped, nearest, hit))[0]
        raise CollisionError(i, j, k, "mapped Legendre point coincides with a source node")
    per_row = nodes.ndim == 2
    cols = nodes.shape[-1]
    size = max(1, _BLOCK_ELEMENTS // (w.size * cols))
    rows = np.empty((targets.size, cols))
    buffer = np.empty((min(size, targets.size), w.size, cols))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, targets.size, size):
            stop = min(start + size, targets.size)
            b, mu = slice(start, stop), buffer[:stop - start]
            np.subtract(mapped[b, :, None], nodes[b, None] if per_row else nodes, out=mu)
            np.divide(xi[b, None] if per_row else xi, mu, out=mu)
            c = w / mu.sum(axis=2)
            for j in (j for j in range(start, stop) if hit[j]):
                # each hit point takes the unit row of its nearest node, the lower on a tie
                k = np.flatnonzero(nearest[j] <= epsilon)
                i = np.abs(mapped[j, k, None] - (nodes[j] if per_row else nodes)).argmin(axis=1)
                mu[j - start, k] = 0.0
                mu[j - start, k, i] = 1.0
                c[j - start, k] = w[k]
            rows[b] = (0.5 * (targets[b] + 1.0))[:, None] * (c[:, None, :] @ mu)[:, 0]
    return rows


def _reflected_rows(basis: BarycentricBasis, lg, epsilon: float):
    """The square matrix from its rows with x_j <= 0, or None when a screened point hits.

    The Gauss nodes are symmetric, x_{n-j} = -x_j, and so are the cardinal
    functions, l_{n-i}(-x) = l_i(x); hence Q[j, i] = E_i - Q[n-j, n-i] with
    E_i the integral of l_i over [-1, 1].  The rows with x_j > 0 are taken
    that way.  For even n the middle node is exactly 0, so
    E = Q[n/2] + Q[n/2, ::-1]; for odd n, E is the row of the target 1,
    built in the same kernel call (the count takes no endpoint bump for
    odd n).  All n + 1 Gauss targets, and for odd n the target 1, are
    screened before any row is built.
    """
    nodes = basis.nodes
    n = nodes.size - 1
    half = n // 2 + 1  # the rows with x_j <= 0
    kept = half + n % 2  # and, for odd n, the target 1 right after them
    targets = np.concatenate((nodes[:half], [1.0], nodes[half:])) if n % 2 else nodes
    mapped, nearest, hit = _screen(targets, nodes, lg, epsilon)
    if any(hit):
        return None
    rows = _build_rows(targets[:kept], nodes, basis.xi, lg, epsilon, "raise",
                       (mapped[:kept], nearest[:kept], hit[:kept]))
    total = rows[half] if n % 2 else rows[half - 1] + rows[half - 1, ::-1]
    entries = np.empty((n + 1, n + 1))
    entries[:half] = rows[:half]
    entries[half:] = total - rows[:n + 1 - half][::-1, ::-1]
    return entries


def _build_gim(targets, n: int, param: GegenbauerParam, epsilon: float, on_hit: str, count: int):
    """The one matrix body: Gauss rule, barycentric weights, Legendre rule, rows.

    ``targets`` None means the Gauss nodes (the square matrix), which are
    built by reflection (:func:`_reflected_rows`) when no screened point
    hits, and otherwise row by row as any other target set.  ``on_hit`` is
    a :func:`_build_rows` policy.
    """
    rule = gg_rule(n, param)
    basis = bary_weights_gg(rule)
    lg = lg_rule(count)
    entries = None
    if targets is None:
        targets = rule.nodes
        entries = _reflected_rows(basis, lg, epsilon)
    if entries is None:
        entries = _build_rows(targets, basis.nodes, basis.xi, lg, epsilon, on_hit)
    return IntegrationMatrix(entries=entries, order=1, source_nodes=rule.nodes,
                             target_nodes=targets, interval=INTERVAL_BIUNIT, alpha=param.alpha)


def build_gim_gg(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH) -> IntegrationMatrix:
    """First-order square matrix on the n+1 Gauss nodes of the family.

    When no mapped Legendre point hits a node, only the rows with x_j <= 0
    go through the row kernel; the others follow by reflection,
    Q[j, i] = E_i - Q[n-j, n-i] with E the full-interval row, which moves
    entries at the rounding level (2e-13 at most up to n = 641, alpha <= 2)
    against building every row.  On a hit all rows are built, and the
    guarded and bumped builders handle it as they describe; on the
    feasible set the three builders return the same bits.

    Raises
    ------
    CollisionError
        If a mapped Legendre point lands within ``epsilon`` of a source
        node (the infeasible case); the guarded or bumped builders handle
        those parameter pairs.
    """
    return _build_gim(None, n, param, epsilon, "raise", _lg_count_default(n))


def build_gim_gg_guarded(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH) -> IntegrationMatrix:
    """Square matrix with exact-hit rows replaced by cardinal unit rows.

    Identical to :func:`build_gim_gg` on the feasible set; at a collision
    the interpolant value at the hit node is the sample itself, so the
    cardinal row preserves polynomial exactness instead of overflowing.
    """
    return _build_gim(None, n, param, epsilon, "cardinal", _lg_count_default(n))


def build_gim_gg_bumped(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH) -> IntegrationMatrix:
    """Square matrix that retries with one extra Legendre point on collision.

    The interpolant has degree <= n, so both Legendre counts integrate it
    exactly and the result equals :func:`build_gim_gg` whenever the latter
    exists; the enlarged rule merely moves the evaluation points off the
    colliding configuration.  Every row of the retry goes through the row
    kernel, none by reflection.
    """
    try:
        return build_gim_gg(n, param, epsilon)
    except CollisionError:
        nodes = gg_rule(n, param).nodes
        return _build_gim(nodes, n, param, epsilon, "raise", _lg_count_default(n) + 1)


def build_gim_arbitrary(target_nodes, n: int, param: GegenbauerParam,
                        epsilon: float = EPS_MACH) -> IntegrationMatrix:
    """Rectangular matrix for any target set inside [-1, 1].

    Source nodes are still the n+1 Gauss nodes of the family; one row is
    produced per target.  The endpoint parity bump of the Legendre count
    applies whenever a target lies within 2 epsilon of 1.
    """
    targets = _validated_targets(target_nodes)
    return _build_gim(targets, n, param, epsilon, "raise", _lg_count(n, targets, epsilon))


def row_gim_endpoint(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH) -> np.ndarray:
    """Quadrature row for the full interval: coefficients for the integral to 1.

    The row of :func:`build_gim_arbitrary` for the target 1, which always
    takes the endpoint parity bump.
    """
    return build_gim_arbitrary(1.0, n, param, epsilon).entries[0]


def build_basis_gim(n: int, param: GegenbauerParam) -> IntegrationMatrix:
    """Reference construction through the modal (basis) form of the cardinal functions.

    Integrates each cardinal function term by term in the orthogonal
    expansion instead of evaluating the barycentric form; mathematically
    identical to :func:`build_gim_gg` and kept as the comparison baseline.
    The modal integrals I[l, j] = integral of G_l over [-1, x_j] come from
    :func:`baryquad.polynomials._integration_relation`, applied to whole
    rows of one table of G_0 ... G_{n+1} at the nodes: O(n^2) work plus
    one matrix product.
    """
    rule = gg_rule(n, param)
    x = rule.nodes
    alpha = param.alpha
    table = np.array(list(_terms(n + 1, alpha, x)))
    integrals = np.empty((n + 1, n + 1))
    integrals[0] = x + 1.0
    if n >= 1:
        integrals[1] = 0.5 * (x * x - 1.0)
    l = np.arange(2.0, n + 1.0)[:, None]
    integrals[2:] = _integration_relation(l, alpha, table[1:n], table[3:])
    entries = (integrals.T @ (table[:n + 1] / _norms(n, alpha)[:, None])) * rule.weights[None, :]
    return IntegrationMatrix(entries=entries, order=1, source_nodes=x,
                             target_nodes=x, interval=INTERVAL_BIUNIT, alpha=alpha)


def qth_order_gim(first: IntegrationMatrix, q: int) -> IntegrationMatrix:
    """Iterated-integral matrix of order q from a first-order matrix.

    Entry-wise: p_q[j, i] = (x_j - z_ji)^(q-1) / (q-1)! * p_1[j, i], with
    z_ji the i-th source node of row j, in the matrix's own node
    coordinates; applied to samples of f it approximates the q-fold
    iterated integral, exactly so for degree <= cols - q.
    """
    if int(q) != q or q < 1:
        raise ValueError(f"order must be a positive integer, got {q}")
    if first.order != 1:
        raise ValueError("qth_order_gim expects a first-order matrix")
    q = int(q)
    if q == 1:
        return first
    diff = first.target_nodes[:, None] - first.source_nodes
    return replace(first, entries=diff ** (q - 1) / math.factorial(q - 1) * first.entries, order=q)


def apply_quadrature(matrix: IntegrationMatrix, values) -> np.ndarray:
    """Samples at the source nodes, shared or per row, to integral values."""
    f = np.asarray(values, dtype=float)
    if f.shape != matrix.source_nodes.shape:
        raise ValueError(f"expected samples of shape {matrix.source_nodes.shape}, got {f.shape}")
    return matrix.entries @ f if f.ndim == 1 else (matrix.entries * f).sum(axis=1)


def map_to_unit(matrix: IntegrationMatrix) -> IntegrationMatrix:
    """Affine image of the matrix on [0, 1]: nodes mapped, entries / 2^q."""
    if matrix.interval == INTERVAL_UNIT:
        return matrix
    return replace(matrix, entries=matrix.entries / 2.0 ** matrix.order,
                   source_nodes=0.5 * (matrix.source_nodes + 1.0),
                   target_nodes=0.5 * (matrix.target_nodes + 1.0), interval=INTERVAL_UNIT)


def matrix_to_csv(matrix: IntegrationMatrix, path_or_file) -> None:
    """Write ``rows,cols,q,alpha,interval`` header then the entries row-major.

    A per-row alpha is written as ``per-row`` in the header, followed by a
    ``k,alphaStar`` table after the entries.  The entries take one format
    call per row, and the bytes are those of ``csv.writer``'s default
    dialect: ``%.17g`` cells, ``\r\n`` line ends, and the interval quoted
    because it contains a comma.
    """
    rows, cols = matrix.shape
    if np.ndim(matrix.alpha):
        alpha = "per-row"
        table = ["k,alphaStar\r\n"]
        table += [f"{k},{a:.17g}\r\n" for k, a in enumerate(matrix.alpha.tolist())]
    else:
        alpha, table = f"{matrix.alpha:.17g}", []
    head = (f"rows,cols,q,alpha,interval\r\n"
            f'{rows},{cols},{matrix.order},{alpha},"{matrix.interval}"\r\n')
    fmt = ",".join(["%.17g"] * cols) + "\r\n"
    _write_lines(path_or_file, [head], (fmt % tuple(row.tolist()) for row in matrix.entries), table)
