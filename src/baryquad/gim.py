"""Barycentric Gegenbauer integration matrices.

An integration matrix maps samples f(x_i) at the source (interpolation)
nodes to approximations of the running integrals of f from the left
endpoint up to each target node.  Entries are built by integrating the
barycentric interpolant with a mapped Legendre-Gauss rule, which is exact
for the degree-n interpolant, so every matrix here integrates polynomials
of degree <= n exactly up to rounding.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .barycentric import BarycentricBasis, _gauss_xi, lagrange_matrix
from .errors import CollisionError
from .polynomials import (EPS_MACH, GegenbauerParam, _check_degree, _check_epsilon, _frozen,
                          _integration_relation, _norms, _terms)
from .rules import _nodes, _write_lines, gg_rule, lg_rule

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
    optimal matrices of :mod:`baryquad.optimal`.  The arrays are held as
    read-only views (:func:`baryquad.polynomials._frozen`) of those given.
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
            object.__setattr__(self, name, _frozen(getattr(self, name)))
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
    """The caller's targets as a 1-D float copy, which the builders may keep: non-empty, in [-1, 1]."""
    targets = np.array(target_nodes, dtype=float, ndmin=1)
    if targets.size == 0:
        raise ValueError("target set must be non-empty")
    if not np.all(np.abs(targets) <= 1.0):  # also rejects NaN
        raise ValueError("target nodes must lie in [-1, 1]")
    return targets


#: element budget of each block of the per-row screen, and of the row kernel's blocks together:
#: a kernel call runs one thread per this many (targets x Legendre points x nodes) elements of
#: work, up to _WORKERS, and its threads' blocks split the budget in whole targets, one at least
_BLOCK_ELEMENTS = 2 ** 15
#: a row kernel block may still take up to 16 targets within this many elements (1 MiB): each
#: block's numpy calls hand the interpreter lock between threads, so a block must carry
#: enough work, and a larger one leaves the cache (on a 2-vCPU VM, two threads ran the
#: square kernel 0.8x as fast as one at n = 80 with 5 targets per block; with 16 they break
#: even there and run 1.6x as fast at n = 160)
_BLOCK_LIMIT = 2 ** 17

#: the CPUs this process may run on, read once: the row kernel's threads, the caller's included
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _collisions(targets: np.ndarray, nodes: np.ndarray, points: np.ndarray, epsilon: float):
    """The one collision test: Legendre ``points`` mapped onto [-1, x_j] per target x_j, and every hit.

    ``nodes`` is 1-D, shared by every target, or (targets, cols), row j the
    nodes of target j.  A point with |y_jk - x_i| <= epsilon is a hit.
    Shared nodes are searched with :func:`numpy.searchsorted`: rounded
    differences are monotone in x_i, so the smallest |y_jk - x_i| lies at
    one of the two nodes next to y_jk.  Per-row nodes take the smallest
    |y_jk - x_i| directly, in blocks of targets within the kernel's element
    budget.  Only the targets with a hit take a dense test of their points
    against their nodes.  Returns the (targets, points) mapped points and
    the hits as (i, j, k) triples in (j, k, i) order.
    """
    _check_epsilon(epsilon)
    mapped = 0.5 * ((targets[:, None] + 1.0) * points + targets[:, None] - 1.0)
    if nodes.ndim == 1:
        # x_below < y <= x_above, so both differences are |y - x| without abs
        padded = np.concatenate(([-np.inf], nodes, [np.inf]))
        above = np.searchsorted(nodes, mapped) + 1
        nearest = np.minimum(mapped - padded[above - 1], padded[above] - mapped)
    else:
        nearest = np.empty_like(mapped)
        size = max(1, _BLOCK_ELEMENTS // (points.size * nodes.shape[1]))
        for start in range(0, targets.size, size):
            b = slice(start, start + size)
            gaps = np.subtract(mapped[b, :, None], nodes[b, None, :])
            nearest[b] = np.abs(gaps, out=gaps).min(axis=2)
    triples = []
    for j in np.flatnonzero((nearest <= epsilon).any(axis=1)).tolist():
        row = nodes if nodes.ndim == 1 else nodes[j]
        k, i = np.nonzero(np.abs(mapped[j, :, None] - row) <= epsilon)  # in (k, i) order
        triples += zip(i.tolist(), [j] * k.size, k.tolist())
    return mapped, triples


def check_gg_condition(n: int, param, epsilon: float = EPS_MACH):
    """Test the no-collision condition of the square matrix with the builders' own screen.

    Feasible when |y_jk - x_i| > epsilon for every source node x_i and
    every Legendre point y_jk mapped onto [-1, x_j], with the Legendre
    count of :func:`build_gim_gg`, so a feasible report is a build that
    raises no :class:`CollisionError`.  The paper puts epsilon on the ratio
    2 (1 + x_i) / (1 + x_j) instead, whose gap is 2 / (1 + x_j) times the
    mapped point's; at the default epsilon and at 1e-12 both flag the same
    triples for n <= 100 on the paper's alpha grids.

    ``param`` is one :class:`GegenbauerParam`, which gives one report, or
    a sequence of them, which gives a list of reports in order from one
    node batch.  Each mapped point is searched in the sorted nodes
    (:func:`_collisions`), which takes O(n^2 log n) time and O(n^2) memory.
    The nodes are the builders' own, so a rule that does not hold raises
    :class:`ConvergenceError` in both.  Violations are (i, j, k) triples in
    lexicographic order.
    """
    _check_epsilon(epsilon)
    one = isinstance(param, GegenbauerParam)
    nodes = _nodes(n, tuple(p.alpha for p in ((param,) if one else param)))
    points = _nodes(_lg_count_default(n), (0.5,))[0]
    violations = [tuple(sorted(_collisions(x, x, points, epsilon)[1])) for x in nodes]
    reports = [FeasibilityReport(feasible=not v, violations=v) for v in violations]
    return reports[0] if one else reports


@functools.cache
def _helpers():
    """The row kernel's pool of up to CPUs - 1 helper threads, made when a call first asks for one."""
    from concurrent.futures import ThreadPoolExecutor  # about 5 ms to import, so not at start-up
    return ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="baryquad-rows")


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_helpers.cache_clear)


def _build_rows(targets: np.ndarray, mapped: np.ndarray, nodes: np.ndarray, xi: np.ndarray, w: np.ndarray):
    """The one row kernel: integrate the interpolant over [-1, x_j] for each target x_j.

    ``mapped`` holds the Legendre points mapped onto [-1, x_j], row j, as
    :func:`_collisions` returns them, and ``w`` their Legendre weights.
    ``nodes`` and their barycentric weights ``xi`` are 1-D, shared by every
    target, or (targets, cols), row j the basis of target j, as in the
    optimal matrices.  With y_j the mapped points, mu = xi / (y_j - x) and
    c = w / (mu 1), the barycentric cardinal functions give

        row_j = (x_j + 1) / 2 * c^T mu,

    one division, one row sum and one vector-matrix product per target.
    The row sum is numpy's pairwise sum, as in :func:`lagrange_matrix`:
    the terms alternate in sign, and a BLAS dot loses up to a digit there
    at large alpha.

    Each row is its own sum, so the targets go in blocks to the calling
    thread and to up to :data:`_WORKERS` - 1 helpers (:func:`_helpers`),
    each taking the next block until none is left, and a row has the same
    bits for any thread count and block split.  A call with W times
    :data:`_BLOCK_ELEMENTS` p x cols elements of work, for p Legendre
    points, runs on W threads (at most :data:`_WORKERS`, at least one),
    whose blocks share that budget in whole targets; a block also takes up
    to 16 targets within :data:`_BLOCK_LIMIT` elements (16 for square
    matrices up to n = 127, one from n = 362 on).  So memory stays
    O(p (n + T)) for T targets, plus at most one block of
    :data:`_BLOCK_LIMIT` elements, or one target's, per thread.  A helper
    runs in a copy of the caller's context, so it keeps the caller's
    ``np.errstate`` (a context variable from numpy 2 on), and its exception
    reaches the caller.  The caller cancels the helpers that have not
    started when it runs out of blocks, so a busy pool never delays a call.

    The kernel only integrates: each builder screens the mapped points
    with :func:`_collisions` first and decides what a hit means.
    """
    per_row, cols = nodes.ndim == 2, nodes.shape[-1]
    per_target = w.size * cols
    workers = max(1, min(_WORKERS, targets.size * per_target // _BLOCK_ELEMENTS))
    size = max(1, min(16, _BLOCK_LIMIT // per_target), _BLOCK_ELEMENTS // (workers * per_target))
    blocks = range(0, targets.size, size)
    starts, lock = iter(blocks), threading.Lock()
    rows, factor = np.empty((targets.size, cols)), 0.5 * (targets + 1.0)

    def work():
        mu = np.empty((min(size, targets.size), w.size, cols))
        sums = np.empty(mu.shape[:2])  # the row sums, then c in place
        while True:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            b = slice(start, start + size)
            m, c = mu[:targets.size - start], sums[:targets.size - start]
            np.subtract(mapped[b, :, None], nodes[b, None] if per_row else nodes, out=m)
            np.divide(xi[b, None] if per_row else xi, m, out=m)
            np.divide(w, m.sum(axis=2, out=c), out=c)
            np.matmul(c[:, None], m, out=rows[b, None])
            np.multiply(rows[b], factor[b, None], out=rows[b])

    helpers = [_helpers().submit(contextvars.copy_context().run, work)
               for _ in range(min(workers, len(blocks)) - 1)]
    try:
        work()
    finally:
        for helper in helpers:
            if not helper.cancel():
                helper.result()  # a helper that started: wait for its last block, raise its error
    return rows


def _full_interval_row(rows: np.ndarray) -> np.ndarray:
    """E from a square matrix's rows j <= (n + 1) // 2: the middle row plus its mirror, or middle pair."""
    n = rows.shape[1] - 1
    return rows[n // 2] + rows[(n + 1) // 2, ::-1]


#: the square matrix's collision policies, in the words of ``gim --variant``
SQUARE_VARIANTS = ("plain", "guarded", "bumped")


def build_gim_gg(n: int, param: GegenbauerParam, epsilon: float = EPS_MACH,
                 variant: str = "plain") -> IntegrationMatrix:
    """First-order square matrix on the n+1 Gauss nodes of the family.

    The n + 1 Gauss targets are screened once.  Only the rows with
    x_j <= 0, and for odd n the first with x_j > 0, are integrated, by the
    row kernel; the others follow by reflection, Q[j, i] = E_i - Q[n-j, n-i]
    with E the full-interval row, which moves entries at the rounding level
    against building every row (at most 9.4e-14 for n <= 641,
    -0.4 <= alpha <= 2; the worst case is n = 639, alpha = 2).  ``variant``,
    one of :data:`SQUARE_VARIANTS`, says what a hit means: "plain" raises
    it; "guarded" integrates the cardinal table of :func:`lagrange_matrix`,
    where a hit point takes its node's sample, in the integrated rows with
    a hit; "bumped" screens again with one more Legendre point, which also
    integrates the degree-n interpolant exactly.  On the feasible set the
    three return the same bits, and none reads a Gauss weight.

    Raises
    ------
    ValueError
        For a variant not in :data:`SQUARE_VARIANTS`, before any rule is built.
    CollisionError
        At a hit, a mapped Legendre point within ``epsilon`` of a source
        node: for "plain", and for "bumped" when its larger rule has one too.
    """
    if variant not in SQUARE_VARIANTS:
        raise ValueError(f"variant must be one of {', '.join(SQUARE_VARIANTS)}, got {variant!r}")
    nodes = _nodes(n, (param.alpha,))[0]
    basis = BarycentricBasis(nodes=nodes, xi=_gauss_xi(nodes, param.alpha))
    lg = lg_rule(_lg_count_default(n))
    mapped, hits = _collisions(nodes, nodes, lg.nodes, epsilon)
    if hits and variant == "bumped":
        lg = lg_rule(lg.n + 1)
        mapped, hits = _collisions(nodes, nodes, lg.nodes, epsilon)
    if hits and variant != "guarded":
        raise CollisionError(*hits[0], "mapped Legendre point coincides with a source node")
    kept = (n + 1) // 2 + 1  # the rows with x_j <= 0 and, for odd n, the first x_j > 0
    hit = sorted({j for _, j, _ in hits if j < kept})
    free = np.delete(np.arange(kept), hit) if hit else slice(kept)
    entries = np.empty((n + 1, n + 1))
    entries[free] = _build_rows(nodes[free], mapped[free], nodes, basis.xi, lg.weights)
    for j in hit:
        entries[j] = 0.5 * (nodes[j] + 1.0) * (lg.weights @ lagrange_matrix(basis, mapped[j], epsilon))
    entries[kept:] = _full_interval_row(entries[:kept]) - entries[:n + 1 - kept][::-1, ::-1]
    return IntegrationMatrix(entries=entries, order=1, source_nodes=nodes,
                             target_nodes=nodes, interval=INTERVAL_BIUNIT, alpha=param.alpha)


def build_gim_arbitrary(target_nodes, n: int, param: GegenbauerParam,
                        epsilon: float = EPS_MACH) -> IntegrationMatrix:
    """Rectangular matrix for any target set inside [-1, 1].

    Source nodes are still the n+1 Gauss nodes of the family; one row is
    produced per target.  The endpoint parity bump of the Legendre count
    applies whenever a target lies within 2 epsilon of 1, so the row of
    the target 1 is the quadrature row for the full interval.  Every row of
    the call takes the bump, so its bits depend on the other targets (by
    at most 2.3e-14 for n <= 200, -0.4 <= alpha <= 2).
    """
    targets = _validated_targets(target_nodes)
    nodes = _nodes(n, (param.alpha,))[0]
    lg = lg_rule(_lg_count(n, targets, epsilon))
    mapped, hits = _collisions(targets, nodes, lg.nodes, epsilon)
    if hits:
        raise CollisionError(*hits[0], "mapped Legendre point coincides with a source node")
    entries = _build_rows(targets, mapped, nodes, _gauss_xi(nodes, param.alpha), lg.weights)
    return IntegrationMatrix(entries=entries, order=1, source_nodes=nodes,
                             target_nodes=targets, interval=INTERVAL_BIUNIT, alpha=param.alpha)


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
    q = _check_degree(q, "order", positive=True)
    if first.order != 1:
        raise ValueError("qth_order_gim expects a first-order matrix")
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
