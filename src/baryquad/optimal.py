"""Rectangular integration matrices with a per-row optimized family parameter.

Each target node gets its own Gegenbauer parameter, chosen to minimize the
squared leading factor of the quadrature error, and its own set of m+1
adjoint Gauss nodes at which the integrand is sampled.  Because the rule
integrates the degree-m interpolant exactly, polynomial exactness up to
degree m holds for every parameter choice; the optimization only tunes the
error constant of smooth non-polynomial integrands.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .barycentric import bary_weights_gg
from .errors import CollisionError
from .gim import (FeasibilityReport, INTERVAL_BIUNIT, INTERVAL_UNIT, _build_rows, _near_sorted,
                  _write_matrix_csv, build_gim_arbitrary)
from .polynomials import EPS_MACH, GegenbauerParam, _eta_scale, _running_integral, eta
from .rules import gg_rule, lg_rule

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_SAMPLES = 64
_ALPHA_TOL = 1e-6

#: width of the guard strip above -1/2; minimizers pressed against the
#: lower search boundary are replaced by the fallback parameter, because
#: Gauss rules degrade numerically as the weight function approaches
#: non-integrability there
BOUNDARY_MARGIN = 1e-3


@dataclass(frozen=True)
class OptimalConfig:
    """Knobs of the per-row optimization.

    ``m`` is the quadrature expansion degree (m+1 adjoint samples per
    row); above ``m_max`` the optimization is skipped in favour of the
    fixed fallback parameter ``alpha_a``.  ``r`` bounds the search from
    above, ``alpha_b`` replaces near-boundary minimizers.
    """

    m: int
    m_max: int = 20
    r: float = 2.0
    epsilon: float = EPS_MACH
    alpha_a: float = 0.0
    alpha_b: float | None = None
    boundary_margin: float = BOUNDARY_MARGIN

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 0:
            raise ValueError("m must be a non-negative integer")
        if not 1.0 <= self.r <= 2.0:
            raise ValueError(f"r must lie in [1, 2], got {self.r}")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.alpha_a not in (0.0, 0.5):
            raise ValueError(f"alpha_a must be 0 (Chebyshev) or 0.5 (Legendre), got {self.alpha_a}")
        if self.boundary_margin <= 0.0:
            raise ValueError("boundary margin must be positive")
        object.__setattr__(self, "m", int(self.m))
        if self.alpha_b is None:
            object.__setattr__(self, "alpha_b", self.alpha_a)

    @property
    def fallback(self) -> GegenbauerParam:
        return GegenbauerParam(self.alpha_a)


@dataclass(frozen=True, eq=False)
class OptimalIntegrationMatrix:
    """Rectangular matrix plus its per-row parameters and adjoint node sets.

    ``adjoint_nodes[k]`` holds the m+1 sample points of row k in the same
    coordinates as ``target_nodes``; ``adjoint_rules``/``adjoint_bases``
    keep the underlying canonical rules on [-1, 1].
    """

    entries: np.ndarray = field(repr=False)
    order: int
    target_nodes: np.ndarray = field(repr=False)
    alpha_star: np.ndarray = field(repr=False)
    adjoint_nodes: np.ndarray = field(repr=False)
    adjoint_rules: tuple = field(repr=False)
    adjoint_bases: tuple = field(repr=False)
    interval: str

    def __post_init__(self):
        for name in ("entries", "target_nodes", "alpha_star", "adjoint_nodes"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("matrix entries must be finite")

    @property
    def shape(self):
        return self.entries.shape


def _grid_objective(x_k: float, m: int, grid: np.ndarray) -> np.ndarray:
    """Squared error factor at every grid parameter, in one broadcast recurrence.

    Equals ``eta(x_k, m, GegenbauerParam(a)) ** 2`` per grid point, with
    +inf where the prefactor or the square overflows.
    """
    log_scale = np.array([_eta_scale(m, a) for a in grid])
    with np.errstate(over="ignore"):
        values = (np.exp(np.minimum(log_scale, 700.0)) * _running_integral(m + 1, grid, x_k)) ** 2
    values[log_scale > 700.0] = math.inf
    return values


def optimize_alpha(x_k: float, m: int, config: OptimalConfig) -> float:
    """Parameter minimizing the squared quadrature error factor for one target.

    A 64-sample grid over the admissible interval, evaluated as one
    vectorized closed-form recurrence, seeds a golden-section refinement of
    the best bracket (the objective can be multimodal in the parameter).
    For even m the error factor is even in the target, so negative targets
    are folded onto their mirror images, which makes the returned
    parameter exactly symmetric on symmetric node sets.
    """
    if not -1.0 <= x_k <= 1.0:
        raise ValueError(f"target must lie in [-1, 1], got {x_k}")
    if m < 0:
        raise ValueError("m must be non-negative")
    x_k = float(x_k)
    if m % 2 == 0 and x_k < 0.0:
        x_k = -x_k
    lo = -0.5 + config.boundary_margin
    hi = config.r

    def objective(a: float) -> float:
        try:
            return eta(x_k, m, GegenbauerParam(a)) ** 2
        except OverflowError:
            return math.inf

    grid = np.linspace(lo, hi, _GRID_SAMPLES)
    values = _grid_objective(x_k, m, grid)
    best = int(np.argmin(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _GRID_SAMPLES - 1)]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > _ALPHA_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
    alpha_star = 0.5 * (a + b)
    if alpha_star <= lo + _ALPHA_TOL or alpha_star < -0.5 + config.epsilon:
        return float(config.alpha_b)
    return float(alpha_star)


def optimal_bary_basis(x_k: float, m: int, alpha_star: float):
    """Adjoint Gauss rule and barycentric basis for one row's parameter."""
    if not -1.0 <= x_k <= 1.0:
        raise ValueError(f"target must lie in [-1, 1], got {x_k}")
    rule = gg_rule(m, GegenbauerParam(alpha_star))
    return rule, bary_weights_gg(rule)


def _lg_for_optimal(m: int, targets: np.ndarray, epsilon: float) -> int:
    count = m // 2
    if m % 2 == 0 and count % 2 == 0 and np.any((1.0 - targets) / 2.0 <= epsilon):
        # the mapped zero Legendre node, (x - 1) / 2, would hit the zero adjoint node
        count += 1
    return count


def _optimal_row(x_k, basis, lg, epsilon, k):
    # the square matrices' row kernel, on this row's own adjoint basis
    try:
        return _build_rows(x_k, basis, lg, epsilon, on_hit="raise")[0]
    except CollisionError as hit:
        raise CollisionError(hit.i, k, hit.k,
                             "mapped Legendre point coincides with an adjoint node") from None


def _validated_targets(target_nodes) -> np.ndarray:
    targets = np.atleast_1d(np.asarray(target_nodes, dtype=float))
    if targets.size == 0:
        raise ValueError("target set must be non-empty")
    if np.any(targets < -1.0) or np.any(targets > 1.0):
        raise ValueError("target nodes must lie in [-1, 1]")
    return targets


def _from_fixed_parameter(targets: np.ndarray, config: OptimalConfig) -> OptimalIntegrationMatrix:
    # m > m_max: one fixed-parameter rule serves every row
    base = build_gim_arbitrary(targets, config.m, config.fallback, config.epsilon)
    rule = gg_rule(config.m, config.fallback)
    basis = bary_weights_gg(rule)
    n_rows = targets.size
    return OptimalIntegrationMatrix(
        entries=base.entries, order=1, target_nodes=targets,
        alpha_star=np.full(n_rows, config.alpha_a),
        adjoint_nodes=np.tile(rule.nodes, (n_rows, 1)),
        adjoint_rules=(rule,) * n_rows, adjoint_bases=(basis,) * n_rows,
        interval=INTERVAL_BIUNIT)


def build_optimal_gim(target_nodes, config: OptimalConfig) -> OptimalIntegrationMatrix:
    """First-order optimal matrix for an arbitrary target set.

    Above ``config.m_max`` this reduces to the fixed-parameter rectangular
    matrix (identical to :func:`baryquad.gim.build_gim_arbitrary` at
    ``alpha_a``); otherwise every row gets its own optimized parameter and
    adjoint sample set.  The parameter, adjoint rule and barycentric basis
    are computed once per distinct target, and for even m, where the error
    factor is even in the target, once per distinct ``|x_k|``, so mirrored
    targets share them.
    """
    targets = _validated_targets(target_nodes)
    m = config.m
    if m > config.m_max:
        return _from_fixed_parameter(targets, config)
    lg = lg_rule(_lg_for_optimal(m, targets, config.epsilon))
    entries = np.empty((targets.size, m + 1))
    alpha_star = np.empty(targets.size)
    rules = []
    bases = []
    seen = {}
    for k, x_k in enumerate(targets):
        key = abs(x_k) if m % 2 == 0 else x_k
        if key not in seen:
            a_k = optimize_alpha(x_k, m, config)
            seen[key] = (a_k, *optimal_bary_basis(x_k, m, a_k))
        a_k, rule, basis = seen[key]
        alpha_star[k] = a_k
        rules.append(rule)
        bases.append(basis)
        entries[k] = _optimal_row(x_k, basis, lg, config.epsilon, k)
    return OptimalIntegrationMatrix(
        entries=entries, order=1, target_nodes=targets, alpha_star=alpha_star,
        adjoint_nodes=np.vstack([r.nodes for r in rules]),
        adjoint_rules=tuple(rules), adjoint_bases=tuple(bases), interval=INTERVAL_BIUNIT)


def build_optimal_gim_symmetric(target_nodes, config: OptimalConfig) -> OptimalIntegrationMatrix:
    """:func:`build_optimal_gim` restricted to symmetric targets and even m.

    Kept for callers that want the symmetry asserted: it validates the
    input and delegates, and mirrored rows share their parameter, rule
    and basis.
    """
    targets = _validated_targets(target_nodes)
    if config.m % 2 != 0:
        raise ValueError("the symmetric fast path requires even m")
    if not np.array_equal(targets, -targets[::-1]):
        raise ValueError("target set must be symmetric about 0")
    return build_optimal_gim(targets, config)


def check_condition_mmax(target_nodes, m: int, alpha_a: float, epsilon: float = EPS_MACH) -> FeasibilityReport:
    """Sufficient no-collision condition for the fixed-parameter branch.

    Feasible when |y_s - (1 - x_k + 2 z_i) / (1 + x_k)| > epsilon for all
    adjoint indices i, Legendre indices s and targets x_k; a target at -1
    contributes an empty integration interval and is vacuously feasible.

    The ratios for each (target, adjoint node) pair are searched in the
    sorted Legendre nodes, which takes O(T m log m) time and
    O(T m + #violations) memory for T targets.  Violations are (i, s, k)
    triples ordered by target k, then by i and s.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    targets = _validated_targets(target_nodes)
    z = gg_rule(m, GegenbauerParam(alpha_a)).nodes
    y = lg_rule(m // 2).nodes
    kept = np.flatnonzero(targets != -1.0)
    x = targets[kept, None]
    ratios = (1.0 - x + 2.0 * z[None, :]) / (1.0 + x)
    row, i, s = _near_sorted(ratios, y, epsilon)
    violations = tuple(zip(i.tolist(), s.tolist(), kept[row].tolist()))
    return FeasibilityReport(feasible=not violations, violations=violations)


def qth_order_optimal(first: OptimalIntegrationMatrix, q: int) -> OptimalIntegrationMatrix:
    """Iterated-integral variant: entries scaled by (x_k - z_ki)^(q-1) / (q-1)!."""
    if int(q) != q or q < 1:
        raise ValueError(f"order must be a positive integer, got {q}")
    if first.order != 1:
        raise ValueError("qth_order_optimal expects a first-order matrix")
    q = int(q)
    if q == 1:
        return first
    diff = first.target_nodes[:, None] - first.adjoint_nodes
    entries = diff ** (q - 1) / math.factorial(q - 1) * first.entries
    return OptimalIntegrationMatrix(
        entries=entries, order=q, target_nodes=first.target_nodes,
        alpha_star=first.alpha_star, adjoint_nodes=first.adjoint_nodes,
        adjoint_rules=first.adjoint_rules, adjoint_bases=first.adjoint_bases,
        interval=first.interval)


def map_to_unit_optimal(matrix: OptimalIntegrationMatrix) -> OptimalIntegrationMatrix:
    """Affine image on [0, 1]: target and adjoint nodes mapped, entries / 2^q."""
    if matrix.interval == INTERVAL_UNIT:
        return matrix
    return OptimalIntegrationMatrix(
        entries=matrix.entries / 2.0 ** matrix.order, order=matrix.order,
        target_nodes=0.5 * (matrix.target_nodes + 1.0),
        alpha_star=matrix.alpha_star,
        adjoint_nodes=0.5 * (matrix.adjoint_nodes + 1.0),
        adjoint_rules=matrix.adjoint_rules, adjoint_bases=matrix.adjoint_bases,
        interval=INTERVAL_UNIT)


def optimal_to_csv(matrix: OptimalIntegrationMatrix, path_or_file) -> None:
    """Matrix block as in the square-matrix format plus a ``k,alphaStar`` table."""
    table = [f"{k},{a:.17g}\r\n" for k, a in enumerate(matrix.alpha_star.tolist())]
    _write_matrix_csv(path_or_file, matrix, "per-row", ["k,alphaStar\r\n"] + table)


def optimal_to_csv_string(matrix: OptimalIntegrationMatrix) -> str:
    buf = io.StringIO()
    optimal_to_csv(matrix, buf)
    return buf.getvalue()
