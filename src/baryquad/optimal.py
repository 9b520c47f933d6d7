"""Rectangular integration matrices with a per-row optimized family parameter.

Each target node gets its own Gegenbauer parameter, chosen to minimize the
squared leading factor of the quadrature error, and its own set of m+1
adjoint Gauss nodes at which the integrand is sampled.  Because the rule
integrates the degree-m interpolant exactly, polynomial exactness up to
degree m holds for every parameter choice; the optimization only tunes the
error constant of smooth non-polynomial integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barycentric import _check_bases, _gauss_xi
from .errors import CollisionError
from .gim import (FeasibilityReport, INTERVAL_BIUNIT, IntegrationMatrix, _build_rows, _collisions,
                  _lg_count, _validated_targets)
from .polynomials import EPS_MACH, GegenbauerParam, _check_epsilon, eta
from .rules import _nodes_weights, gg_rule, lg_rule

_GRID_SAMPLES = 64
_STEPS = np.arange(float(_GRID_SAMPLES))
#: targets per eta call of the search, whose temporaries take O(targets x 64 x m) memory
_SEARCH_BLOCK = 128
_ALPHA_TOL = 1e-6

#: width of the guard strip above -1/2; minimizers pressed against the lower
#: search boundary are replaced by ``alpha_b``, because Gauss rules degrade
#: numerically as the weight function approaches non-integrability there
BOUNDARY_MARGIN = 1e-3


@dataclass(frozen=True)
class OptimalConfig:
    """Knobs of the per-row optimization.

    ``m`` is the quadrature expansion degree (m+1 adjoint samples per
    row); above ``m_max`` every row takes the fixed parameter ``alpha_a``
    instead of an optimized one.  ``r`` bounds the search from above;
    ``alpha_b``, ``alpha_a`` when not given, replaces the parameter of a
    target without a minimizer, and must exceed -1/2 like any parameter.
    ``epsilon`` is the collision tolerance of the rows.
    """

    m: int
    m_max: int = 20
    r: float = 2.0
    epsilon: float = EPS_MACH
    alpha_a: float = 0.0
    alpha_b: float | None = None

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 0:
            raise ValueError("m must be a non-negative integer")
        if not 1.0 <= self.r <= 2.0:
            raise ValueError(f"r must lie in [1, 2], got {self.r}")
        _check_epsilon(self.epsilon)
        if self.alpha_a not in (0.0, 0.5):
            raise ValueError(f"alpha_a must be 0 (Chebyshev) or 0.5 (Legendre), got {self.alpha_a}")
        object.__setattr__(self, "m", int(self.m))
        alpha_b = self.alpha_a if self.alpha_b is None else self.alpha_b
        object.__setattr__(self, "alpha_b", GegenbauerParam(alpha_b).alpha)


def optimize_alpha(x_k, m: int, config: OptimalConfig):
    """Parameter minimizing the squared quadrature error factor, per target.

    ``x_k`` is one target, which gives a float, or an array of targets,
    which gives an array of the same shape from one search over all of
    them.  The admissible interval is sampled at 64 points; then each round
    puts 64 evenly spaced points across every target's bracket
    [p_{b-1}, p_{b+1}] around its best sample p_b (the objective can be
    multimodal in the parameter), until the bracket is at most 1e-6 wide,
    and the bracket midpoint is returned.  The grid and each round are one
    :func:`eta` call on a (targets x 64) parameter array, per block of at
    most 128 targets, which bounds the temporaries; with the default
    interval there are four rounds.  A target leaves the search at its own
    tolerance, so its parameter is the same bit for bit in any batch.

    For even m the error factor is even in the target, so negative targets
    are folded onto their mirror images, which makes the returned parameter
    exactly symmetric on symmetric node sets.  Where no minimizer exists,
    ``config.alpha_b`` is returned: at -1 and, for even m, at 1 the error
    factor vanishes for every parameter (the integral of G_{m+1} over
    [-1, 1] is zero), and at m = 0 it does not depend on the parameter.
    So is a minimizer in the boundary strip above -1/2.
    """
    shape = np.shape(x_k)
    x = np.asarray(x_k, dtype=float).ravel()
    if not np.all((-1.0 <= x) & (x <= 1.0)):
        raise ValueError(f"targets must lie in [-1, 1], got {x_k}")
    if m < 0:
        raise ValueError("m must be non-negative")
    if m % 2 == 0:
        x = np.abs(x)
    lo = -0.5 + BOUNDARY_MARGIN
    left, right = np.full(x.size, lo), np.full(x.size, float(config.r))
    searched = (m > 0) & (x != -1.0) & ((x != 1.0) | (m % 2 == 1))
    active = np.flatnonzero(searched)  # narrowed to the targets whose bracket is still too wide
    while active.size:
        # np.linspace's points, lo + i step with the last at hi, without its dispatch
        lo_a, hi_a = left[active, None], right[active, None]
        grid = lo_a + _STEPS * ((hi_a - lo_a) / (_GRID_SAMPLES - 1))
        grid[:, -1] = hi_a[:, 0]
        best = np.empty(active.size, dtype=np.intp)
        for start in range(0, active.size, _SEARCH_BLOCK):
            b = slice(start, start + _SEARCH_BLOCK)
            best[b] = (eta(x[active[b], None], m, grid[b]) ** 2).argmin(axis=1)
        rows = np.arange(active.size)
        left[active] = grid[rows, np.maximum(best - 1, 0)]
        right[active] = grid[rows, np.minimum(best + 1, _GRID_SAMPLES - 1)]
        active = active[right[active] - left[active] > _ALPHA_TOL]
    alpha_star = 0.5 * (left + right)
    boundary = (alpha_star <= lo + _ALPHA_TOL) | (alpha_star < -0.5 + config.epsilon)
    alpha_star = np.where(searched & ~boundary, alpha_star, float(config.alpha_b))
    return float(alpha_star[0]) if shape == () else alpha_star.reshape(shape)


def build_optimal_gim(target_nodes, config: OptimalConfig) -> IntegrationMatrix:
    """First-order optimal matrix for an arbitrary target set.

    The result has per-row source nodes, the m+1 adjoint nodes of each row,
    and a per-row ``alpha``: ``alpha_a`` for every row above
    ``config.m_max``, which gives the matrix of
    :func:`baryquad.gim.build_gim_arbitrary` with its nodes repeated per
    row; otherwise one :func:`optimize_alpha` search over the distinct
    targets, or distinct ``|x_k|`` for even m, where the error factor is
    even in the target.  The adjoint rules of the distinct parameters come
    in one batch, their barycentric weights in one array expression, with
    the checks of :class:`baryquad.barycentric.BarycentricBasis` applied
    row by row, and every row in one call of the row kernel on per-row
    bases.  A :class:`CollisionError` names the first collision in target
    order.
    """
    targets = _validated_targets(target_nodes)
    m = config.m
    if m > config.m_max:
        alpha_star = np.full(targets.size, float(config.alpha_a))
    else:
        distinct, inverse = np.unique(np.abs(targets) if m % 2 == 0 else targets, return_inverse=True)
        alpha_star = optimize_alpha(distinct, m, config)[inverse]
    index = {}  # each distinct parameter's row in the batch, in order of first appearance
    row = [index.setdefault(a_k, len(index)) for a_k in alpha_star.tolist()]
    rules = _nodes_weights(m, tuple(index))  # the adjoint Gauss rules in one batch
    nodes, weights = np.array([x for x, _ in rules]), np.array([w for _, w in rules])
    xi = _gauss_xi(nodes, weights)
    _check_bases(nodes, xi)
    nodes, xi = nodes[row], xi[row]
    lg = lg_rule(_lg_count(m, targets, config.epsilon))
    try:
        entries = _build_rows(targets, nodes, xi, lg, config.epsilon, "raise")
    except CollisionError as err:
        detail = "mapped Legendre point coincides with an adjoint node"
        raise CollisionError(err.i, err.j, err.k, detail) from None
    return IntegrationMatrix(entries=entries, order=1, source_nodes=nodes,
                             target_nodes=targets, interval=INTERVAL_BIUNIT, alpha=alpha_star)


def build_optimal_gim_symmetric(target_nodes, config: OptimalConfig) -> IntegrationMatrix:
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
    """No-collision condition of the rows above ``m_max``, with the builders' own screen.

    Feasible when |y_ks - z_i| > epsilon for every adjoint node z_i of
    ``alpha_a`` and every Legendre point y_ks mapped onto [-1, x_k], with
    the builder's Legendre count, endpoint bump included; a feasible report
    is a build of :func:`build_optimal_gim` with m above ``m_max``, or of
    :func:`baryquad.gim.build_gim_arbitrary` at ``alpha_a``, that raises
    no :class:`CollisionError`.  The paper puts epsilon on the ratio
    (1 - x_k + 2 z_i) / (1 + x_k) instead, whose gap is 2 / (1 + x_k)
    times the mapped point's.

    Each mapped point is searched in the sorted adjoint nodes, which takes
    O(T m log m) time and O(T m) memory for T targets.  Violations are
    (i, s, k) triples ordered by target k, then by i and s.
    """
    targets = _validated_targets(target_nodes)
    z = gg_rule(m, GegenbauerParam(alpha_a)).nodes
    triples = _collisions(targets, z, lg_rule(_lg_count(m, targets, epsilon)), epsilon)
    # triples are (node i, target k, Legendre point s)
    violations = tuple(sorted(((i, s, k) for i, k, s in triples), key=lambda t: (t[2], t[0], t[1])))
    return FeasibilityReport(feasible=not violations, violations=violations)
