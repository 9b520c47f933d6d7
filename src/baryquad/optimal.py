"""Rectangular integration matrices with a per-row optimized family parameter.

Each target node gets its own Gegenbauer parameter, chosen to minimize the
squared leading factor of the quadrature error, and its own set of m+1
adjoint Gauss nodes at which the integrand is sampled.  Because the rule
integrates the degree-m interpolant exactly, polynomial exactness up to
degree m holds for every parameter choice; the optimization only tunes the
error constant of smooth non-polynomial integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .barycentric import bary_weights_gg
from .errors import CollisionError
from .gim import (FeasibilityReport, INTERVAL_BIUNIT, IntegrationMatrix, _build_rows, _check_epsilon,
                  _collisions, _lg_count, _screen, _validated_targets, build_gim_arbitrary)
from .polynomials import EPS_MACH, GegenbauerParam, eta
from .rules import _nodes_weights, gg_rule, lg_rule

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
        _check_epsilon(self.epsilon)
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


def optimize_alpha(x_k, m: int, config: OptimalConfig):
    """Parameter minimizing the squared quadrature error factor, per target.

    ``x_k`` is one target, which gives a float, or an array of targets,
    which gives an array of the same shape from one search over all of
    them.  The admissible interval is sampled at 64 points; then each round
    puts 64 evenly spaced points across every target's bracket
    [p_{b-1}, p_{b+1}] around its best sample p_b (the objective can be
    multimodal in the parameter), until the bracket is at most 1e-6 wide,
    and the bracket midpoint is returned.  The grid and each round are one
    :func:`eta` call on a (targets x 64) parameter array; with the default
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
    lo = -0.5 + config.boundary_margin
    left, right = np.full(x.size, lo), np.full(x.size, float(config.r))
    searched = (m > 0) & (x != -1.0) & ((x != 1.0) | (m % 2 == 1))
    active = np.flatnonzero(searched)  # narrowed to the targets whose bracket is still too wide
    while active.size:
        grid = np.linspace(left[active], right[active], _GRID_SAMPLES, axis=-1)
        best = (eta(x[active, None], m, grid) ** 2).argmin(axis=1)
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
    and a per-row ``alpha``.  Above ``config.m_max`` it is the
    fixed-parameter rectangular matrix of
    :func:`baryquad.gim.build_gim_arbitrary` at ``alpha_a``, with its nodes
    repeated per row; otherwise every row gets its own optimized parameter
    and adjoint sample set.  The parameter, adjoint rule and barycentric
    basis are computed once per distinct target, and for even m, where the
    error factor is even in the target, once per distinct ``|x_k|``, so
    mirrored targets share them.  The parameters of all those targets come
    from one call of :func:`optimize_alpha` with all of them: with the
    default search interval, at most five evaluations of the error factor,
    each over a (targets x 64) parameter array.  Every
    target is screened for collisions before any row is built, and the
    rows that share a basis are built in one call of the row kernel.
    """
    targets = _validated_targets(target_nodes)
    m = config.m
    if m > config.m_max:
        base = build_gim_arbitrary(targets, m, config.fallback, config.epsilon)
        return replace(base, source_nodes=np.tile(base.source_nodes, (targets.size, 1)),
                       alpha=np.full(targets.size, config.alpha_a))
    lg = lg_rule(_lg_count(m, targets, config.epsilon))
    groups = {}  # targets that share a parameter and basis, in order of first appearance
    for k, x_k in enumerate(targets.tolist()):
        groups.setdefault(abs(x_k) if m % 2 == 0 else x_k, []).append(k)
    alpha_stars = optimize_alpha(targets[[ks[0] for ks in groups.values()]], m, config).tolist()
    _nodes_weights(m, tuple(alpha_stars))  # the adjoint Gauss rules of all groups in one batch
    shared, hit = [], [False] * targets.size
    for ks, a_k in zip(groups.values(), alpha_stars):
        rule = gg_rule(m, GegenbauerParam(a_k))
        basis = bary_weights_gg(rule)
        screen = _screen(targets[ks], basis.nodes, lg, config.epsilon)
        for k, h in zip(ks, screen[2]):
            hit[k] = h
        shared.append((ks, a_k, rule, basis, screen))
    if any(hit):
        # every group is screened, so the first hit is the first collision in target order;
        # the rows of its group before it have no hit, so its group's first triple is that hit
        ks, _, _, basis, screen = next(group for group in shared if hit.index(True) in group[0])
        i, j, k = _collisions(targets[ks], basis.nodes, lg, config.epsilon, screen)[0]
        raise CollisionError(i, ks[j], k, "mapped Legendre point coincides with an adjoint node")
    entries = np.empty((targets.size, m + 1))
    adjoint_nodes = np.empty((targets.size, m + 1))
    alpha_star = np.empty(targets.size)
    for ks, a_k, rule, basis, screen in shared:
        entries[ks] = _build_rows(targets[ks], basis, lg, config.epsilon, "raise", screen)
        adjoint_nodes[ks] = rule.nodes
        alpha_star[ks] = a_k
    return IntegrationMatrix(entries=entries, order=1, source_nodes=adjoint_nodes,
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
    """No-collision condition of the fixed-parameter branch, with the builders' own screen.

    Feasible when |y_ks - z_i| > epsilon for every adjoint node z_i of
    ``alpha_a`` and every Legendre point y_ks mapped onto [-1, x_k], with
    the builder's Legendre count, endpoint bump included; a feasible report
    is a build of :func:`baryquad.gim.build_gim_arbitrary` that raises no
    :class:`CollisionError`.  The paper puts epsilon on the ratio
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
