"""Barycentric Lagrange interpolation: weights and stable evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polynomials import EPS_MACH, _check_epsilon
from .rules import QuadratureRule


@dataclass(frozen=True, eq=False)
class BarycentricBasis:
    """Interpolation nodes with their barycentric weights.

    Rescaling all weights by one nonzero constant leaves the interpolant
    unchanged, so only the weight ratios matter.
    """

    nodes: np.ndarray = field(repr=False)
    xi: np.ndarray = field(repr=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        xi = np.ascontiguousarray(self.xi, dtype=float)
        if nodes.ndim != 1 or nodes.shape != xi.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be 1-D arrays of equal nonzero length")
        if nodes.size > 1 and np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(xi == 0.0):
            raise ValueError("barycentric weights must be nonzero")
        if np.any(xi[:-1] * xi[1:] >= 0.0):
            raise ValueError("barycentric weights must alternate in sign along ascending nodes")
        nodes.flags.writeable = False
        xi.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "xi", xi)

    def __len__(self):
        return self.nodes.size


def bary_weights_gg(rule: QuadratureRule) -> BarycentricBasis:
    """Cancellation-free weights for Gauss nodes.

    xi_i = (-1)^i sin(arccos(x_i)) sqrt(w_i); the sin-arccos form stays
    accurate where nodes cluster near the endpoints.
    """
    i = np.arange(rule.nodes.size)
    xi = (-1.0) ** i * np.sin(np.arccos(rule.nodes)) * np.sqrt(rule.weights)
    return BarycentricBasis(nodes=rule.nodes, xi=xi)


def bary_eval(basis: BarycentricBasis, values, x, exact_hit_tol: float = EPS_MACH):
    """Evaluate the interpolant through (nodes, values) at ``x``.

    The table of :func:`lagrange_matrix` applied to the values, O(n) per
    point: a point within ``exact_hit_tol`` of a node returns the value of
    its nearest node (the lower one on a tie) instead of dividing by ~0.
    """
    f = np.asarray(values, dtype=float)
    if f.shape != basis.nodes.shape:
        raise ValueError(f"expected {basis.nodes.size} values, got {f.size}")
    pts = np.asarray(x, dtype=float)
    out = lagrange_matrix(basis, np.atleast_1d(pts), exact_hit_tol) @ f
    return float(out[0]) if pts.ndim == 0 else out


def lagrange_matrix(basis: BarycentricBasis, points, exact_hit_tol: float = EPS_MACH):
    """Cardinal-function table L[k, i] = L_i(points[k]).

    A point within ``exact_hit_tol`` of a node takes the exact unit row
    that the cardinal property dictates, at the nearest node (the lower
    one on a tie) when it lies within the tolerance of two nodes.  The
    tolerance must be positive.
    """
    _check_epsilon(exact_hit_tol)
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None] - basis.nodes[None, :]
    hits = np.abs(diff) <= exact_hit_tol
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = basis.xi[None, :] / diff
        table = mu / mu.sum(axis=1, keepdims=True)
    if hits.any():
        # each hit point takes the unit row of its nearest node, the lower on a tie
        k = np.flatnonzero(hits.any(axis=1))
        table[k] = 0.0
        table[k, np.abs(diff[k]).argmin(axis=1)] = 1.0
    return table
