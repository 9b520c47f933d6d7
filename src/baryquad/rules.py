"""Gauss rules for the Gegenbauer and Legendre weight functions.

Nodes come from a Golub-Welsch eigensolve of the symmetric Jacobi matrix,
followed by a short Newton polish against the three-term recurrence;
weights are the squared first eigenvector components rescaled by the total
weight-function mass.  Nodes and weights are symmetrized exactly, so the
middle node of an odd-count rule is 0.0 and paired weights are bitwise
equal.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError
from .polynomials import EPS_MACH, GegenbauerParam, _recurrence_with_derivative

_NEWTON_MAX_STEPS = 10


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Ordered nodes and positive weights of a Gauss rule.

    ``kind`` is "GG" or "LG"; ``n`` is the degree parameter, so the rule
    has n+1 points.  ``alpha`` is 0.5 for the Legendre kind.
    """

    kind: str
    n: int
    alpha: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __len__(self):
        return self.nodes.size


def _total_mass(alpha: float) -> float:
    # integral of (1 - x^2)^(alpha - 1/2) over [-1, 1]
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(alpha + 0.5) - math.lgamma(alpha + 1.0))


@lru_cache(maxsize=512)
def _nodes_weights(n: int, alpha: float):
    mass = _total_mass(alpha)
    if n == 0:
        nodes = np.array([0.0])
        weights = np.array([mass])
    else:
        k = np.arange(1, n + 1, dtype=float)
        beta = np.empty(n)
        beta[0] = 1.0 / (2.0 * (alpha + 1.0))
        if n > 1:
            kk = k[1:]
            beta[1:] = kk * (kk + 2.0 * alpha - 1.0) / (4.0 * (kk + alpha) * (kk + alpha - 1.0))
        try:
            nodes, vectors = eigh_tridiagonal(np.zeros(n + 1), np.sqrt(beta))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise ConvergenceError(f"eigensolve failed for n={n}, alpha={alpha}: {exc}") from exc
        weights = mass * vectors[0] ** 2
        for _ in range(_NEWTON_MAX_STEPS):
            g, d = _recurrence_with_derivative(n + 1, alpha, nodes)
            step = g / d
            nodes = nodes - step
            if np.max(np.abs(step)) <= 4.0 * EPS_MACH:
                break
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        if (n + 1) % 2 == 1:
            nodes[n // 2] = 0.0
    if np.any(np.diff(nodes) <= 0.0) or nodes[0] <= -1.0 or nodes[-1] >= 1.0:
        raise ConvergenceError(f"node computation failed for n={n}, alpha={alpha}: nodes not ordered in (-1, 1)")
    if np.any(weights <= 0.0):
        raise ConvergenceError(f"node computation failed for n={n}, alpha={alpha}: non-positive weight")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gg_rule(n: int, param: GegenbauerParam) -> QuadratureRule:
    """Gegenbauer-Gauss rule: the n+1 zeros of G_{n+1} and their Christoffel numbers."""
    if int(n) != n or n < 0:
        raise ValueError(f"degree must be a non-negative integer, got {n}")
    nodes, weights = _nodes_weights(int(n), param.alpha)
    return QuadratureRule(kind="GG", n=int(n), alpha=param.alpha, nodes=nodes, weights=weights)


def lg_rule(n: int) -> QuadratureRule:
    """Legendre-Gauss rule with n+1 points, exact for degree <= 2n+1."""
    if int(n) != n or n < 0:
        raise ValueError(f"degree must be a non-negative integer, got {n}")
    nodes, weights = _nodes_weights(int(n), 0.5)
    return QuadratureRule(kind="LG", n=int(n), alpha=0.5, nodes=nodes, weights=weights)


@contextmanager
def _opened(path_or_file, mode: str):
    """A path opened as text without newline translation, or an open file as it is."""
    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, mode, newline="") as fh:
            yield fh
    else:
        yield path_or_file


def _write_lines(path_or_file, *chunks) -> None:
    """The package's one CSV writer: stream each chunk of finished lines (line ends included)."""
    with _opened(path_or_file, "w") as fh:
        for chunk in chunks:
            fh.writelines(chunk)


def rule_to_csv(rule: QuadratureRule, path_or_file) -> None:
    """Write ``kind,n,alpha`` header then one ``node,weight`` row per point."""
    points = zip(rule.nodes.tolist(), rule.weights.tolist())
    _write_lines(path_or_file, [f"kind,n,alpha\n{rule.kind},{rule.n},{rule.alpha:.17g}\n"],
                 (f"{x:.17g},{w:.17g}\n" for x, w in points))


def rule_from_csv(path_or_file) -> QuadratureRule:
    """Inverse of :func:`rule_to_csv`."""
    with _opened(path_or_file, "r") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "kind,n,alpha":
        raise ValueError("not a quadrature-rule CSV")
    kind, n_s, alpha_s = lines[1].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    nodes = np.ascontiguousarray(data[:, 0])
    weights = np.ascontiguousarray(data[:, 1])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(kind=kind, n=int(n_s), alpha=float(alpha_s), nodes=nodes, weights=weights)
