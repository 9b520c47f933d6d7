"""Gauss rules for the Gegenbauer and Legendre weight functions.

The weight is even, so the Jacobi matrix T, with its even-index rows
first, is [[0, B], [B^T, 0]] with B lower bidiagonal and of half the size
(Golub & Welsch 1969; Meurant & Sommariva 2014).  The positive nodes are
the singular values of B; a pair +-x shares the mass times the squared
first component of its left singular vector, and for even n the null
vector of B^T gives the node 0.  One SVD per n takes the blocks of every
alpha, in chunks of a bounded element count, then one Newton polish
polishes the positive nodes of each rule to the bits they would reach
alone, and the negative nodes are their mirror images.  The polish runs the
package's one three-term recurrence and takes G_{n+1}' from the last two
terms.  So the rules are exactly symmetric: the middle node of an
odd-count rule is 0.0, paired nodes are bitwise negatives and paired
weights bitwise equal.  Every rule is checked on a closed-form even moment
before it is cached, so a rule past the parameter range where it holds
(alpha well above 2 at large n, or within about 1e-11 of -1/2) raises.
The feasibility check takes its nodes from :func:`_screen_nodes` instead.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .polynomials import EPS_MACH, GegenbauerParam, _check_degree, _frozen, _terms

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


#: relative tolerance of each rule's check on the even moment B(n // 2 + 1/2, alpha + 1/2).
#: For alpha <= 2 and n <= 1000 the check reads at most 1.7e-12 (0.05 alpha grid,
#: lgamma's rounding included); at n = 640 it reads 2.1e-8 at alpha = 10, 3.7e11 at 30
MOMENT_RTOL = 3e-10
_CACHE_SIZE = 512
#: (n, alpha) -> (nodes, weights), least recently used first; used under _LOCK
_RULES: OrderedDict = OrderedDict()
_LOCK = threading.Lock()


def _polish(n: int, alphas, nodes: np.ndarray) -> None:
    """Newton steps on the rows of ``nodes`` in place, one row per alpha, in one recurrence.

    Each step takes G_n and G_{n+1} from :func:`baryquad.polynomials._terms`
    and G_{n+1}' from (1 - x^2) G_{n+1}' = (n + 1) (G_n - x G_{n+1}).  Near
    +-1 that difference cancels, to a relative error of about eps / (1 - x):
    a Newton step tolerates it, a use that needs G' itself would not.  A row
    leaves the batch at its own 4 eps step test, so it takes the steps it
    takes alone; a lone row runs on a 1-D array with a float alpha.
    """
    rows = list(range(len(alphas)))
    for _ in range(_NEWTON_MAX_STEPS):
        if len(rows) == 1:
            index = rows[0]
            alpha = alphas[index]
        else:
            index = rows
            alpha = np.array(alphas)[index, None]
        x = nodes[index]
        g_n, g = deque(_terms(n + 1, alpha, x), 2)
        step = g / ((n + 1) * (g_n - x * g) / (1.0 - x * x))
        nodes[index] = x - step
        done = np.abs(step).max(axis=-1) <= 4.0 * EPS_MACH
        rows = [r for r, stop in zip(rows, done.flat) if not stop]
        if not rows:
            break


#: element budget of one SVD: each chunk of alpha stacks (alphas x rows x cols) blocks of at
#: most this many elements, or one alpha's block when that is more.  Every batch of the
#: benchmark commands is one chunk (the largest, quadbench at n = 320 with 10 alpha, has 257,600)
_BATCH_ELEMENTS = 2 ** 18


def _chunks(n: int, alphas):
    """Consecutive slices of ``alphas`` whose half-size blocks stay within :data:`_BATCH_ELEMENTS`."""
    size = max(1, _BATCH_ELEMENTS // ((n // 2 + 1) * max(1, (n + 1) // 2)))
    return [slice(start, start + size) for start in range(0, len(alphas), size)]


def _svd(n: int, alphas, compute_uv: bool = True):
    """numpy's SVD of the stacked half-size blocks B of every alpha: (u, s, vt), or s alone."""
    m, rows, cols = len(alphas), n // 2 + 1, (n + 1) // 2
    a = np.array(alphas)[:, None]
    k = np.arange(2.0, n + 1.0)
    b = np.empty((m, n))  # beta_j, then b_j = sqrt(beta_j), at b[:, j - 1]
    b[:, :1] = 1.0 / (2.0 * (a + 1.0))  # no entry at n = 0, a 1 x 1 matrix
    b[:, 1:] = k * (k + 2.0 * a - 1.0) / (4.0 * (k + a) * (k + a - 1.0))
    np.sqrt(b, out=b)
    # B[r, r] = b_{2r+1} and B[r, r-1] = b_{2r}: two diagonals of stride cols + 1 in a flat block
    blocks = np.zeros((m, rows, cols))
    blocks.reshape(m, -1)[:, ::cols + 1] = b[:, 0::2]
    blocks.reshape(m, -1)[:, cols::cols + 1] = b[:, 1::2]
    try:
        return np.linalg.svd(blocks, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"SVD failed for n={n}, alpha in {list(alphas)}: {exc}") from exc


def _symmetric_nodes(n: int, alphas, s: np.ndarray) -> np.ndarray:
    """The nodes of each alpha from its singular values: polished positives and their mirror images."""
    positive = s[:, ::-1].copy()
    if positive.shape[1]:
        _polish(n, alphas, positive)  # G_{n+1} is odd or even: -x would polish to exactly minus x's polish
    middle = np.zeros((len(alphas), n + 1 - 2 * positive.shape[1]))
    return np.concatenate([-positive[:, ::-1], middle, positive], axis=1)


def _gauss_rules(n: int, alphas):
    """Nodes and weights, (len(alphas), n + 1) each: one SVD and one polish per chunk of alpha.

    Each row stops polishing at its own step test, so no bit depends on the chunks.
    """
    cols = (n + 1) // 2
    nodes, weights = np.empty((len(alphas), n + 1)), np.empty((len(alphas), n + 1))
    for part in _chunks(n, alphas):
        chunk = alphas[part]
        u, s, _ = _svd(n, chunk)
        first = u[:, 0] ** 2 * np.array([_total_mass(alpha) for alpha in chunk])[:, None]
        half = 0.5 * first[:, :cols]  # the +-s pairs; the null vector of B^T (even n) is node 0
        nodes[part] = _symmetric_nodes(n, chunk, s)
        weights[part] = np.concatenate([half, first[:, cols:], half[:, ::-1]], axis=1)
    return nodes, weights


def _screen_nodes(n: int, alphas) -> np.ndarray:
    """The nodes of :func:`_gauss_rules` from a values-only SVD, (len(alphas), n + 1), uncached.

    Without U the SVD costs a fraction, but the nodes may differ from the
    rule's in the last bit (at most 1.1e-16 for n <= 1000, -0.4999999 <=
    alpha <= 2), so they serve only a check that allows for that distance.
    """
    nodes = np.empty((len(alphas), n + 1))
    for part in _chunks(n, alphas):
        nodes[part] = _symmetric_nodes(n, alphas[part], _svd(n, alphas[part], compute_uv=False))
    return nodes


def _nodes_weights(n: int, alphas: tuple):
    """(nodes, weights) of the (n + 1)-point Gauss rule of each alpha, in order.

    Rules come from a per-(n, alpha) cache of the 512 most recently used, or
    of the whole batch if larger, so each rule of a batch is a hit afterwards;
    :func:`_gauss_rules` computes the missing ones together.  The first of
    them whose nodes are not ordered in (-1, 1), whose weights are not
    positive, or whose moment error exceeds :data:`MOMENT_RTOL` raises
    :class:`ConvergenceError`, and none of them is cached.
    """
    n, found = _check_degree(n, "degree"), {}
    with _LOCK:
        for alpha in alphas:
            if (n, alpha) in _RULES:
                _RULES.move_to_end((n, alpha))
                found[alpha] = _RULES[n, alpha]
    missing = [a for a in dict.fromkeys(alphas) if a not in found]
    if missing:
        nodes, weights = _gauss_rules(n, missing)
        j = n // 2
        exact = np.exp([math.lgamma(j + 0.5) + math.lgamma(a + 0.5) - math.lgamma(j + a + 1.0)
                        for a in missing])
        # the nodes are symmetric, so nodes[:, -1] < 1 also bounds nodes[:, 0] > -1
        unordered = (nodes[:, 1:] <= nodes[:, :-1]).any(axis=1) | (nodes[:, -1] >= 1.0)
        nonpositive = (weights <= 0.0).any(axis=1)
        inexact = ~(abs((weights * nodes ** (2 * j)).sum(axis=1) - exact) <= MOMENT_RTOL * exact)
        bad = unordered | nonpositive | inexact
        if bad.any():
            r = bad.argmax()
            fault = ("nodes not ordered in (-1, 1)" if unordered[r] else "non-positive weight"
                     if nonpositive[r] else f"even-moment error above {MOMENT_RTOL:g}")
            raise ConvergenceError(f"node computation failed for n={n}, alpha={missing[r]}: {fault}")
        keep = max(_CACHE_SIZE, len(found) + len(missing))  # the batch's rules are the newest
        with _LOCK:
            for alpha, x, w in zip(missing, nodes, weights):
                rule = _frozen(x.copy()), _frozen(w.copy())  # a row view would keep the whole batch alive
                found[alpha] = _RULES[n, alpha] = rule
                if len(_RULES) > keep:
                    _RULES.popitem(last=False)
    return [found[a] for a in alphas]


def gg_rule(n: int, param: GegenbauerParam) -> QuadratureRule:
    """Gegenbauer-Gauss rule: the n+1 zeros of G_{n+1} and their Christoffel numbers."""
    nodes, weights = _nodes_weights(n, (param.alpha,))[0]
    return QuadratureRule(kind="GG", n=int(n), alpha=param.alpha, nodes=nodes, weights=weights)


def lg_rule(n: int) -> QuadratureRule:
    """Legendre-Gauss rule with n+1 points, exact for degree <= 2n+1."""
    nodes, weights = _nodes_weights(n, (0.5,))[0]
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
    """Inverse of :func:`rule_to_csv`, for the text of a Gauss rule only.

    The kind is GG or LG, n is a degree equal to the point count less one,
    alpha is a valid parameter (0.5 for LG), the nodes strictly increase
    inside (-1, 1) and the weights are positive and finite; anything else
    raises :class:`ValueError`.
    """
    with _opened(path_or_file, "r") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    fields = [ln.count(",") + 1 for ln in lines]
    # the header, one kind,n,alpha line, then at least one node,weight row
    if lines[:1] != ["kind,n,alpha"] or fields[1:2] != [3] or set(fields[2:]) != {2}:
        raise ValueError("not a quadrature-rule CSV")
    kind, n_s, alpha_s = lines[1].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    nodes, weights = data[:, 0], data[:, 1]
    try:
        n, param = _check_degree(float(n_s), "degree"), GegenbauerParam(float(alpha_s))
    except ValueError as exc:
        raise ValueError(f"not a quadrature-rule CSV: {exc}") from None
    fault = ("kind must be GG or LG" if kind not in ("GG", "LG")
             else f"n = {n} with {nodes.size} points" if n != nodes.size - 1
             else "an LG rule has alpha 0.5" if kind == "LG" and param.alpha != 0.5
             else "nodes must increase inside (-1, 1)"
             if not (np.all(nodes[1:] > nodes[:-1]) and np.all(np.abs(nodes) < 1.0))
             else "weights must be positive and finite" if not np.all((weights > 0.0) & (weights < np.inf))
             else None)
    if fault:
        raise ValueError(f"not a quadrature-rule CSV: {fault}")
    return QuadratureRule(kind=kind, n=n, alpha=param.alpha, nodes=_frozen(nodes), weights=_frozen(weights))
