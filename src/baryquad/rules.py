"""Gauss rules for the Gegenbauer and Legendre weight functions.

The weight is even, so the Jacobi matrix T, with its even-index rows
first, is [[0, B], [B^T, 0]] with B lower bidiagonal and of half the size
(Golub & Welsch 1969; Meurant & Sommariva 2014).  The positive nodes are
the singular values of B; a pair +-x shares the mass times the squared
first component of its left singular vector, and for even n the null
vector of B^T gives the node 0.  :func:`_nodes` is the package's one node
source: one values-only SVD per n takes the blocks of every alpha, in
chunks of a bounded element count, one Newton polish (the package's one
recurrence, G_{n+1}' from its last two terms) takes the positive nodes to
the bits they would reach alone, and the negative nodes are their mirror
images, so each rule is exactly symmetric.  The builders and the
feasibility check read these nodes alone.  Weights come from the left
singular vectors of a second SVD, where a caller reads them
(:func:`gg_rule`, :func:`lg_rule`) and for every rule outside the range
where all rules pass their closed-form moment check, so a rule past it
(alpha well above 2 at large n, or within about 1e-11 of -1/2) raises for
every caller.
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
    takes alone; a lone row runs on a 1-D array with a float alpha.  A row
    with a node on 1 leaves before it would divide by 1 - x^2 = 0.
    """
    rows = list(range(len(alphas)))
    for _ in range(_NEWTON_MAX_STEPS):
        rows = [r for r in rows if nodes[r, -1] < 1.0]
        if not rows:
            break
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed beta fails below, or its nodes do
        b[:, :1] = 1.0 / (2.0 * (a + 1.0))  # no entry at n = 0, a 1 x 1 matrix
        b[:, 1:] = k * (k + 2.0 * a - 1.0) / (4.0 * (k + a) * (k + a - 1.0))
        np.sqrt(b, out=b)
    # B[r, r] = b_{2r+1} and B[r, r-1] = b_{2r}: two diagonals of stride cols + 1 in a flat block
    blocks = np.zeros((m, rows, cols))
    blocks.reshape(m, -1)[:, ::cols + 1] = b[:, 0::2]
    blocks.reshape(m, -1)[:, cols::cols + 1] = b[:, 1::2]
    try:
        return np.linalg.svd(blocks, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:  # NaN blocks, from a beta that overflowed
        raise ConvergenceError(f"SVD failed for n={n}, alpha in {list(alphas)}: {exc}") from exc


def _node_batch(n: int, alphas) -> np.ndarray:
    """The nodes of each alpha, (len(alphas), n + 1): a values-only SVD and one polish per chunk."""
    nodes = np.empty((len(alphas), n + 1))
    for part in _chunks(n, alphas):
        chunk = alphas[part]
        # a singular value rounded onto or past 1 starts from the largest double below it
        positive = np.minimum(_svd(n, chunk, compute_uv=False)[:, ::-1], np.nextafter(1.0, 0.0))
        if positive.shape[1]:
            # at the next double above -1/2 the recurrence's k = 2 step divides by 0, and past
            # alpha = 1e154 beta overflows: their NaN rows fail the order check without a warning
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                _polish(n, chunk, positive)  # G_{n+1} is odd or even: -x would polish to exactly minus x's polish
        middle = np.zeros((len(chunk), n + 1 - 2 * positive.shape[1]))
        nodes[part] = np.concatenate([-positive[:, ::-1], middle, positive], axis=1)
    return nodes


def _weight_batch(n: int, alphas) -> np.ndarray:
    """The weights of each alpha, (len(alphas), n + 1): the mass times U's first row squared, per chunk."""
    cols = (n + 1) // 2
    weights = np.empty((len(alphas), n + 1))
    for part in _chunks(n, alphas):
        chunk = alphas[part]
        u = _svd(n, chunk)[0]
        first = u[:, 0] ** 2 * np.array([_total_mass(alpha) for alpha in chunk])[:, None]
        half = 0.5 * first[:, :cols]  # the +-s pairs; the null vector of B^T (even n) is node 0
        weights[part] = np.concatenate([half, first[:, cols:], half[:, ::-1]], axis=1)
    return weights


#: where every rule passes its own checks (n = 0..1000 at both ends and on the 0.05 grid, and
#: at random points); outside, the node source also takes the weights and checks them
_NODE_ONLY_DEGREE, _NODE_ONLY_ALPHAS = 1000, (-0.4999999, 2.0)


def _nodes_weights(n: int, alphas, weights: bool = True) -> list:
    """(nodes, weights) of the (n + 1)-point Gauss rule of each alpha, in order.

    Rules come from a per-(n, alpha) cache of the 512 most recently used, or
    of the whole batch if larger, so each rule of a batch is a hit afterwards.
    The missing nodes come from one :func:`_node_batch`, and the weights,
    None unless asked for or outside the node-only range, from one
    :func:`_weight_batch`.  The first alpha whose nodes are not ordered in
    (-1, 1), or else whose moment lgamma cannot give to :data:`MOMENT_RTOL`
    (from about alpha = 1.2e5), or whose weights are not positive or miss
    the moment by more, raises :class:`ConvergenceError`, and nothing of the
    batch is cached.
    """
    n, rules, new = _check_degree(n, "degree"), dict.fromkeys(alphas), {}
    with _LOCK:
        for alpha in rules:
            if (n, alpha) in _RULES:
                _RULES.move_to_end((n, alpha))
                rules[alpha] = _RULES[n, alpha]
    missing = [a for a, rule in rules.items() if rule is None]
    if missing:
        nodes = _node_batch(n, missing)
        # the nodes are symmetric, so nodes[:, -1] < 1 also bounds nodes[:, 0] > -1; NaN fails both
        ordered = (nodes[:, 1:] > nodes[:, :-1]).all(axis=1) & (nodes[:, -1] < 1.0)
        if not ordered.all():
            raise ConvergenceError(f"node computation failed for n={n}, alpha={missing[ordered.argmin()]}: "
                                   "nodes not ordered in (-1, 1)")
        new = {a: (_frozen(x.copy()), None) for a, x in zip(missing, nodes)}  # a row view would keep the batch
        rules.update(new)
    low, high = _NODE_ONLY_ALPHAS
    lacking = [a for a, (_, w) in rules.items()
               if w is None and (weights or not (n <= _NODE_ONLY_DEGREE and low <= a <= high))]
    if lacking:
        j = n // 2
        # lgamma(x) errs by about eps x ln x, so past the tolerance no moment (the mass, at n <= 1) is known
        vague = [a for a in lacking if EPS_MACH * (j + a + 1.0) * math.log(j + a + 1.0) > MOMENT_RTOL]
        if vague:
            raise ConvergenceError(f"node computation failed for n={n}, alpha={vague[0]}: "
                                   f"even-moment error above {MOMENT_RTOL:g}")
        nodes, w = np.array([rules[a][0] for a in lacking]), _weight_batch(n, lacking)
        exact = np.exp([math.lgamma(j + 0.5) + math.lgamma(a + 0.5) - math.lgamma(j + a + 1.0)
                        for a in lacking])
        nonpositive = (w <= 0.0).any(axis=1)
        inexact = ~(abs((w * nodes ** (2 * j)).sum(axis=1) - exact) <= MOMENT_RTOL * exact)
        bad = nonpositive | inexact
        if bad.any():
            r = bad.argmax()
            fault = "non-positive weight" if nonpositive[r] else f"even-moment error above {MOMENT_RTOL:g}"
            raise ConvergenceError(f"node computation failed for n={n}, alpha={lacking[r]}: {fault}")
        for a, row in zip(lacking, w):
            rules[a] = new[a] = rules[a][0], _frozen(row.copy())
    keep = max(_CACHE_SIZE, len(rules))  # the batch's rules are the newest
    with _LOCK:
        for a, rule in new.items():
            _RULES[n, a] = rule
            if len(_RULES) > keep:
                _RULES.popitem(last=False)
    return [rules[a] for a in alphas]


def _nodes(n: int, alphas) -> list:
    """The nodes of the (n + 1)-point Gauss rule of each alpha, in order: the builders' one node source."""
    return [x for x, _ in _nodes_weights(n, alphas, weights=False)]


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
