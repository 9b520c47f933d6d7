"""Quadrature benchmark helpers: test integrands and reference integrals."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import CollisionError
from .gim import apply_quadrature, build_basis_gim, build_gim_gg
from .rules import _nodes_weights

#: named test integrands, compiled like any other expression
INTEGRANDS = {"f1": "x**20", "f2": "exp(-x**2)", "f3": "1/(1+25*x**2)"}

_ERF = np.vectorize(math.erf, otypes=[float])

#: exact integrals of the named integrands over [-1, x]: the oracle of quadbench for them
EXACT_INTEGRALS = {
    "f1": lambda x: (x ** 21 + 1.0) / 21.0,
    "f2": lambda x: 0.5 * math.sqrt(math.pi) * (_ERF(x) + math.erf(1.0)),
    "f3": lambda x: (np.arctan(5.0 * x) + np.arctan(5.0)) / 5.0,
}

_EXPR_NAMESPACE = {
    "exp": np.exp, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "sqrt": np.sqrt, "log": np.log, "abs": np.abs,
    "pi": math.pi, "e": math.e,
}


def make_integrand(spec: str):
    """Compile a one-variable expression in x, or the expression of a named integrand.

    An expression that does not parse, uses a name outside the namespace,
    or gives no float at x = 0.25 raises ``ValueError``.
    """
    try:
        code = compile(INTEGRANDS.get(spec, spec), "<integrand>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"malformed integrand expression {spec!r}: {exc.msg}") from None
    for name in code.co_names:
        if name not in _EXPR_NAMESPACE and name != "x":
            raise ValueError(f"unknown name {name!r} in integrand expression")

    def f(x):
        value = eval(code, {"__builtins__": {}}, {**_EXPR_NAMESPACE, "x": x})
        return np.broadcast_to(value, np.shape(x))  # an expression without x, such as pi, is constant

    try:
        float(f(0.25))  # fail fast on malformed expressions
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"integrand expression {spec!r} fails at x = 0.25: {exc}") from None
    return f


def reference_integrals(f, targets) -> np.ndarray:
    """Adaptive (Gauss-Kronrod) integrals of f over [-1, x_j], 1e-14 target.

    Independent of the package's own rules on purpose: this is the
    comparison oracle for integrand expressions; the named integrands use
    :data:`EXACT_INTEGRALS`.  f is evaluated at ``np.float64`` points, the
    arithmetic of the samples.  ``scipy.integrate`` is imported here, not at
    module level, so importing the package and the CLI does not load it.
    """
    from scipy.integrate import IntegrationWarning, quad

    out = np.empty(len(targets))
    with warnings.catch_warnings():
        # the 1e-14 request sits at the roundoff floor for short intervals;
        # the returned value is still the best attainable
        warnings.simplefilter("ignore", IntegrationWarning)
        for j, xj in enumerate(targets):
            val, _ = quad(lambda t: f(np.float64(t)), -1.0, float(xj), epsabs=1e-14, epsrel=1e-14, limit=500)
            out[j] = val
    return out


def _not_finite(integrand: str, what: str, points, values) -> bool:
    """Warn, in one line, at the first point where ``values`` is not finite; True if it did."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        warnings.warn_explicit(f"{what} {integrand!r} is not finite at x = {float(points[bad[0]])!r}",
                               RuntimeWarning, "<integrand>", 1)
    return bool(bad.size)


def run_benchmark(integrand: str, degrees, params):
    """Per-node absolute errors of the barycentric and basis quadratures.

    ``integrand`` is compiled by :func:`make_integrand`, and the grid is
    ``degrees`` by ``params``, run degree by degree.  The reference is the
    exact integral for a named integrand and :func:`reference_integrals`
    for an expression.  Evaluations run with numpy's floating-point
    warnings off; the first sample or reference that is not finite warns
    once, in one line, and the rows are written as they are.

    Yields ``(n, alpha, node_index, err_bary, err_basis)`` tuples; grid
    points whose square matrix cannot be built (node collision) produce a
    single row with NaN errors and node index -1.
    """
    f = make_integrand(integrand)
    exact = EXACT_INTEGRALS.get(integrand)
    alphas, warned = tuple(p.alpha for p in params), False
    for n in degrees:
        # each degree's Gauss rules in one batch just before its points: the rule cache
        # holds 512 rules, so a batch of every degree up front would evict them on a large grid
        _nodes_weights(n, alphas)
        for param in params:
            try:
                bary = build_gim_gg(n, param)
            except CollisionError:
                yield (n, param.alpha, -1, math.nan, math.nan)
                continue
            basis = build_basis_gim(n, param)
            nodes, targets = bary.source_nodes, bary.target_nodes
            with np.errstate(all="ignore"):
                samples = f(nodes)
                ref = exact(targets) if exact else reference_integrals(f, targets)
                err_bary = np.abs(apply_quadrature(bary, samples) - ref)
                err_basis = np.abs(apply_quadrature(basis, samples) - ref)
            warned = (warned or _not_finite(integrand, "integrand", nodes, samples)
                      or _not_finite(integrand, "integral over [-1, x] of", targets, ref))
            for j in range(len(ref)):
                yield (n, param.alpha, j, float(err_bary[j]), float(err_basis[j]))
