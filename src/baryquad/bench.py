"""Quadrature benchmark helpers: test integrands and reference integrals."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import CollisionError
from .gim import apply_quadrature, build_basis_gim, build_gim_gg

#: named test integrands
INTEGRANDS = {
    "f1": lambda x: x ** 20,
    "f2": lambda x: np.exp(-x ** 2),
    "f3": lambda x: 1.0 / (1.0 + 25.0 * x ** 2),
}

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
    """Resolve a named integrand or compile a one-variable expression in x.

    An expression that does not parse, uses a name outside the namespace,
    or gives no float at x = 0.25 raises ``ValueError``.
    """
    if spec in INTEGRANDS:
        return INTEGRANDS[spec]
    try:
        code = compile(spec, "<integrand>", "eval")
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
    :data:`EXACT_INTEGRALS`.  ``scipy.integrate`` is imported here, not at
    module level, so importing the package and the CLI does not load it.
    """
    from scipy.integrate import IntegrationWarning, quad

    out = np.empty(len(targets))
    with warnings.catch_warnings():
        # the 1e-14 request sits at the roundoff floor for short intervals;
        # the returned value is still the best attainable
        warnings.simplefilter("ignore", IntegrationWarning)
        for j, xj in enumerate(targets):
            val, _ = quad(f, -1.0, float(xj), epsabs=1e-14, epsrel=1e-14, limit=500)
            out[j] = val
    return out


def run_benchmark(integrand: str, points):
    """Per-node absolute errors of the barycentric and basis quadratures.

    ``integrand`` is resolved by :func:`make_integrand`, and ``points`` are
    the ``(n, param)`` grid points in order.  The reference is the exact
    integral for a named integrand and :func:`reference_integrals` for an
    expression.

    Yields ``(n, alpha, node_index, err_bary, err_basis)`` tuples; grid
    points whose square matrix cannot be built (node collision) produce a
    single row with NaN errors and node index -1.
    """
    f = make_integrand(integrand)
    exact = EXACT_INTEGRALS.get(integrand)
    for n, param in points:
        try:
            bary = build_gim_gg(n, param)
        except CollisionError:
            yield (n, param.alpha, -1, math.nan, math.nan)
            continue
        basis = build_basis_gim(n, param)
        samples = f(bary.source_nodes)
        targets = bary.target_nodes
        ref = exact(targets) if exact else reference_integrals(f, targets)
        err_bary = np.abs(apply_quadrature(bary, samples) - ref)
        err_basis = np.abs(apply_quadrature(basis, samples) - ref)
        for j in range(len(ref)):
            yield (n, param.alpha, j, float(err_bary[j]), float(err_basis[j]))
