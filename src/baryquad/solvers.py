"""Collocation solvers for two benchmark problems on [0, 1].

Problem 1 is a linear Fredholm integro-differential equation,

    y'(x) - y(x) - integral_0^1 e^(s x) y(s) ds = (1 - e^(x+1)) / (x+1),
    y(0) = 1,  exact solution y = e^x.

Problem 2 is a nonlinear boundary-value problem whose diffusion
coefficient depends on the integral of the unknown over the whole domain
(a nonlocal problem),

    -c * a(I[u]) * u''(x) + u(x)^5 = 0,   I[u] = integral_0^1 u,
    a(q) = 1/q,  c = 8 (sqrt(2) - 1) / 3,
    u(0) = 1,  u(1) = sqrt(2)/2,  exact solution u = 1 / sqrt(1 + x).

Both are integrated against the collocation nodes and assembled from the
integration matrices of :mod:`baryquad.gim` and :mod:`baryquad.optimal`,
mapped to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .gim import _full_interval_row, apply_quadrature, build_gim_gg, map_to_unit, qth_order_gim
from .optimal import OptimalConfig, build_optimal_gim
from .polynomials import GegenbauerParam, _frozen
from .rules import _write_lines

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class CollocationSolution:
    """Solution values at the collocation nodes plus error metrics.

    ``cd`` is the number of correct digits, -log10 of the maximum absolute
    error against the exact solution; ``kappa2`` is the 2-norm condition
    number of the assembled system (linear problems only).  The arrays
    are held as read-only views of those given.
    """

    nodes: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    exact: np.ndarray = field(repr=False)
    mae: float
    cd: float
    kappa2: float | None
    n: int
    m: int | None
    alpha: float

    def __post_init__(self):
        for name in ("nodes", "values", "exact"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def condition_number_2(matrix) -> float:
    """2-norm condition number sigma_max / sigma_min from the singular values.

    Returns +inf for a numerically singular matrix.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("condition number is defined here for square matrices")
    return float(np.linalg.cond(a))


def newton_solve(residual, x0, tol: float = 1e-12, max_iter: int = 100, *, jacobian) -> np.ndarray:
    """Damped Newton iteration with the Jacobian ``jacobian(x)`` of ``residual``.

    The step is halved (up to 30 times) while it fails to reduce the
    max-norm of the residual.  Convergence means the residual max-norm is
    at or below ``tol``.

    Raises
    ------
    ConvergenceError
        On a singular Jacobian, if 30 halvings of a step give no decrease
        of the residual max-norm, or if ``max_iter`` iterations do not
        reach the tolerance.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("initial guess must be a non-empty vector")
    r = np.asarray(residual(x), dtype=float)
    if r.shape != x.shape:
        raise ValueError("residual dimension must match the unknown dimension")
    for _ in range(max_iter):
        rnorm = np.max(np.abs(r))
        if rnorm <= tol:
            return x
        jac = jacobian(x)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian (residual max-norm {rnorm:.3e})") from exc
        lam = 1.0
        for _ in range(30):
            trial = x + lam * step
            r_trial = np.asarray(residual(trial), dtype=float)
            if np.max(np.abs(r_trial)) < rnorm:
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"line search: 30 halvings give no decrease (residual max-norm {rnorm:.3e})")
        x, r = trial, r_trial
    if np.max(np.abs(r)) <= tol:
        return x
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (residual max-norm {np.max(np.abs(r)):.3e})")


def _unit_interval_operators(n: int, param: GegenbauerParam):
    """Gauss nodes, then on [0, 1] the nodes, bumped square matrix (any alpha) and endpoint row E / 2."""
    biunit = build_gim_gg(n, param, variant="bumped")
    square = map_to_unit(biunit)
    endpoint = _full_interval_row(biunit.entries) / 2.0
    return biunit.target_nodes, square.target_nodes, square, endpoint


def _solution(nodes, values, exact, kappa2, n: int, m, param: GegenbauerParam) -> CollocationSolution:
    mae = float(np.max(np.abs(values - exact)))
    return CollocationSolution(nodes=nodes, values=values, exact=exact, mae=mae,
                               cd=-math.log10(mae) if mae > 0.0 else math.inf,
                               kappa2=kappa2, n=n, m=m, alpha=param.alpha)


def solve_example1(n: int, m: int, param: GegenbauerParam) -> CollocationSolution:
    """Solve the linear Fredholm integro-differential problem.

    The equation is integrated from 0 to each collocation node: the
    unknown's running integral uses the square matrix, the full-interval
    kernel integral uses the endpoint row, and the known source term is
    integrated with the per-row optimized rectangular matrix (``m``
    controls its expansion degree).  The resulting dense linear system is
    solved by LU with partial pivoting.
    """
    config = OptimalConfig(m=m)  # checks m before any work
    x, s, square, endpoint = _unit_interval_operators(n, param)
    optimal = map_to_unit(build_optimal_gim(x, config))

    kernel = np.exp(np.outer(s, s))
    a = np.eye(n + 1) - square.entries - (square.entries @ kernel) * endpoint[None, :]

    def source(t):
        return (1.0 - np.exp(t + 1.0)) / (t + 1.0)

    b = 1.0 + apply_quadrature(optimal, source(optimal.source_nodes))
    values = np.linalg.solve(a, b)
    return _solution(s, values, np.exp(s), condition_number_2(a), n, m, param)


def _example2_system(n: int, param: GegenbauerParam):
    """Nodes, residual and exact Jacobian of the collocated nonlinear problem.

    With p2 the second-order square matrix, e1 the endpoint row,
    e2 = (1 - s) e1, E = e1 u and N = c_lin s - c_jump (u - 1), the
    residual is

        r(u) = p2 u^5 - (e2 u^5) s + N / (3 E),

    and its Jacobian is

        J(u) = p2 diag(5 u^4) - s (e2 o 5 u^4)^T - N e1^T / (3 E^2) - c_jump / (3 E) I.

    The operators are built once and shared by both callables.
    """
    _, s, square, e1 = _unit_interval_operators(n, param)
    p2 = qth_order_gim(square, 2).entries
    e2 = (1.0 - s) * e1
    c_lin = 4.0 * (4.0 - 3.0 * _SQRT2)
    c_jump = 8.0 * (_SQRT2 - 1.0)

    def residual(u):
        u = np.asarray(u, dtype=float)
        u5 = u ** 5
        return p2 @ u5 - (e2 @ u5) * s + (c_lin * s - c_jump * (u - 1.0)) / (3.0 * (e1 @ u))

    def jacobian(u):
        u = np.asarray(u, dtype=float)
        du5 = 5.0 * u ** 4
        e = e1 @ u
        jac = p2 * du5 - np.outer(s, e2 * du5)
        jac -= np.outer(c_lin * s - c_jump * (u - 1.0), e1 / (3.0 * e * e))
        jac.flat[::n + 2] -= c_jump / (3.0 * e)
        return jac

    return s, residual, jacobian


def solve_example2(n: int, param: GegenbauerParam) -> CollocationSolution:
    """Solve the nonlinear nonlocal boundary-value problem.

    The twice-integrated equation is collocated at the interior Gauss
    nodes; both boundary values are built into the reformulation, which
    divides by the running-integral functional, so no explicit boundary
    equations appear.  The residual is driven to :func:`newton_solve`'s
    default tolerance by damped Newton with the exact Jacobian, from the
    flat initial guess u = 1.
    """
    s, residual, jacobian = _example2_system(n, param)
    values = newton_solve(residual, np.ones(n + 1), jacobian=jacobian)
    return _solution(s, values, 1.0 / np.sqrt(1.0 + s), None, n, None, param)


def solution_to_csv(solution: CollocationSolution, path_or_file) -> None:
    """Metadata header then ``x,u_approx,u_exact,abs_error`` rows."""
    m_s = "" if solution.m is None else str(solution.m)
    k_s = "" if solution.kappa2 is None else f"{solution.kappa2:.17g}"
    head = (f"n,m,alpha,mae,cd,kappa2\n{solution.n},{m_s},{solution.alpha:.17g},"
            f"{solution.mae:.17g},{solution.cd:.17g},{k_s}\nx,u_approx,u_exact,abs_error\n")
    columns = (solution.nodes.tolist(), solution.values.tolist(), solution.exact.tolist())
    _write_lines(path_or_file, [head], (f"{x:.17g},{u:.17g},{ex:.17g},{abs(u - ex):.17g}\n"
                                        for x, u, ex in zip(*columns)))
