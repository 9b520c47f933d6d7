"""Gegenbauer (ultraspherical) polynomials and related scalar machinery.

The polynomial family G_n implemented here is the symmetric Jacobi family
orthogonal on [-1, 1] under the weight w(x) = (1 - x^2)^(alpha - 1/2),
standardized so that G_n(1) = 1 for every degree.  That standardization is
regular for all alpha > -1/2, including the Chebyshev case alpha = 0 where
the classical normalization factor is singular.

Everything in this module is a pure function of its inputs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

#: double-precision machine epsilon, the default exact-hit tolerance
EPS_MACH = float(np.finfo(np.float64).eps)


def _check_epsilon(epsilon: float) -> None:
    """The package's one test of a collision tolerance: positive and finite.

    An infinite tolerance would make every point a hit, and the guarded
    rows a crude nearest-node rule.
    """
    if not 0.0 < epsilon < math.inf:  # also rejects NaN
        raise ValueError("epsilon must be positive and finite")


def _check_degree(value, name: str, positive: bool = False) -> int:
    """The package's one test of a degree: a non-negative integer (3.0 passes), returned as an int.

    ``positive``, for an integration order q, also refuses 0 and a q whose (q - 1)! is not a double.
    """
    kind = "positive" if positive else "non-negative"
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the largest double, which has no float
        raise ValueError(f"{name} must be a {kind} integer below 2^1024") from None
    if not (finite and value >= (1 if positive else 0) and int(value) == value):
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    if positive and math.lgamma(value) > math.log(np.finfo(float).max):  # from q = 172 on
        raise ValueError(f"{name} must be at most 171, got {value}")
    return int(value)


def _frozen(values) -> np.ndarray:
    """The records' one freeze: a read-only view of ``values`` as a contiguous float array.

    The caller's array stays writeable; only an input that is not a
    contiguous float array is copied, as :func:`numpy.ascontiguousarray` does.
    """
    view = np.ascontiguousarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class GegenbauerParam:
    """Family parameter alpha, restricted to the orthogonality range.

    Raises
    ------
    ValueError
        If alpha <= -1/2 or alpha is not finite.
    """

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a):
            raise ValueError(f"alpha must be finite, got {a!r}")
        if a <= -0.5:
            raise ValueError(f"alpha must exceed -1/2, got {a}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class NormAndLeading:
    """Weighted L2 norm squared and leading (x^n) coefficient of G_n."""

    norm: float
    leading: float


def _terms(n: int, a, x):
    """Yield G_0 ... G_n at ``x``: the package's one three-term recurrence.

    G_k = c1 x G_{k-1} - c2 G_{k-2} from G_0 = 1 and G_1 = x, which is set,
    not recurred: the k = 1 step divides by 2a.  The coefficients
    c1 = 2 (k + a - 1) / (k + 2a - 1) and c2 = (k - 1) / (k + 2a - 1) of
    every k are computed up front.  ``x`` and ``a`` are floats or
    broadcastable arrays: an array ``a`` is an (A, 1) column of rules in
    the node polish of :mod:`baryquad.rules`, or a grid of parameters per
    target in the search of :func:`eta`.  Each entry is rounded as for a
    float ``a``.
    """
    g0 = np.ones_like(x)
    yield g0
    if n == 0:
        return
    g1 = x
    yield g1
    k = np.arange(2.0, n + 1.0).reshape((-1,) + (1,) * np.ndim(a))
    den = k + 2.0 * a - 1.0
    for p, q in zip(2.0 * (k + a - 1.0) / den, (k - 1.0) / den):
        g0, g1 = g1, p * x * g1 - q * g0
        yield g1


def _integration_relation(l, a, g_prev, g_next):
    """Integral of G_l over [-1, x], l >= 2, from G_{l-1}(x) and G_{l+1}(x).

    The ultraspherical integration relation [(l+2a)/(l+1) (G_{l+1}(x) - e)
    - l/(l+2a-1) (G_{l-1}(x) - e)] / (2(l+a)), with e = G_{l+1}(-1) =
    G_{l-1}(-1) = (-1)^(l+1).  ``l`` is an int or a column of float degrees.
    """
    end = (-1.0) ** (l + 1)
    return ((l + 2.0 * a) / (l + 1.0) * (g_next - end)
            - l / (l + 2.0 * a - 1.0) * (g_prev - end)) / (2.0 * (l + a))


def gegenbauer_eval(x, n: int, param: GegenbauerParam):
    """G_n(x) under the G_n(1) = 1 standardization, odd in x for odd n and even for even n.

    ``x`` is a float or an array; points outside [-1, 1] are allowed.
    """
    n = _check_degree(n, "degree")
    arr = np.asarray(x, dtype=float)
    (val,) = deque(_terms(n, param.alpha, np.atleast_1d(arr)), maxlen=1)
    return float(val[0]) if arr.ndim == 0 else np.array(val).reshape(arr.shape)  # copy: G_1 is x itself


def gegenbauer_norm_leading(n: int, param: GegenbauerParam) -> NormAndLeading:
    """Weighted norm squared, as in :func:`_norms`, and leading coefficient of G_n."""
    n = _check_degree(n, "degree")
    a = param.alpha
    leading = 1.0
    for j in range(2, n + 1):
        leading *= 2.0 * (j + a - 1.0) / (j + 2.0 * a - 1.0)
    return NormAndLeading(norm=float(_norms(n, a)[n]), leading=leading)


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _norms(n: int, a: float) -> np.ndarray:
    """Weighted norms squared of G_0 ... G_n, O(n) in one array expression.

    The norm is the integral of G_l(x)^2 (1-x^2)^(a-1/2) over [-1, 1] for
    the G_l(1) = 1 standardization, evaluated through log-gamma so the
    Chebyshev limit a = 0 is regular.
    """
    l = np.arange(1, n + 1, dtype=float)
    log_norm = np.empty(n + 1)
    log_norm[0] = 2.0 * a * math.log(2.0) + 2.0 * math.lgamma(a + 0.5) - math.lgamma(2.0 * a + 1.0)
    log_norm[1:] = ((2.0 * a - 1.0) * math.log(2.0) + _lgamma(l + 1.0) + 2.0 * math.lgamma(a + 0.5)
                    - np.log(l + a) - _lgamma(l + 2.0 * a))
    return np.exp(log_norm)


def _running_integral(n: int, a, x):
    """Integral of G_n from -1 to ``x`` in closed form, O(n) per alpha.

    For n >= 2 this is :func:`_integration_relation`; n = 0 and 1 use
    their elementary antiderivatives, so the Chebyshev case a = 0 is
    regular.  ``a`` and ``x`` are floats or broadcastable ndarrays, over
    which the recurrence broadcasts.  Exactly zero at x = -1.
    """
    if n == 0:
        return x + 1.0
    if n == 1:
        return 0.5 * (x * x - 1.0)
    g_prev, _, g_next = deque(_terms(n + 1, a, x), 3)
    return np.where(x == -1.0, 0.0, _integration_relation(n, a, g_prev, g_next))


def integrate_gegenbauer(x: float, n: int, param: GegenbauerParam) -> float:
    """Definite integral of G_n from -1 to ``x``.

    Closed form, O(n) per alpha: the ultraspherical integration relation
    writes the running integral through G_{n+1} and G_{n-1}.
    """
    return float(_running_integral(_check_degree(n, "degree"), param.alpha, float(x)))


def _eta_scale(m: int, a):
    """2^m / K_{m+1}, the prefactor of :func:`eta`, as the product of (2a + j) / (a + j), j = 1..m.

    ``a`` is a float or an ndarray of parameters; the product runs along a
    new first axis, in order of j, so each parameter's value is the same in
    any batch, and the inner loop runs over the parameters.  Each factor is
    below 2, so only m > 1023 can overflow, to inf.
    """
    a = np.asarray(a)
    j = np.arange(1.0, m + 1.0).reshape((-1,) + (1,) * a.ndim)
    with np.errstate(over="ignore"):
        return ((2.0 * a + j) / (a + j)).prod(axis=0)


def eta(x_k, m: int, param):
    """Quadrature error factor 2^m / K_{m+1} times integral of G_{m+1} over [-1, x_k].

    This is the factor whose square the per-node parameter optimization
    minimizes.  The integral is taken in closed form, O(n) per alpha.
    Vanishes identically at x_k = -1.  A float target with a
    :class:`GegenbauerParam` gives a float.  The search of
    :func:`baryquad.optimal.optimize_alpha` passes arrays instead: targets
    and raw parameters above -1/2 that broadcast against each other.  It
    gets an array whose every entry equals the float form's value.

    Raises
    ------
    ValueError
        If ``m`` is not a non-negative integer.
    OverflowError
        If the 2^m / K_{m+1} prefactor is not representable.
    """
    m = _check_degree(m, "m")
    one = isinstance(param, GegenbauerParam)
    alpha, x = (param.alpha, float(x_k)) if one else (param, x_k)
    scale = _eta_scale(m, alpha)
    if np.isinf(scale).any():
        raise OverflowError(f"error-factor prefactor overflows for m={m}")
    value = scale * _running_integral(m + 1, alpha, x)
    return float(value) if one else value


def discrete_gegenbauer_transform(rule, values) -> np.ndarray:
    """Modal coefficients of the interpolant through samples at Gauss nodes.

    Parameters
    ----------
    rule : QuadratureRule
        A Gegenbauer-Gauss rule with n+1 nodes (the Legendre kind is the
        alpha = 1/2 member of the family).
    values : array_like
        Function samples, one per node.

    Returns
    -------
    ndarray
        Coefficients c_0 ... c_n of the expansion in G_0 ... G_n, computed
        with the discrete inner product of the rule and the norms of
        :func:`gegenbauer_norm_leading`.
    """
    f = np.asarray(values, dtype=float)
    if f.shape != rule.nodes.shape:
        raise ValueError(f"expected {rule.nodes.size} samples, got {f.size}")
    n = rule.nodes.size - 1
    alpha = rule.alpha
    table = np.array(list(_terms(n, alpha, rule.nodes)))
    return (table @ (rule.weights * f)) / _norms(n, alpha)


def error_bound(x: float, n: int, param: GegenbauerParam, derivative_bound: float,
                asymptotic: bool = False, b_constant: float | None = None) -> float:
    """Upper bound on the quadrature truncation error over [-1, x].

    ``derivative_bound``, which must be >= 0, bounds the (n+1)-th
    derivative of the integrand over [-1, 1].  The finite-degree branches
    split on the sign of alpha and, for negative alpha, on the parity of
    the degree.  Binomial/gamma products are evaluated in log space with
    the sign-indefinite gamma factors cancelled analytically, so every
    branch is a product of positive terms.

    With ``asymptotic=True`` the large-degree envelope (n >= 1) is returned
    instead; it contains an unspecified constant that the caller must
    supply as ``b_constant``, positive and finite.  The envelope folds the
    derivative bound into that constant: ``derivative_bound`` is checked
    but does not enter the value, so scale ``b_constant`` by it to bound a
    given integrand.
    """
    n = _check_degree(n, "degree")
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x}")
    if not derivative_bound >= 0.0:
        raise ValueError(f"derivative bound must be non-negative, got {derivative_bound}")
    a = param.alpha
    A = derivative_bound
    width = x + 1.0

    if asymptotic:
        if b_constant is None:
            raise ValueError("asymptotic bound requires the caller-supplied constant")
        if not 0.0 < b_constant < math.inf:
            raise ValueError(f"asymptotic constant must be positive and finite, got {b_constant}")
        if n < 1:
            raise ValueError("asymptotic bound needs degree >= 1")
        exponent = n * (1.0 - math.log(2.0)) - (n + 1.5) * math.log(n)
        if a >= 0.0:
            exponent += a * math.log(n)
        return b_constant * width * math.exp(exponent)

    if a >= 0.0:
        log_b = (
            -n * math.log(2.0)
            + math.lgamma(a + 1.0)
            + math.lgamma(n + 2.0 * a + 1.0)
            - math.lgamma(2.0 * a + 1.0)
            - math.lgamma(n + 2.0)
            - math.lgamma(n + a + 1.0)
        )
        return A * width * math.exp(log_b)
    if n % 2 == 1:
        log_b = (
            -(n + 1.0) * math.log(2.0)
            + math.lgamma((n + 1.0) / 2.0 + a)
            - math.lgamma(n + a + 1.0)
            - math.lgamma((n + 3.0) / 2.0)
        )
        return A * width * math.exp(log_b)
    log_b = (
        -n * math.log(2.0)
        + math.lgamma(n / 2.0 + a + 1.0)
        - math.lgamma(n + a + 1.0)
        - math.lgamma(n / 2.0 + 1.0)
        - 0.5 * math.log((n + 1.0) * (2.0 * a + n + 1.0))
    )
    return A * width * math.exp(log_b)
