"""Tests for polynomial evaluation, norms, integrals and error bounds."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from baryquad import (EPS_MACH, GegenbauerParam, OptimalConfig, build_basis_gim, build_gim_gg,
                      discrete_gegenbauer_transform, error_bound, eta, gegenbauer_eval,
                      gegenbauer_norm_leading, gg_rule, integrate_gegenbauer, optimize_alpha,
                      qth_order_gim)
from baryquad import gim, polynomials
from baryquad.optimal import _ALPHA_TOL
from baryquad.polynomials import _norms, _terms

ALPHAS = [-0.4, 0.0, 0.5, 1.0, 2.0]


class TestParamInvariants:
    def test_rejects_boundary_alpha(self):
        with pytest.raises(ValueError):
            GegenbauerParam(-0.5)
        with pytest.raises(ValueError):
            GegenbauerParam(-0.7)
        with pytest.raises(ValueError):
            GegenbauerParam(math.nan)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            gegenbauer_eval(0.3, -1, GegenbauerParam(0.5))

    @pytest.mark.parametrize("degree", [2.5, -1, math.nan, math.inf])
    def test_one_degree_check(self, degree):
        param = GegenbauerParam(0.5)
        for make in (lambda: gegenbauer_eval(0.3, degree, param),
                     lambda: integrate_gegenbauer(0.3, degree, param),
                     lambda: gegenbauer_norm_leading(degree, param),
                     lambda: error_bound(0.0, degree, param, 1.0)):
            with pytest.raises(ValueError, match="degree must be a non-negative integer"):
                make()
        assert gegenbauer_eval(0.3, 3.0, param) == gegenbauer_eval(0.3, 3, param)
        assert gegenbauer_norm_leading(3.0, param) == gegenbauer_norm_leading(3, param)

    def test_an_integer_past_the_doubles_is_refused(self):
        # math.isfinite cannot convert it, so the check says what it wants instead of overflowing
        for value in (10 ** 400, -10 ** 400):
            with pytest.raises(ValueError, match=r"^degree must be a non-negative integer below 2\^1024$"):
                polynomials._check_degree(value, "degree")
        with pytest.raises(ValueError, match=r"^m must be a non-negative integer below 2\^1024$"):
            OptimalConfig(m=10 ** 400)
        with pytest.raises(ValueError, match=r"^order must be a positive integer below 2\^1024$"):
            qth_order_gim(build_gim_gg(4, GegenbauerParam(0.5)), 10 ** 400)
        valid = [0, 3.0, 2 ** 80, 1e300, 2 ** 1023]
        assert [polynomials._check_degree(v, "degree") for v in valid] == [0, 3, 2 ** 80, int(1e300), 2 ** 1023]


class TestEval:
    def test_degree_zero_is_one(self):
        assert gegenbauer_eval(0.37, 0, GegenbauerParam(1.0)) == 1.0

    def test_standardized_at_one(self):
        assert gegenbauer_eval(1.0, 5, GegenbauerParam(0.2)) == pytest.approx(1.0, abs=1e-14)

    def test_legendre_closed_form(self):
        # P_3(x) = (5x^3 - 3x)/2, so P_3(0.4) = -0.44
        assert gegenbauer_eval(0.4, 3, GegenbauerParam(0.5)) == pytest.approx(-0.44, abs=1e-15)

    def test_chebyshev_case_matches_cosine(self):
        x = np.linspace(-1, 1, 41)
        for n in (1, 4, 9):
            assert_allclose(gegenbauer_eval(x, n, GegenbauerParam(0.0)),
                            np.cos(n * np.arccos(x)), atol=1e-13)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_parity(self, alpha, rng):
        x = rng.uniform(-1, 1, 100)
        for n in range(0, 51, 5):
            param = GegenbauerParam(alpha)
            assert_allclose(gegenbauer_eval(-x, n, param),
                            (-1.0) ** n * gegenbauer_eval(x, n, param), atol=1e-13)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_standardization_up_to_degree_50(self, alpha):
        for n in range(51):
            assert abs(gegenbauer_eval(1.0, n, GegenbauerParam(alpha)) - 1.0) <= 1e-12


class TestNormAndLeading:
    def test_frozen_legendre_values(self):
        # norm of P_0 = length of the interval, norm of P_1 = 2/3
        legendre = GegenbauerParam(0.5)
        assert gegenbauer_norm_leading(0, legendre).norm == pytest.approx(2.0, rel=1e-14)
        nl1 = gegenbauer_norm_leading(1, legendre)
        assert nl1.norm == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert nl1.leading == pytest.approx(1.0, rel=1e-15)
        # P_2 = (3x^2 - 1)/2
        assert gegenbauer_norm_leading(2, legendre).leading == pytest.approx(1.5, rel=1e-15)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 2.0])
    def test_vectorized_norms_match_scalar(self, alpha):
        got = _norms(640, alpha)
        want = np.array([gegenbauer_norm_leading(n, GegenbauerParam(alpha)).norm for n in range(641)])
        assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert_allclose(_norms(0, alpha), want[:1], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 2.0])
    def test_norms_against_mpmath_jacobi_normalization(self, alpha):
        # G_n is the Jacobi P_n^(a-1/2, a-1/2) divided by its value at 1, so
        # its norm is the Jacobi norm over P_n(1)^2; G_0 = 1 has the weight's mass
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            want = [mpmath.sqrt(mpmath.pi) * mpmath.gamma(a + 0.5) / mpmath.gamma(a + 1)]
            for n in range(1, 641):
                jacobi = (2 ** (2 * a) * mpmath.gamma(n + a + 0.5) ** 2
                          / ((2 * n + 2 * a) * mpmath.factorial(n) * mpmath.gamma(n + 2 * a)))
                want.append(jacobi / mpmath.binomial(n + a - 0.5, n) ** 2)
        assert_allclose(_norms(640, alpha), np.array(want, dtype=float), rtol=5e-12, atol=0.0)

    def test_classical_normalization_agrees_at_legendre(self):
        # the classical factor 2^(1-2a) pi G(n+2a) / (n! (n+a) G(a)^2) matches
        # this standardization exactly at alpha = 1/2
        a = 0.5
        for n in range(0, 12):
            classical = math.exp((1 - 2 * a) * math.log(2) + math.log(math.pi)
                                 + math.lgamma(n + 2 * a) - math.lgamma(n + 1)
                                 - math.log(n + a) - 2 * math.lgamma(a))
            norm = gegenbauer_norm_leading(n, GegenbauerParam(a)).norm
            assert norm == pytest.approx(classical, rel=1e-13)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.3])
    def test_norm_against_adaptive_quadrature(self, alpha):
        for n in range(0, 31, 3):
            f = lambda x: gegenbauer_eval(x, n, GegenbauerParam(alpha)) ** 2
            oracle, _ = quad(f, -1, 1, weight="alg", wvar=(alpha - 0.5, alpha - 0.5))
            norm = gegenbauer_norm_leading(n, GegenbauerParam(alpha)).norm
            assert norm == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.3])
    def test_leading_against_divided_differences(self, alpha):
        # n-th divided difference of a degree-n polynomial equals its leading
        # coefficient; evaluated in 60-digit arithmetic to dodge cancellation
        with mpmath.workdps(60):
            for n in range(1, 31, 4):
                pts = [mpmath.cos(mpmath.pi * k / n) for k in range(n + 1)]
                vals = [_mp_geg(n, alpha, t) for t in pts]
                for order in range(1, n + 1):
                    vals = [(vals[i + 1] - vals[i]) / (pts[i + order] - pts[i])
                            for i in range(len(vals) - 1)]
                oracle = float(vals[0])
                assert gegenbauer_norm_leading(n, GegenbauerParam(alpha)).leading == pytest.approx(
                    oracle, rel=1e-10)


def _mp_geg(n, alpha, x):
    alpha = mpmath.mpf(alpha)
    g0, g1 = mpmath.mpf(1), x
    if n == 0:
        return g0
    for k in range(2, n + 1):
        g2 = (2 * (k + alpha - 1) * x * g1 - (k - 1) * g0) / (k + 2 * alpha - 1)
        g0, g1 = g1, g2
    return g1


class TestIntegrate:
    def test_constant(self):
        assert integrate_gegenbauer(0.25, 0, GegenbauerParam(0.9)) == pytest.approx(1.25, abs=1e-15)

    def test_odd_over_symmetric_interval(self):
        assert integrate_gegenbauer(1.0, 1, GegenbauerParam(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_legendre_antiderivative(self):
        # antiderivative of P_2 is (x^3 - x)/2, zero at both 0 and -1
        assert integrate_gegenbauer(0.0, 2, GegenbauerParam(0.5)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.8])
    def test_derivative_recovers_integrand(self, alpha):
        h = 1e-6
        for n in (3, 8):
            for x in (-0.45, 0.1, 0.62):
                fd = (integrate_gegenbauer(x + h, n, GegenbauerParam(alpha))
                      - integrate_gegenbauer(x - h, n, GegenbauerParam(alpha))) / (2 * h)
                assert fd == pytest.approx(gegenbauer_eval(x, n, GegenbauerParam(alpha)), abs=1e-6)


def _mp_running_integrals(alpha, n_max, xs):
    """Integrals of G_0 ... G_n_max from -1 to each x, from exact monomial coefficients."""
    alpha = mpmath.mpf(alpha)
    polys = [[mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]]
    for k in range(2, n_max + 1):
        prev, cur = polys[-2], polys[-1]
        nxt = [mpmath.mpf(0)] + [2 * (k + alpha - 1) * c for c in cur]
        for j, c in enumerate(prev):
            nxt[j] -= (k - 1) * c
        polys.append([c / (k + 2 * alpha - 1) for c in nxt])
    xs = [mpmath.mpf(x) for x in xs]
    return np.array([[float(mpmath.fsum(c * (x ** (j + 1) - (-1) ** (j + 1)) / (j + 1)
                                        for j, c in enumerate(coeffs))) for x in xs]
                     for coeffs in polys])


class TestIntegrateClosedForm:
    XS = np.concatenate([[-1.0], np.linspace(-0.99, 0.99, 9), [1.0]])

    @pytest.mark.parametrize("alpha", [-0.45, -0.2, 0.0, 0.5, 1.0, 2.0])
    def test_matches_mpmath_oracle(self, alpha):
        with mpmath.workdps(50):
            want = _mp_running_integrals(alpha, 60, self.XS)
        got = np.array([[integrate_gegenbauer(x, n, GegenbauerParam(alpha)) for x in self.XS]
                        for n in range(61)])
        assert np.max(np.abs(got - want)) <= 8 * EPS_MACH * max(1.0, np.max(np.abs(want)))

    def test_chebyshev_case_matches_numpy_antiderivative(self):
        for n in range(61):
            antiderivative = np.polynomial.Chebyshev.basis(n).integ(lbnd=-1)
            got = [integrate_gegenbauer(x, n, GegenbauerParam(0.0)) for x in self.XS]
            assert_allclose(got, antiderivative(self.XS), rtol=0, atol=1e-15)

    def test_exactly_zero_at_left_endpoint(self):
        for n in range(12):
            for alpha in ALPHAS:
                assert integrate_gegenbauer(-1.0, n, GegenbauerParam(alpha)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 100).map(lambda j: 2 * j + 1),
           alpha=st.floats(-0.45, 3.0, allow_nan=False))
    def test_odd_degree_integrates_to_zero_over_interval(self, n, alpha):
        assert abs(integrate_gegenbauer(1.0, n, GegenbauerParam(alpha))) <= 1e-14


class TestEta:
    def test_empty_interval_is_exactly_zero(self):
        for m in (0, 3, 7, 12):
            for alpha in (0.3, 1.0):
                assert eta(-1.0, m, GegenbauerParam(alpha)) == 0.0

    def test_frozen_value_at_midpoint(self):
        # (1/K_1) integral of t over [-1, 0] = -1/2
        assert eta(0.0, 0, GegenbauerParam(0.5)) == pytest.approx(-0.5, abs=1e-14)

    def test_even_polynomial_integrates_to_zero(self):
        assert eta(1.0, 1, GegenbauerParam(0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_overflow_is_reported(self):
        with pytest.raises(OverflowError):
            eta(0.3, 20000, GegenbauerParam(300.0))

    @pytest.mark.parametrize("m", [2.5, -1, math.nan, math.inf])
    def test_degree_must_be_a_non_negative_integer(self, m):
        # 2.5 used to end in a TypeError from the recurrence
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            eta(0.3, m, GegenbauerParam(0.5))


class TestDiscreteTransform:
    def test_constant_maps_to_first_unit_vector(self):
        rule = gg_rule(6, GegenbauerParam(0.8))
        coeffs = discrete_gegenbauer_transform(rule, np.ones(7))
        expect = np.zeros(7)
        expect[0] = 1.0
        assert_allclose(coeffs, expect, atol=1e-13)

    def test_degree_one_maps_to_second_unit_vector(self):
        rule = gg_rule(5, GegenbauerParam(0.2))
        coeffs = discrete_gegenbauer_transform(rule, rule.nodes)
        expect = np.zeros(6)
        expect[1] = 1.0
        assert_allclose(coeffs, expect, atol=1e-13)

    def test_frozen_legendre_expansion_of_square(self):
        # x^2 = (1/3) P_0 + (2/3) P_2
        rule = gg_rule(2, GegenbauerParam(0.5))
        coeffs = discrete_gegenbauer_transform(rule, rule.nodes ** 2)
        assert_allclose(coeffs, [1.0 / 3.0, 0.0, 2.0 / 3.0], atol=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_orthogonality_yields_unit_vectors(self, alpha):
        n = 14
        rule = gg_rule(n, GegenbauerParam(alpha))
        for k in range(n + 1):
            samples = gegenbauer_eval(rule.nodes, k, GegenbauerParam(alpha))
            coeffs = discrete_gegenbauer_transform(rule, samples)
            expect = np.zeros(n + 1)
            expect[k] = 1.0
            assert_allclose(coeffs, expect, atol=1e-10)

    def test_length_mismatch_rejected(self):
        rule = gg_rule(4, GegenbauerParam(0.5))
        with pytest.raises(ValueError):
            discrete_gegenbauer_transform(rule, np.ones(4))


def division_terms(n, a, x):
    """G_0 ... G_n from (k + 2a - 1) G_k = 2 (k + a - 1) x G_{k-1} - (k - 1) G_{k-2}, in that form.

    The division form of the recurrence rounds differently from the
    coefficient form of ``_terms``, so it is the reference that bounds how
    far the outputs that read ``_terms`` may move with the arithmetic.
    """
    g0, g1 = np.ones_like(x), x
    yield g0
    if n == 0:
        return
    yield g1
    for k in range(2, n + 1):
        g0, g1 = g1, ((k + a - 1.0) * (2.0 * x) * g1 - (k - 1.0) * g0) / (k + 2.0 * a - 1.0)
        yield g1


def _mp_terms(n, alpha, xs):
    """G_0 ... G_n at each of ``xs``, as an (n + 1, len(xs)) array, by the recurrence in mpmath."""
    alpha, out = mpmath.mpf(alpha), np.empty((n + 1, len(xs)))
    for j, x in enumerate(xs):
        x = mpmath.mpf(x)
        g0, g1 = mpmath.mpf(1), x
        out[0, j], out[1, j] = 1.0, x
        for k in range(2, n + 1):
            g0, g1 = g1, (2 * (k + alpha - 1) * x * g1 - (k - 1) * g0) / (k + 2 * alpha - 1)
            out[k, j] = float(g1)
    return out


class TestRecurrenceRounding:
    """``_terms`` against mpmath, and the outputs that read it against the division form."""

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 2.0])
    def test_terms_match_mpmath(self, alpha):
        # relative to max |G_k| over the points, the error was at most 10.1 (k + 1) eps, at
        # alpha = -0.4, k = 399 and x = -1 (the division form: 4.9 (k + 1) eps there)
        n = 400
        xs = np.concatenate([np.linspace(-1.0, 1.0, 41), [-0.9999, 0.999, math.pi / 10],
                             gg_rule(60, GegenbauerParam(alpha)).nodes[::7]])
        with mpmath.workdps(40):
            want = _mp_terms(n, alpha, xs)
        got = np.array(list(_terms(n, alpha, xs)))
        err = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.all(err <= 32 * (np.arange(n + 1) + 1) * EPS_MACH)

    def test_basis_form_near_the_division_form(self, monkeypatch):
        # entries moved by at most 2.0e-15 (n = 640, alpha = 2); the bound leaves a factor 5
        cases = [(n, GegenbauerParam(alpha)) for n in (20, 100, 400, 640) for alpha in (-0.4, 0.5, 2.0)]
        today = [build_basis_gim(n, param).entries for n, param in cases]
        monkeypatch.setattr(gim, "_terms", division_terms)
        for (n, param), entries in zip(cases, today):
            assert np.max(np.abs(entries - build_basis_gim(n, param).entries)) <= 1e-14, (n, param)

    def test_alpha_star_near_the_division_form(self, monkeypatch):
        # 125 of the 4,800 alpha* moved, by at most 8.1e-8: inside the search's tolerance
        rng = np.random.default_rng(5)
        targets = [(m, rng.uniform(-1.0, 1.0, 240)) for m in range(1, 21)]
        today = [optimize_alpha(x, OptimalConfig(m=m)) for m, x in targets]
        monkeypatch.setattr(polynomials, "_terms", division_terms)
        for (m, x), alpha_star in zip(targets, today):
            assert np.max(np.abs(optimize_alpha(x, OptimalConfig(m=m)) - alpha_star)) <= _ALPHA_TOL, m


class TestErrorBound:
    def test_zero_width_interval(self):
        for n, alpha in ((0, 0.0), (5, 1.2), (6, -0.3)):
            b = error_bound(-1.0, n, GegenbauerParam(alpha), 1.0)
            assert b == 0.0

    def test_frozen_first_branch_value(self):
        # every gamma ratio collapses to 1: bound = 2^0 * (1 + 1) * 1
        b = error_bound(1.0, 0, GegenbauerParam(0.0), 1.0)
        assert b == pytest.approx(2.0, rel=1e-14)

    def test_linear_in_derivative_bound(self):
        b1 = error_bound(0.3, 7, GegenbauerParam(0.4), 1.0)
        b2 = error_bound(0.3, 7, GegenbauerParam(0.4), 2.0)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-14)

    @pytest.mark.parametrize("alpha", [-0.3, -0.1, 0.0, 0.7])
    def test_decreasing_in_degree(self, alpha):
        vals = [error_bound(0.5, n, GegenbauerParam(alpha), 1.0)
                for n in range(5, 41)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_negative_alpha_branches_positive_and_finite(self):
        for n in (4, 5, 10, 11):
            b = error_bound(0.5, n, GegenbauerParam(-0.25), 1.0)
            assert 0.0 < b < math.inf

    def test_asymptotic_requires_constant(self):
        param = GegenbauerParam(0.5)
        with pytest.raises(ValueError):
            error_bound(0.5, 20, param, 1.0, asymptotic=True)
        # -1 used to give a negative "upper bound"
        for b_constant in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="asymptotic constant must be positive and finite"):
                error_bound(0.5, 20, param, 1.0, asymptotic=True, b_constant=b_constant)
        with pytest.raises(ValueError, match="asymptotic bound needs degree >= 1"):
            error_bound(0.5, 0, param, 1.0, asymptotic=True, b_constant=1.0)
        assert error_bound(0.5, 20, param, 1.0, asymptotic=True, b_constant=1.0) > 0.0

    def test_asymptotic_envelope_folds_the_derivative_bound_into_the_constant(self):
        # the derivative bound is checked but does not enter the envelope; b_constant carries it
        param = GegenbauerParam(0.5)
        one = error_bound(0.5, 20, param, 1.0, asymptotic=True, b_constant=1.0)
        assert one == pytest.approx(3.309e-25, rel=1e-3)
        assert error_bound(0.5, 20, param, 99.0, asymptotic=True, b_constant=1.0) == one
        assert error_bound(0.5, 20, param, 1.0, asymptotic=True, b_constant=99.0) == pytest.approx(99.0 * one)
        with pytest.raises(ValueError, match="derivative bound must be non-negative"):
            error_bound(0.5, 20, param, -1.0, asymptotic=True, b_constant=1.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), alpha=st.floats(-0.45, 2.0), omega=st.sampled_from([1.0, 3.0, 8.0]))
    def test_bounds_the_observed_error(self, n, alpha, omega):
        # f = sin wx + cos wx, |f^(n+1)| <= sqrt(2) w^(n+1), on the guarded square matrix;
        # a sweep of n = 1..40, 50 alpha and these w found observed/bound at most 0.46
        param = GegenbauerParam(alpha)
        matrix = build_gim_gg(n, param, variant="guarded")
        x = matrix.target_nodes
        samples = np.sin(omega * matrix.source_nodes) + np.cos(omega * matrix.source_nodes)
        exact = (np.sin(omega * x) - np.cos(omega * x) + math.sin(omega) + math.cos(omega)) / omega
        errors = np.abs(matrix.entries @ samples - exact)
        derivative_bound = math.sqrt(2.0) * omega ** (n + 1)
        for xj, err in zip(x.tolist(), errors.tolist()):
            assert err <= error_bound(xj, n, param, derivative_bound) + 1e-14

    def test_bad_inputs_rejected(self):
        param = GegenbauerParam(0.5)
        for x in (1.5, -1.5, math.nan):
            with pytest.raises(ValueError, match=r"x must lie in \[-1, 1\]"):
                error_bound(x, 3, param, 1.0)
        # a NaN bound used to give a NaN
        for derivative_bound in (-1.0, math.nan):
            with pytest.raises(ValueError, match="derivative bound must be non-negative"):
                error_bound(0.5, 3, param, derivative_bound)
