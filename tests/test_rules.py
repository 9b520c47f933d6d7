"""Tests for Gauss rule generation."""

import io
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from baryquad import GegenbauerParam, QuadratureRule, gg_rule, lg_rule, rule_from_csv, rule_to_csv

ALPHAS = [-0.4, -0.25, 0.0, 0.5, 1.0, 2.0]


def total_mass(alpha):
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(alpha + 0.5) - math.lgamma(alpha + 1.0))


def weighted_moment(k, alpha):
    # integral of x^k (1-x^2)^(alpha-1/2) over [-1, 1]; Beta-function closed form
    if k % 2 == 1:
        return 0.0
    return math.exp(math.lgamma((k + 1) / 2.0) + math.lgamma(alpha + 0.5)
                    - math.lgamma(k / 2.0 + alpha + 1.0))


class TestClosedForms:
    def test_lg_midpoint_rule(self):
        rule = lg_rule(0)
        assert_allclose(rule.nodes, [0.0])
        assert_allclose(rule.weights, [2.0])

    def test_lg_two_points(self):
        rule = lg_rule(1)
        assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_lg_three_points(self):
        rule = lg_rule(2)
        assert_allclose(rule.nodes, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], atol=1e-15)
        assert_allclose(rule.weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-15)

    def test_gg_legendre_two_points(self):
        rule = gg_rule(1, GegenbauerParam(0.5))
        assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_degenerate_single_point(self):
        rule = gg_rule(0, GegenbauerParam(1.3))
        assert_allclose(rule.nodes, [0.0])
        assert_allclose(rule.weights, [total_mass(1.3)], rtol=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_middle_node_exactly_zero(self, alpha):
        assert gg_rule(2, GegenbauerParam(alpha)).nodes[1] == 0.0
        assert gg_rule(6, GegenbauerParam(alpha)).nodes[3] == 0.0

    def test_weight_sum_legendre(self):
        assert gg_rule(4, GegenbauerParam(0.5)).weights.sum() == pytest.approx(2.0, rel=1e-14)


class TestRuleProperties:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", [1, 5, 12, 40])
    def test_structure_and_mass(self, n, alpha):
        rule = gg_rule(n, GegenbauerParam(alpha))
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
        assert np.all(rule.weights > 0)
        assert_allclose(rule.nodes, -rule.nodes[::-1], atol=0.0)
        assert_allclose(rule.weights, rule.weights[::-1], atol=0.0)
        assert rule.weights.sum() == pytest.approx(total_mass(alpha), rel=1e-12)

    def test_gg_half_matches_lg(self):
        for n in (0, 3, 10, 25):
            gg = gg_rule(n, GegenbauerParam(0.5))
            lg = lg_rule(n)
            assert_allclose(gg.nodes, lg.nodes, atol=1e-13)
            assert_allclose(gg.weights, lg.weights, atol=1e-13)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", [2, 7, 20, 40])
    def test_polynomial_exactness(self, n, alpha, rng):
        rule = gg_rule(n, GegenbauerParam(alpha))
        coeffs = rng.uniform(-1, 1, 2 * n + 2)  # random polynomial, degree 2n+1
        quad_val = rule.weights @ np.polynomial.polynomial.polyval(rule.nodes, coeffs)
        exact = sum(c * weighted_moment(k, alpha) for k, c in enumerate(coeffs))
        assert quad_val == pytest.approx(exact, rel=1e-10, abs=1e-13)

    def test_lg_exactness_degree(self):
        # N+1 points integrate x^(2N+1) exactly but x^(2N+2) inexactly
        rule = lg_rule(3)
        assert rule.weights @ rule.nodes ** 7 == pytest.approx(0.0, abs=1e-15)
        assert rule.weights @ rule.nodes ** 8 != pytest.approx(2.0 / 9.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 1.0])
    def test_interlacing(self, alpha):
        for n in range(1, 40):
            a = gg_rule(n, GegenbauerParam(alpha)).nodes
            b = gg_rule(n + 1, GegenbauerParam(alpha)).nodes
            assert np.all(b[:-1] < a) and np.all(a < b[1:])

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            gg_rule(-1, GegenbauerParam(0.5))
        with pytest.raises(ValueError):
            lg_rule(-2)

    def test_rule_arrays_are_immutable(self):
        rule = gg_rule(5, GegenbauerParam(0.5))
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


class TestWeightsAgainstMpmath:
    # the eigenvector weights are the reference here: on these moments
    # scipy.special.roots_gegenbauer errs by up to 4e-9 (n = 640, alpha = -0.4)
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("n", [80, 400, 640])
    def test_even_moments(self, n, alpha):
        rule = gg_rule(n, GegenbauerParam(alpha))
        half = mpmath.mpf(1) / 2
        with mpmath.workdps(30):
            for j in (0, 1, 2, 5, 10, n // 4, n // 2):
                exact = float(mpmath.beta(j + half, mpmath.mpf(alpha) + half))
                got = np.sum(rule.weights * rule.nodes ** (2 * j))
                assert abs(got - exact) <= 1e-12 * exact


class TestCsv:
    def test_round_trip(self):
        rule = gg_rule(7, GegenbauerParam(-0.25))
        buf = io.StringIO()
        rule_to_csv(rule, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "kind,n,alpha"
        back = rule_from_csv(io.StringIO(text))
        assert back.kind == "GG" and back.n == 7 and back.alpha == -0.25
        assert_allclose(back.nodes, rule.nodes, atol=0.0)
        assert_allclose(back.weights, rule.weights, atol=0.0)

    def test_seventeen_significant_digits(self, tmp_path):
        rule = lg_rule(3)
        path = tmp_path / "rule.csv"
        rule_to_csv(rule, str(path))
        back = rule_from_csv(str(path))
        assert np.array_equal(back.nodes, rule.nodes)
        assert np.array_equal(back.weights, rule.weights)

    def test_literal_bytes(self, tmp_path):
        rule = QuadratureRule(kind="GG", n=1, alpha=-0.25, nodes=np.array([-0.5, 0.5]),
                              weights=np.array([1.0 / 3.0, 1e-20]))
        want = "kind,n,alpha\nGG,1,-0.25\n-0.5,0.33333333333333331\n0.5,9.9999999999999995e-21\n"
        buf = io.StringIO()
        rule_to_csv(rule, buf)
        assert buf.getvalue() == want
        path = tmp_path / "rule.csv"
        rule_to_csv(rule, str(path))
        assert path.read_bytes() == want.encode()
