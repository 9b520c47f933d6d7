"""Tests for barycentric weights and interpolation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from baryquad import BarycentricBasis, GegenbauerParam, bary_eval, bary_weights_gg, gg_rule


def bary_weights_direct(nodes) -> BarycentricBasis:
    """The product-formula oracle, xi_j = 1 / prod_{i != j} (x_j - x_i).

    Subject to cancellation for large node counts, which
    :func:`bary_weights_gg` avoids on Gauss nodes.
    """
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("nodes must be a non-empty 1-D array")
    if np.unique(x).size != x.size:
        raise ValueError("nodes must be pairwise distinct")
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    xi = 1.0 / diff.prod(axis=1)
    return BarycentricBasis(nodes=np.sort(x), xi=xi[np.argsort(x)])


class TestDirectWeights:
    def test_single_node(self):
        basis = bary_weights_direct([0.3])
        assert_allclose(basis.xi, [1.0])

    def test_two_node_closed_form(self):
        basis = bary_weights_direct([-1 / math.sqrt(3), 1 / math.sqrt(3)])
        assert_allclose(basis.xi, [-math.sqrt(3) / 2, math.sqrt(3) / 2], rtol=1e-15)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            bary_weights_direct([0.1, 0.5, 0.1])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_stable_weights_up_to_global_factor(self, n):
        rule = gg_rule(n, GegenbauerParam(0.8))
        direct = bary_weights_direct(rule.nodes).xi
        stable = bary_weights_gg(rule).xi
        ratio = direct / stable
        assert_allclose(ratio, ratio[0], rtol=1e-12)


class TestStableWeights:
    def test_signs_alternate(self):
        for n, alpha in ((6, -0.4), (15, 0.0), (30, 1.5)):
            xi = bary_weights_gg(gg_rule(n, GegenbauerParam(alpha))).xi
            assert np.all(xi[:-1] * xi[1:] < 0)

    def test_symmetric_magnitudes(self):
        xi = bary_weights_gg(gg_rule(12, GegenbauerParam(0.3))).xi
        assert_allclose(np.abs(xi), np.abs(xi)[::-1], atol=1e-13)

    def test_frozen_two_point_value(self):
        # sin(arccos(1/sqrt(3))) = sqrt(2/3) and both weights are 1
        xi = bary_weights_gg(gg_rule(1, GegenbauerParam(0.5))).xi
        assert_allclose(xi, [math.sqrt(2 / 3), -math.sqrt(2 / 3)], rtol=1e-15)


class TestBasisInvariants:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            BarycentricBasis(nodes=np.array([0.0, 1.0]), xi=np.array([1.0, 0.0]))

    def test_unsorted_nodes_rejected(self):
        with pytest.raises(ValueError):
            BarycentricBasis(nodes=np.array([1.0, 0.0]), xi=np.array([1.0, -1.0]))

    def test_non_alternating_weights_rejected(self):
        with pytest.raises(ValueError):
            BarycentricBasis(nodes=np.array([0.0, 0.5, 1.0]), xi=np.array([1.0, -1.0, -2.0]))


class TestEval:
    def test_exact_hit_returns_sample(self):
        rule = gg_rule(5, GegenbauerParam(0.5))
        basis = bary_weights_gg(rule)
        values = np.sin(rule.nodes)
        for i in range(6):
            assert bary_eval(basis, values, rule.nodes[i]) == values[i]

    def test_wide_tolerance_takes_nearest_node_lower_on_tie(self):
        rule = gg_rule(3, GegenbauerParam(0.5))
        x, basis = rule.nodes, bary_weights_gg(rule)
        values = np.array([10.0, 11.0, 12.0, 13.0])
        # both points lie within the tolerance of x[1] and x[2]; 0 is equidistant
        got = bary_eval(basis, values, [0.5 * x[1], 0.0, 0.5 * x[2]], exact_hit_tol=2.0 * x[2])
        assert got.tolist() == [11.0, 11.0, 12.0]

    @pytest.mark.parametrize("tol", [-1.0, math.nan, 0.0])
    def test_non_positive_hit_tolerance_rejected(self, tol):
        # a negative or NaN tolerance would divide by zero at a node and return nan
        rule = gg_rule(5, GegenbauerParam(0.5))
        basis = bary_weights_gg(rule)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            bary_eval(basis, np.sin(rule.nodes), rule.nodes[2], exact_hit_tol=tol)

    def test_infinite_hit_tolerance_rejected(self):
        # every point would be a hit, and the interpolant a nearest-node lookup
        rule = gg_rule(5, GegenbauerParam(0.5))
        basis = bary_weights_gg(rule)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            bary_eval(basis, np.sin(rule.nodes), 0.3, exact_hit_tol=math.inf)

    def test_constant_reproduced_anywhere(self, rng):
        basis = bary_weights_gg(gg_rule(9, GegenbauerParam(1.0)))
        values = np.full(10, 3.75)
        for x in rng.uniform(-1, 1, 25):
            assert bary_eval(basis, values, x) == pytest.approx(3.75, rel=1e-15)

    def test_quadratic_on_three_nodes(self):
        rule = gg_rule(2, GegenbauerParam(0.5))
        basis = bary_weights_gg(rule)
        assert bary_eval(basis, rule.nodes ** 2, 0.3) == pytest.approx(0.09, abs=1e-15)

    def test_partition_of_unity(self, rng):
        for n in (4, 17, 60):
            basis = bary_weights_gg(gg_rule(n, GegenbauerParam(0.25)))
            x = rng.uniform(-1, 1, 1000)
            vals = bary_eval(basis, np.ones(n + 1), x)
            assert np.max(np.abs(vals - 1.0)) <= 2e-15

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_polynomial_reproduction(self, n, rng):
        rule = gg_rule(n, GegenbauerParam(0.1))
        basis = bary_weights_gg(rule)
        coeffs = rng.uniform(-1, 1, n + 1)
        poly = np.polynomial.polynomial.Polynomial(coeffs)
        x = rng.uniform(-1, 1, 50)
        assert_allclose(bary_eval(basis, poly(rule.nodes), x), poly(x),
                        rtol=1e-12, atol=1e-12)

    def test_scale_invariance_of_values(self, rng):
        rule = gg_rule(8, GegenbauerParam(0.5))
        basis = bary_weights_gg(rule)
        scaled = BarycentricBasis(nodes=basis.nodes, xi=3.7e5 * basis.xi)
        values = np.cos(rule.nodes)
        x = rng.uniform(-1, 1, 40)
        assert_allclose(bary_eval(basis, values, x), bary_eval(scaled, values, x),
                        rtol=1e-15)

    @pytest.mark.parametrize("n", [2, 8, 20])
    def test_direct_equals_stable_evaluation(self, n, rng):
        rule = gg_rule(n, GegenbauerParam(0.6))
        direct = bary_weights_direct(rule.nodes)
        stable = bary_weights_gg(rule)
        values = np.exp(rule.nodes)
        x = rng.uniform(-1, 1, 30)
        assert_allclose(bary_eval(direct, values, x), bary_eval(stable, values, x),
                        rtol=1e-12, atol=1e-12)

    def test_length_mismatch_rejected(self):
        basis = bary_weights_gg(gg_rule(4, GegenbauerParam(0.5)))
        with pytest.raises(ValueError):
            bary_eval(basis, np.ones(4), 0.2)
