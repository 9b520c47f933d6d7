"""Tests for integration-matrix construction and application."""

import contextlib
import csv
import io
import math
import sys
import threading
import tracemalloc
import warnings
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from baryquad import (SQUARE_VARIANTS, CollisionError, ConvergenceError, FeasibilityReport,
                      GegenbauerParam, IntegrationMatrix, OptimalConfig, apply_quadrature,
                      build_basis_gim, build_gim_arbitrary, build_gim_gg, build_optimal_gim,
                      check_gg_condition, cli, gg_rule, gim, map_to_unit, lg_rule, matrix_to_csv,
                      optimal, qth_order_gim, rules)
from baryquad.barycentric import BarycentricBasis, _gauss_xi, bary_weights_gg, lagrange_matrix
from baryquad.gim import _build_rows, _collisions, _lg_count_default
from baryquad.polynomials import EPS_MACH, _integration_relation, _running_integral, _terms


def running_monomial_integral(targets, p):
    # integral of t^p over [-1, x]
    targets = np.asarray(targets)
    return (targets ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)


def iterated_monomial_integral(targets, p):
    # integral of (x - t) t^p over [-1, x]
    x = np.asarray(targets)
    return (x * (x ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
            - (x ** (p + 2) - (-1.0) ** (p + 2)) / (p + 2))


def _legendre_error(matrix):
    """Largest error of a square matrix on P_0 ... P_n, independent of lagrange_matrix.

    The integral of P_p over [-1, x] is (P_{p+1}(x) - P_{p-1}(x)) / (2p + 1),
    with P_{-1} = -1.
    """
    x, n = matrix.target_nodes, matrix.source_nodes.size - 1
    up = np.polynomial.legendre.legvander(x, n + 1)
    down = np.hstack([-np.ones((x.size, 1)), up[:, :n]])
    exact = (up[:, 1:] - down) / (2 * np.arange(n + 1) + 1)
    got = matrix.entries @ np.polynomial.legendre.legvander(matrix.source_nodes, n)
    return np.max(np.abs(got - exact))


class TestFeasibility:
    def test_known_infeasible_pair(self):
        report = check_gg_condition(4, GegenbauerParam(1.0))
        assert not report.feasible and not report
        assert (1, 2, 1) in report.violations  # node -1/2 hit by the mapped zero

    def test_known_feasible_pair(self):
        report = check_gg_condition(10, GegenbauerParam(0.5))
        assert report.feasible and report

    def test_degree_one_always_feasible(self):
        for alpha in (-0.4, 0.0, 0.5, 1.0, 2.0):
            report = check_gg_condition(1, GegenbauerParam(alpha))
            assert report.feasible and report.violations == ()

    def test_a_sequence_gives_the_report_of_each_parameter(self):
        # n = 1..100 on the 0.05 grid, one call per degree as feasibility makes it, and a
        # wide tolerance
        params = [GegenbauerParam(k / 20) for k in range(-8, 41)]
        for n in range(1, 101):
            assert check_gg_condition(n, params) == [check_gg_condition(n, p) for p in params], n
        wide = [GegenbauerParam(2.0), GegenbauerParam(0.5)]
        reports = check_gg_condition(8, wide, 1e-4)
        assert reports == [check_gg_condition(8, p, 1e-4) for p in wide] and not reports[0]

    @pytest.mark.parametrize("kind", [list, tuple, iter])
    def test_any_sequence_takes_one_node_batch(self, monkeypatch, kind):
        monkeypatch.setattr(rules, "_RULES", OrderedDict())
        batches, node_batch = [], rules._node_batch

        def counted(n, alphas):
            batches.append((n, tuple(alphas)))
            return node_batch(n, alphas)

        monkeypatch.setattr(rules, "_node_batch", counted)
        reports = check_gg_condition(16, kind(GegenbauerParam(a) for a in (0.5, 1.0, 1.5)))
        assert [report.feasible for report in reports] == [True, False, True]
        assert batches == [(16, (0.5, 1.0, 1.5)), (8, (0.5,))]  # the Gegenbauer nodes, then the Legendre
        # one parameter still gives one report, from the cached nodes
        assert isinstance(check_gg_condition(16, GegenbauerParam(0.5)), FeasibilityReport)
        assert len(batches) == 2

    def test_epsilon_must_be_positive(self):
        for epsilon in (0.0, -1.0, -1e-15, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                check_gg_condition(5, GegenbauerParam(0.5), epsilon=epsilon)
            with pytest.raises(ValueError, match="epsilon must be positive"):
                build_gim_gg(5, GegenbauerParam(0.5), epsilon=epsilon)


def dense_gg_violations(n, param, epsilon):
    """The paper's ratio condition: every (i, j, k) triple at once in an (n+1)^2 (n/2+1) array."""
    x = gg_rule(n, param).nodes
    y = lg_rule(n // 2).nodes
    lhs = np.abs(1.0 + y[None, None, :] - 2.0 * (1.0 + x[:, None, None]) / (1.0 + x[None, :, None]))
    return tuple((int(i), int(j), int(k)) for i, j, k in np.argwhere(lhs <= epsilon))


def dense_mapped_violations(n, param, epsilon):
    """The builders' rule: every (i, j, k) with |y_jk - x_i| <= epsilon in one dense array."""
    x = gg_rule(n, param).nodes
    mapped = 0.5 * ((x[:, None] + 1.0) * lg_rule(n // 2).nodes + x[:, None] - 1.0)
    lhs = np.abs(mapped[None, :, :] - x[:, None, None])
    return tuple((int(i), int(j), int(k)) for i, j, k in np.argwhere(lhs <= epsilon))


#: the degrees and parameters of the dense-oracle comparisons
ORACLE_GRID = [(n, alpha) for n in range(61) for alpha in (-0.4, 0.0, 0.5, 1.0, 1.7)]


class TestFeasibilityMatchesDenseOracle:
    @pytest.mark.parametrize("epsilon", [EPS_MACH, 1e-6, 1e-2])
    def test_same_violations_in_same_order(self, epsilon):
        # epsilon = 1e-2 gives runs of several k per (i, j) pair
        for n, alpha in ORACLE_GRID:
            param = GegenbauerParam(alpha)
            report = check_gg_condition(n, param, epsilon)
            want = dense_mapped_violations(n, param, epsilon)
            assert report.violations == want, (n, alpha)
            assert report.feasible == (not want)

    @pytest.mark.parametrize("epsilon", [EPS_MACH, 1e-12])
    def test_paper_ratio_condition_where_the_rules_agree(self, epsilon):
        # the ratio's gap is 2 / (1 + x_j) times the mapped point's, so the two rules
        # part at larger epsilon; near machine precision they flag the same triples
        for n, alpha in ORACLE_GRID:
            param = GegenbauerParam(alpha)
            want = dense_gg_violations(n, param, epsilon)
            assert check_gg_condition(n, param, epsilon).violations == want, (n, alpha)

    @pytest.mark.parametrize("epsilon", [EPS_MACH, 1e-12, 1e-6, 1e-2])
    def test_verdict_is_the_build(self, epsilon):
        # feasible exactly when build_gim_gg builds, which raises at the first
        # violation in (j, k, i) order
        for n, alpha in ORACLE_GRID:
            param = GegenbauerParam(alpha)
            report = check_gg_condition(n, param, epsilon)
            try:
                build_gim_gg(n, param, epsilon)
            except CollisionError as err:
                assert not report.feasible, (n, alpha)
                first = min(report.violations, key=lambda t: (t[1], t[2], t[0]))
                assert (err.i, err.j, err.k) == first, (n, alpha)
            else:
                assert report.feasible, (n, alpha)

    def test_large_degree_memory_is_quadratic(self):
        # testing all (i, j, k) triples at once peaks near 2 GiB at this size
        tracemalloc.start()
        try:
            report = check_gg_condition(640, GegenbauerParam(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.violations == ((213, 320, 160),)
        assert peak < 64 * 2 ** 20


@pytest.fixture
def screens(monkeypatch):
    """The target count of each _collisions call that the builders and the check make."""
    calls = []

    def counted(targets, *args):
        calls.append(targets.size)
        return _collisions(targets, *args)

    monkeypatch.setattr(gim, "_collisions", counted)
    monkeypatch.setattr(optimal, "_collisions", counted)
    return calls


class TestValuesOnlyScreen:
    # the check screens the nodes of rules._nodes, the builders' own, at epsilon: it takes no
    # weights, screens each pair once, and raises where a builder would
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 120), alpha=st.floats(-0.5, 2.0, exclude_min=True),
           epsilon=st.sampled_from([EPS_MACH, 1e-12, 1e-6]))
    def test_same_violations_as_the_dense_oracle(self, n, alpha, epsilon):
        param = GegenbauerParam(alpha)
        try:
            want = dense_mapped_violations(n, param, epsilon)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                check_gg_condition(n, param, epsilon)
            return
        report = check_gg_condition(n, param, epsilon)
        assert report.violations == want and report.feasible == (not want)

    def test_a_clear_pair_builds_no_rule(self, monkeypatch):
        monkeypatch.setattr(rules, "_RULES", OrderedDict())
        assert check_gg_condition(10, GegenbauerParam(0.5)).feasible
        assert check_gg_condition(640, GegenbauerParam(0.5)).feasible
        assert check_gg_condition(4, GegenbauerParam(1.0)).violations == ((1, 2, 1),)
        assert list(rules._RULES) == [(10, 0.5), (5, 0.5), (640, 0.5), (320, 0.5), (4, 1.0), (2, 0.5)]
        assert all(weights is None for _, weights in rules._RULES.values())
        nodes = build_gim_gg(10, GegenbauerParam(0.5)).source_nodes
        assert np.shares_memory(nodes, rules._RULES[10, 0.5][0])

    def test_a_hit_is_screened_once(self, screens):
        assert check_gg_condition(640, GegenbauerParam(1.0)).violations == ((213, 320, 160),)
        assert screens == [641]

    @pytest.mark.parametrize("variant, n, alpha, count", [
        ("plain", 16, 1.0, 1), ("plain", 10, 0.5, 1),
        ("guarded", 16, 1.0, 1), ("guarded", 10, 0.5, 1),
        # the bumped variant screens its larger rule only after a hit
        ("bumped", 16, 1.0, 2), ("bumped", 10, 0.5, 1)])
    def test_each_square_builder_screens_once_per_rule(self, variant, n, alpha, count, screens):
        try:
            build_gim_gg(n, GegenbauerParam(alpha), variant=variant)
        except CollisionError:
            assert variant == "plain"
        assert screens == [n + 1] * count

    def test_the_other_builders_screen_once(self, screens):
        targets = np.linspace(-0.9, 1.0, 7)
        build_gim_arbitrary(targets, 10, GegenbauerParam(0.5))
        build_optimal_gim(targets, OptimalConfig(m=10))
        with pytest.raises(CollisionError):
            build_gim_arbitrary(gg_rule(4, GegenbauerParam(1.0)).nodes, 4, GegenbauerParam(1.0))
        assert screens == [7, 7, 5]

    @pytest.mark.parametrize("case", ["plain", "bumped", "arbitrary", "optimal"])
    def test_a_collision_error_carries_the_first_triple(self, case):
        # each builder raises the first hit of its one screen, with its own message
        detail = "mapped Legendre point coincides with a source node"
        if case in ("plain", "bumped"):
            # at epsilon = 0.01 the bumped variant's larger rule collides too
            n, epsilon = 4, 1e-2
            nodes = gg_rule(n, GegenbauerParam(1.0)).nodes
            count = _lg_count_default(n) + (case == "bumped")
            first = _collisions(nodes, nodes, lg_rule(count).nodes, epsilon)[1][0]
            call = lambda: build_gim_gg(n, GegenbauerParam(1.0), epsilon, case)
        elif case == "arbitrary":
            targets = np.array([-0.3, 0.25, 0.7])
            nodes = gg_rule(6, GegenbauerParam(0.5)).nodes
            first = _collisions(targets, nodes, lg_rule(_lg_count_default(6)).nodes, 2e-2)[1][0]
            call = lambda: build_gim_arbitrary(targets, 6, GegenbauerParam(0.5), 2e-2)
        else:
            detail = "mapped Legendre point coincides with an adjoint node"
            # above m_max every row takes the adjoint rule of alpha_a = 0 at m = 21
            targets = np.array([0.3, -0.9548796876054403])
            nodes = np.tile(gg_rule(21, GegenbauerParam(0.0)).nodes, (2, 1))
            first = _collisions(targets, nodes, lg_rule(_lg_count_default(21)).nodes, EPS_MACH)[1][0]
            assert first == (0, 1, 1)
            call = lambda: build_optimal_gim(targets, OptimalConfig(m=21))
        with pytest.raises(CollisionError) as err:
            call()
        assert (err.value.i, err.value.j, err.value.k) == first
        assert str(err.value) == "node collision at (i={}, j={}, k={}): {}".format(*first, detail)

    def test_rules_outside_the_range_still_raise(self):
        with pytest.raises(ConvergenceError, match="n=640, alpha=10.0"):
            check_gg_condition(640, GegenbauerParam(10.0))
        # within 1e-12 of -1/2 the end nodes round onto +-1
        with pytest.raises(ConvergenceError, match="n=640, alpha=-0.499999999999: nodes not ordered"):
            check_gg_condition(640, GegenbauerParam(-0.5 + 1e-12))
        for variant in SQUARE_VARIANTS:
            for alpha in (10.0, 30.0, -0.5 + 1e-12):
                with pytest.raises(ConvergenceError):
                    build_gim_gg(640, GegenbauerParam(alpha), variant=variant)


class TestFeasibilityScanReproducibility:
    def test_grid_failures_confined_to_alpha_one(self):
        # scan n = 1..100, alpha = -0.4(0.1)1; on this platform every
        # failure sits at alpha = 1 on the degrees 4, 16, ..., 100
        failures = []
        for n in range(1, 101):
            for k in range(-4, 11):
                alpha = round(0.1 * k, 10)
                if not check_gg_condition(n, GegenbauerParam(alpha)).feasible:
                    failures.append((n, alpha))
        assert all(alpha == 1.0 for _, alpha in failures)
        assert (4, 1.0) in failures
        assert set(n for n, _ in failures) <= set(range(4, 101, 12))


class TestSquareBuild:
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 2.0])
    def test_constant_and_linear_rows(self, alpha):
        m = build_gim_gg(9, GegenbauerParam(alpha))
        x = m.target_nodes
        assert_allclose(apply_quadrature(m, np.ones(10)), x + 1.0, atol=1e-13)
        assert_allclose(apply_quadrature(m, x), (x ** 2 - 1.0) / 2.0, atol=1e-13)

    def test_two_point_closed_form(self):
        # hand-integrated linear cardinal functions on nodes +-1/sqrt(3)
        m = build_gim_gg(1, GegenbauerParam(0.5))
        x0, x1 = m.source_nodes

        def l0_integral(x):
            return (x ** 2 / 2 - x1 * x - (0.5 + x1)) / (x0 - x1)

        def l1_integral(x):
            return (x ** 2 / 2 - x0 * x - (0.5 + x0)) / (x1 - x0)

        expect = np.array([[l0_integral(x0), l1_integral(x0)],
                           [l0_integral(x1), l1_integral(x1)]])
        assert_allclose(m.entries, expect, atol=1e-15)

    def test_infeasible_pair_raises_with_indices(self):
        with pytest.raises(CollisionError) as err:
            build_gim_gg(4, GegenbauerParam(1.0))
        assert (err.value.i, err.value.j, err.value.k) == (1, 2, 1)


#: largest |entry| change of the reflected square matrix against the full kernel, for
#: n <= 641 and alpha in [-0.4, 2]; the worst measured is 7.1e-14 (n = 640, alpha = 2)
REFLECTION_ATOL = 2e-13


class TestReflectedSquare:
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.5, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 11, 80, 81, 160, 161, 640, 641])
    def test_matches_full_kernel(self, n, alpha):
        param = GegenbauerParam(alpha)
        square = build_gim_gg(n, param)
        full = build_gim_arbitrary(gg_rule(n, param).nodes, n, param)
        assert np.max(np.abs(square.entries - full.entries)) <= REFLECTION_ATOL
        # on the feasible set the three square variants return the same bits
        assert np.array_equal(build_gim_gg(n, param, variant="guarded").entries, square.entries)
        assert np.array_equal(build_gim_gg(n, param, variant="bumped").entries, square.entries)

    @pytest.mark.parametrize("n, alpha, epsilon, triple", [
        (4, 1.0, EPS_MACH, (1, 2, 1)), (16, 1.0, EPS_MACH, (5, 8, 4)),
        (160, 1.0, EPS_MACH, (53, 80, 40)),
        # only the target x_7 > 0 has a hit: the screen of every target finds it
        (8, 2.0, 1e-4, (0, 7, 0))])
    def test_infeasible_pairs_guard_then_reflect(self, n, alpha, epsilon, triple):
        # the first hit in (j, k, i) order, as before any row is reflected
        param = GegenbauerParam(alpha)
        with pytest.raises(CollisionError) as err:
            build_gim_gg(n, param, epsilon)
        assert (err.value.i, err.value.j, err.value.k) == triple
        # the guarded variant integrates the rows j <= (n + 1) // 2, a row with a hit through the
        # cardinal table, and reflects the others; at the default epsilon that moves them at the
        # rounding level against building every row (measured at most 2.4e-15)
        guarded = build_gim_gg(n, param, epsilon, variant="guarded").entries
        want, _, every_row = _guarded_oracle(n, alpha, epsilon)
        assert np.array_equal(guarded, want)
        if epsilon == EPS_MACH:
            assert np.max(np.abs(guarded - every_row)) <= REFLECTION_ATOL

    @pytest.mark.parametrize("n, alpha, epsilon", [(4, 1.0, EPS_MACH), (16, 1.0, EPS_MACH),
                                                   (160, 1.0, EPS_MACH), (8, 2.0, 1e-4)])
    def test_infeasible_pairs_bump_then_reflect(self, n, alpha, epsilon):
        # the bumped variant is the plain body with n // 2 + 2 Legendre points: the kernel
        # builds the rows j <= (n + 1) // 2 and the others follow by reflection
        nodes, basis, _ = _kernel_inputs(n, alpha)
        lg = lg_rule(_lg_count_default(n) + 1)
        expected = _reflected(_screened_rows(nodes[:(n + 1) // 2 + 1], basis.nodes, basis.xi, lg, epsilon))
        bumped = build_gim_gg(n, GegenbauerParam(alpha), epsilon, variant="bumped").entries
        assert np.array_equal(bumped, expected)
        every_row = _screened_rows(nodes, basis.nodes, basis.xi, lg, epsilon)
        assert np.max(np.abs(bumped - every_row)) <= REFLECTION_ATOL

    @pytest.mark.parametrize("n, alpha, epsilon", [(9, -0.27, 2e-4), (17, -0.11, 1e-5),
                                                   (47, -0.13, 7e-7)])
    def test_odd_n_screens_only_the_gauss_targets(self, n, alpha, epsilon):
        # at these pairs a target 1 would hit, but only the Gauss targets are screened: the
        # reflection's E is the middle pair Q[(n-1)/2] + Q[(n+1)/2, ::-1], so epsilon
        # changes nothing and every builder reflects
        param = GegenbauerParam(alpha)
        nodes, basis, lg = _kernel_inputs(n, alpha)
        assert _collisions(nodes, basis.nodes, lg.nodes, epsilon)[1] == []
        assert {j for _, j, _ in _collisions(np.array([1.0]), basis.nodes, lg.nodes, epsilon)[1]} == {0}
        square = build_gim_gg(n, param, epsilon).entries
        for variant in ("guarded", "bumped"):
            assert np.array_equal(build_gim_gg(n, param, epsilon, variant).entries, square)
        assert np.array_equal(build_gim_gg(n, param).entries, square)
        full = _screened_rows(nodes, basis.nodes, basis.xi, lg, EPS_MACH)
        assert np.max(np.abs(square - full)) <= REFLECTION_ATOL

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 400), alpha=st.floats(-0.45, 2.0), data=st.data())
    def test_reflection_identity_on_full_kernel(self, n, alpha, data):
        # Q[j, i] + Q[n-j, n-i] = E_i, every row from the full kernel
        j = data.draw(st.integers(0, n), label="j")
        param = GegenbauerParam(alpha)
        x = gg_rule(n, param).nodes
        try:
            rows = build_gim_arbitrary([x[j], x[n - j], 1.0], n, param).entries
        except CollisionError:
            reject()
        # rounding that grows with n: over every n <= 400 at ten alpha in [-0.45, 2], the
        # worst residual over j is at most 5.23 (n + 1) eps (1.91e-13 at n = 384, alpha = 2)
        assert np.max(np.abs(rows[0] + rows[1, ::-1] - rows[2])) <= 12 * (n + 1) * EPS_MACH


class TestGuardedAndBumped:
    def test_guarded_equals_plain_when_feasible(self):
        plain = build_gim_gg(10, GegenbauerParam(0.0))
        guarded = build_gim_gg(10, GegenbauerParam(0.0), variant="guarded")
        assert_allclose(guarded.entries, plain.entries, atol=1e-14)

    def test_guarded_succeeds_on_infeasible_pair(self):
        m = build_gim_gg(4, GegenbauerParam(1.0), variant="guarded")
        x = m.target_nodes
        assert_allclose(apply_quadrature(m, np.ones(5)), x + 1.0, atol=1e-13)

    def test_bumped_equals_plain_when_feasible(self):
        plain = build_gim_gg(10, GegenbauerParam(0.5))
        bumped = build_gim_gg(10, GegenbauerParam(0.5), variant="bumped")
        assert_allclose(bumped.entries, plain.entries, atol=1e-13)

    def test_bumped_succeeds_on_infeasible_pair(self):
        m = build_gim_gg(4, GegenbauerParam(1.0), variant="bumped")
        x = m.target_nodes
        for p in range(5):
            assert_allclose(apply_quadrature(m, x ** p),
                            running_monomial_integral(x, p), atol=1e-13)

    @pytest.mark.parametrize("epsilon", [1e-3, 2e-2])
    def test_guarded_rows_with_double_hits_integrate_constants(self, epsilon):
        # at 2e-2 many mapped points lie within epsilon of two nodes; each
        # must count once, at its nearest node
        param = GegenbauerParam(0.3)
        targets, basis, lg = _kernel_inputs(30, 0.3)
        mapped = 0.5 * ((targets[:, None] + 1.0) * lg.nodes + targets[:, None] - 1.0)
        double = (np.abs(mapped[:, :, None] - basis.nodes) <= epsilon).sum(axis=2) >= 2
        assert double.any() == (epsilon == 2e-2)
        m = build_gim_gg(30, param, epsilon=epsilon, variant="guarded")
        assert_allclose(m.entries.sum(axis=1), m.target_nodes + 1.0, rtol=0.0, atol=1e-13)

    def test_double_hit_takes_nearest_node_lower_on_tie(self):
        # four nodes symmetric about 0: 0 is exactly as far from x[1] as from x[2]
        basis = bary_weights_gg(gg_rule(3, GegenbauerParam(0.5)))
        x = basis.nodes
        points = np.array([0.5 * x[2], 0.0])
        table = lagrange_matrix(basis, points, exact_hit_tol=2.0 * x[2])
        assert np.array_equal(table, np.eye(4)[[2, 1]])

    @pytest.mark.parametrize("n", [4, 16, 52, 160, 640])
    def test_guarded_rows_integrate_legendre_polynomials(self, n):
        # measured at most 5.5e-15
        m = build_gim_gg(n, GegenbauerParam(1.0), variant="guarded")
        assert not check_gg_condition(n, GegenbauerParam(1.0)).feasible
        assert _legendre_error(m) <= 1e-14

    def test_a_hit_in_a_reflected_row_leaves_the_kernel_rows(self):
        # at (8, 2.0, 1e-4) only the target x_7 > 0 has a hit, and its row is reflected, so no
        # row takes the cardinal table's O(epsilon) error (1.2e-4 when every row was built)
        _, hit, _ = _guarded_oracle(8, 2.0, 1e-4)
        assert np.flatnonzero(hit).tolist() == [7]
        assert _legendre_error(build_gim_gg(8, GegenbauerParam(2.0), 1e-4, variant="guarded")) <= 1e-14

    def test_guarded_matches_bumped_polynomials_at_collision(self):
        guarded = build_gim_gg(4, GegenbauerParam(1.0), variant="guarded")
        bumped = build_gim_gg(4, GegenbauerParam(1.0), variant="bumped")
        x = guarded.target_nodes
        for p in range(5):
            assert_allclose(apply_quadrature(guarded, x ** p),
                            apply_quadrature(bumped, x ** p), atol=1e-13)


class TestSquareVariants:
    """One vocabulary: the square builder's variants are the words of ``gim --variant``."""

    @pytest.mark.parametrize("variant", ["raise", "bump", "basis", ""])
    def test_an_unknown_variant_is_refused_before_any_rule(self, monkeypatch, variant):
        monkeypatch.setattr(rules, "_RULES", OrderedDict())
        with pytest.raises(ValueError, match="^variant must be one of plain, guarded, bumped, got "):
            build_gim_gg(4, GegenbauerParam(0.5), variant=variant)
        assert not rules._RULES

    def test_the_cli_offers_the_variants_and_basis(self):
        commands = next(action for action in cli.build_parser()._actions if action.dest == "command")
        variant = next(action for action in commands.choices["gim"]._actions if action.dest == "variant")
        assert SQUARE_VARIANTS == ("plain", "guarded", "bumped")
        assert list(variant.choices) == [*SQUARE_VARIANTS, "basis"]

    def test_the_one_policy_builders_are_gone(self):
        with pytest.raises(ImportError):
            from baryquad import build_gim_gg_guarded  # noqa: F401
        with pytest.raises(ImportError):
            from baryquad import build_gim_gg_bumped  # noqa: F401


class TestEndpointRow:
    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 4, 5, 9, 16])
    def test_integrates_monomials_over_full_interval(self, n, alpha):
        row = build_gim_arbitrary(1.0, n, GegenbauerParam(alpha)).entries[0]
        nodes = gg_rule(n, GegenbauerParam(alpha)).nodes
        for p in range(n + 1):
            exact = 0.0 if p % 2 == 1 else 2.0 / (p + 1)
            assert row @ nodes ** p == pytest.approx(exact, abs=1e-13)

    def test_ones_give_interval_length(self):
        row = build_gim_arbitrary(1.0, 8, GegenbauerParam(0.7)).entries[0]
        assert row @ np.ones(9) == pytest.approx(2.0, abs=1e-14)

    def test_odd_integrand_vanishes(self):
        row = build_gim_arbitrary(1.0, 7, GegenbauerParam(0.3)).entries[0]
        nodes = gg_rule(7, GegenbauerParam(0.3)).nodes
        assert row @ nodes == pytest.approx(0.0, abs=1e-14)

    def test_parity_bump_case_n4(self):
        # without enlarging the Legendre rule, the shared zero node makes
        # this overflow; exactness shows the bump happened
        row = build_gim_arbitrary(1.0, 4, GegenbauerParam(0.9)).entries[0]
        nodes = gg_rule(4, GegenbauerParam(0.9)).nodes
        assert np.all(np.isfinite(row))
        assert row @ nodes ** 4 == pytest.approx(2.0 / 5.0, abs=1e-14)

    def test_equals_arbitrary_build_with_endpoint_target(self):
        # the scalar target 1, as the solvers pass it, and a one-element array give one row
        for n in (4, 7, 10, 80):
            row = build_gim_arbitrary(1.0, n, GegenbauerParam(0.2)).entries[0]
            m = build_gim_arbitrary(np.array([1.0]), n, GegenbauerParam(0.2))
            assert np.array_equal(m.entries[0], row)


class TestArbitraryTargets:
    def test_gg_targets_recover_square_matrix(self):
        # the rows up to the middle row or middle pair come from the same kernel; the others
        # by reflection
        param = GegenbauerParam(0.4)
        for n in (8, 9):
            square = build_gim_gg(n, param)
            arb = build_gim_arbitrary(square.target_nodes, n, param)
            kept = (n + 1) // 2 + 1
            assert np.array_equal(arb.entries[:kept], square.entries[:kept])
            assert_allclose(arb.entries, square.entries, rtol=0.0, atol=1e-15)

    def test_ones_law_on_random_targets(self, rng):
        targets = np.sort(rng.uniform(-1, 1, 13))
        m = build_gim_arbitrary(targets, 9, GegenbauerParam(0.5))
        assert_allclose(apply_quadrature(m, np.ones(10)), targets + 1.0, atol=1e-13)

    def test_left_endpoint_target_gives_zero_row(self):
        m = build_gim_arbitrary(np.array([-1.0, 0.2]), 6, GegenbauerParam(0.5))
        assert_allclose(m.entries[0], 0.0, atol=0.0)

    @pytest.mark.parametrize("n", [4, 8])
    def test_target_just_below_one_gets_endpoint_bump(self, n):
        # (x - 1) / 2 for this x lies within epsilon of the zero Gauss node
        param = GegenbauerParam(0.5)
        below = build_gim_arbitrary([np.nextafter(1.0, 0.0)], n, param)
        at_one = build_gim_arbitrary([1.0], n, param)
        assert_allclose(below.entries, at_one.entries, rtol=0.0, atol=1e-14)

    #: largest change of a row when the target 1 joins the call: measured 2.3e-14 over
    #: n = 4..200 with n % 4 = 0 at alpha in {-0.4, -0.2, 0, 0.5, 1, 1.5, 2} (at n = 192, alpha = 2)
    @pytest.mark.parametrize("n, alpha", [(4, 0.5), (130, 2.0), (132, 2.0), (192, 2.0)])
    def test_the_target_one_bumps_the_whole_call(self, n, alpha):
        # the endpoint bump takes one more Legendre point for every row of the call, so a
        # row's bits depend on whether 1 is among the other targets; for n % 4 = 2 there is no bump
        param = GegenbauerParam(alpha)
        x = gg_rule(n, param).nodes
        alone = build_gim_arbitrary(x, n, param).entries
        joined = build_gim_arbitrary(np.append(x, 1.0), n, param).entries[:-1]
        assert np.array_equal(alone, joined) == (n % 4 == 2)
        assert np.max(np.abs(alone - joined)) <= 5e-14

    def test_collision_raises(self):
        with pytest.raises(CollisionError):
            build_gim_arbitrary(gg_rule(4, GegenbauerParam(1.0)).nodes, 4, GegenbauerParam(1.0))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 400), alpha=st.floats(-0.45, 2.0),
           targets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
    def test_rows_integrate_a_fixed_family_exactly(self, n, alpha, targets):
        # each row applied to G_k (alpha = 1/2), k <= n, against its running integral
        # (_running_integral), relative to max |G_k| at the nodes; over every n <= 400 at 14
        # alpha in [-0.45, 2], each with 1 to 8 random targets, the error was at most
        # 1.92 (n + 1) eps (largest 2.5e-14, at n = 302)
        param = GegenbauerParam(alpha)
        try:
            m = build_gim_arbitrary(targets, n, param)
        except CollisionError:
            reject()
        g, _ = _running_integral_table(n, 0.5, gg_rule(n, param).nodes)
        _, want = _running_integral_table(n, 0.5, m.target_nodes)
        err = np.abs(m.entries @ g.T - want.T) / np.max(np.abs(g), axis=1)
        assert np.max(err) <= 8 * (n + 1) * EPS_MACH

    def test_targets_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            build_gim_arbitrary(np.array([0.0, 1.1]), 5, GegenbauerParam(0.5))

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            build_gim_arbitrary(np.array([0.0, np.nan]), 5, GegenbauerParam(0.5))

    def test_empty_target_set_rejected(self):
        with pytest.raises(ValueError, match="target set must be non-empty"):
            build_gim_arbitrary(np.array([]), 5, GegenbauerParam(0.5))


class TestHigherOrder:
    def test_orders_up_to_171_keep_their_bits(self):
        # (q - 1)! is a double up to q = 171, where the entries reach 1.7e-316; from q = 172
        # on it is not, and the order is refused instead of overflowing
        m = build_gim_gg(4, GegenbauerParam(0.5))
        diff = m.target_nodes[:, None] - m.source_nodes
        for q in (2, 3, 24, 170, 171):
            want = diff ** (q - 1) / math.factorial(q - 1) * m.entries
            assert np.array_equal(qth_order_gim(m, q).entries, want), q
        assert np.all(np.isfinite(qth_order_gim(m, 171).entries))
        for q in (172, 300):
            with pytest.raises(ValueError, match=f"order must be at most 171, got {q}"):
                qth_order_gim(m, q)

    def test_first_order_is_identity_transform(self):
        m = build_gim_gg(6, GegenbauerParam(0.5))
        assert qth_order_gim(m, 1) is m

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_second_order_matches_iterated_integral(self, alpha, rng):
        for n in (5, 12, 20):
            m = qth_order_gim(build_gim_gg(n, GegenbauerParam(alpha)), 2)
            x = m.target_nodes
            coeffs = rng.uniform(-1, 1, n)  # degree n-1
            samples = np.polynomial.polynomial.polyval(x, coeffs)
            exact = sum(c * iterated_monomial_integral(x, p) for p, c in enumerate(coeffs))
            assert_allclose(apply_quadrature(m, samples), exact, atol=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 100), alpha=st.floats(-0.45, 2.0))
    def test_second_order_integrates_a_fixed_family_exactly(self, n, alpha):
        # Q2 applied to G_k (alpha = 1/2), k <= n - 1, against the iterated running integral,
        # relative to max |G_k| at the nodes; over every n <= 100 at 44 alpha in [-0.45, 2]
        # the error was at most 2.03 (n + 1) eps (largest 2.0e-14, at n = 95)
        try:
            m = qth_order_gim(build_gim_gg(n, GegenbauerParam(alpha), variant="bumped"), 2)
        except CollisionError:
            reject()
        g, _ = _running_integral_table(n, 0.5, m.target_nodes)
        want = _iterated_integral_table(n, m.target_nodes)
        err = np.abs(m.entries @ g[:n].T - want.T) / np.max(np.abs(g[:n]), axis=1)
        assert np.max(err) <= 8 * (n + 1) * EPS_MACH

    def test_unit_interval_divides_by_two_per_order(self):
        first = build_gim_gg(7, GegenbauerParam(0.3))
        mapped1 = map_to_unit(first)
        assert_allclose(mapped1.entries, first.entries / 2.0, atol=0.0)
        mapped2 = map_to_unit(qth_order_gim(first, 2))
        assert_allclose(mapped2.entries, qth_order_gim(first, 2).entries / 4.0, atol=0.0)
        # mapping then raising the order agrees with raising then mapping
        assert_allclose(qth_order_gim(mapped1, 2).entries, mapped2.entries, atol=1e-16)

    def test_unit_interval_matrix_maps_to_itself(self):
        unit = map_to_unit(build_gim_gg(5, GegenbauerParam(0.5)))
        assert map_to_unit(unit) is unit

    def test_unit_interval_first_order_law(self):
        m = map_to_unit(build_gim_gg(9, GegenbauerParam(0.5)))
        s = m.target_nodes
        assert_allclose(apply_quadrature(m, np.ones(10)), s, atol=1e-13)

    def test_invalid_order_rejected(self):
        m = build_gim_gg(4, GegenbauerParam(0.5))
        # inf used to raise OverflowError, and nan a conversion error
        for q in (0, -1, 2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="order must be a positive integer"):
                qth_order_gim(m, q)
        with pytest.raises(ValueError):
            qth_order_gim(qth_order_gim(m, 2), 2)
        assert qth_order_gim(m, 2.0).order == 2


def unit_interval_error(unit, q):
    """Worst error of a [0, 1] matrix of order q on s^j, j <= cols - q, relative to max |s^j|.

    The reference is the q-fold integral of s^j over [0, t], t^(j+q) j! / (j+q)!.
    At most 12 degrees are taken, spread over 0 .. cols - q with both ends.
    """
    cols = unit.source_nodes.shape[-1]
    worst = 0.0
    for j in np.unique(np.linspace(0, cols - q, 12).round().astype(int)).tolist():
        samples = unit.source_nodes ** j
        want = unit.target_nodes ** (j + q) / math.prod(range(j + 1, j + q + 1))
        err = np.max(np.abs(apply_quadrature(unit, samples) - want)) / np.max(np.abs(samples))
        worst = max(worst, err)
    return worst


class TestUnitIntervalExactness:
    # map_to_unit(qth_order_gim(M, q)) applied to s^j on its [0, 1] nodes, j <= cols - q,
    # against the closed-form q-fold integral over [0, t]. Over 1,200 random draws (200 of
    # the basis form) the error was at most 0.67 (n + 1) eps on shared nodes and
    # 3.1 (m + 1) eps on per-row nodes (m = 7, q = 1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 400), alpha=st.floats(-0.45, 2.0), q=st.integers(1, 4),
           targets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
    def test_shared_nodes(self, n, alpha, q, targets):
        assume(q <= n + 1)
        param = GegenbauerParam(alpha)
        try:
            arbitrary = build_gim_arbitrary(targets, n, param)
        except CollisionError:
            reject()
        for first in (build_gim_gg(n, param, variant="bumped"), arbitrary):
            unit = map_to_unit(qth_order_gim(first, q))
            assert unit_interval_error(unit, q) <= 8 * (n + 1) * EPS_MACH

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(401, 1000), alpha=st.floats(-0.45, 2.0), q=st.integers(1, 4))
    def test_shared_nodes_of_the_basis_form_at_large_n(self, n, alpha, q):
        # the barycentric build takes seconds at n = 2000; the modal form builds in milliseconds
        unit = map_to_unit(qth_order_gim(build_basis_gim(n, GegenbauerParam(alpha)), q))
        assert unit_interval_error(unit, q) <= 8 * (n + 1) * EPS_MACH

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(0, 20), q=st.integers(1, 4),
           targets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8, unique=True))
    def test_per_row_nodes(self, m, q, targets):
        assume(q <= m + 1)
        try:
            first = build_optimal_gim(np.sort(targets), OptimalConfig(m=m))
        except CollisionError:
            reject()
        unit = map_to_unit(qth_order_gim(first, q))
        assert unit_interval_error(unit, q) <= 8 * (m + 1) * EPS_MACH


class TestApply:
    def test_zero_vector(self):
        m = build_gim_gg(5, GegenbauerParam(0.5))
        assert_allclose(apply_quadrature(m, np.zeros(6)), np.zeros(6), atol=0.0)

    def test_length_mismatch_rejected(self):
        m = build_gim_gg(5, GegenbauerParam(0.5))
        with pytest.raises(ValueError):
            apply_quadrature(m, np.ones(5))

    def test_per_row_source_nodes_apply_row_by_row(self):
        m = IntegrationMatrix(entries=[[1.0, 2.0], [3.0, 4.0]], order=1,
                              source_nodes=[[-0.5, 0.5], [-0.25, 0.25]], target_nodes=[0.0, 1.0],
                              interval="[-1,1]", alpha=[0.5, 1.5])
        assert apply_quadrature(m, [[1.0, 1.0], [2.0, 0.5]]).tolist() == [3.0, 8.0]
        with pytest.raises(ValueError):
            apply_quadrature(m, [1.0, 1.0])

    @pytest.mark.parametrize("source_nodes, alpha", [
        (np.zeros(3), 0.5), (np.zeros((3, 2)), 0.5), (np.zeros((2, 2)), np.zeros(3)),
    ])
    def test_per_row_shapes_checked(self, source_nodes, alpha):
        with pytest.raises(ValueError):
            IntegrationMatrix(entries=np.ones((2, 2)), order=1, source_nodes=source_nodes,
                              target_nodes=[0.0, 1.0], interval="[-1,1]", alpha=alpha)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_gaussian_against_adaptive_reference(self):
        m = build_gim_gg(20, GegenbauerParam(0.0))
        f = lambda x: np.exp(-x ** 2)
        ref = np.array([quad(f, -1, xj, epsabs=1e-14, epsrel=1e-14)[0]
                        for xj in m.target_nodes])
        got = apply_quadrature(m, f(m.source_nodes))
        assert np.max(np.abs(got - ref)) <= 1e-12


class TestRecordArrays:
    """Records hold read-only views of the arrays given; the caller's arrays stay writeable."""

    def test_build_gim_arbitrary_keeps_a_copy_of_the_targets(self):
        t = np.array([-0.3, 0.2, 0.9])
        mat = build_gim_arbitrary(t, 6, GegenbauerParam(0.5))
        assert t.flags.writeable
        entries = mat.entries.copy()
        t[:] = 0.0
        assert mat.target_nodes.tolist() == [-0.3, 0.2, 0.9]
        assert np.array_equal(mat.entries, entries)

    def test_integration_matrix_holds_read_only_views(self):
        given = {"entries": np.ones((2, 2)), "source_nodes": np.array([-0.5, 0.5]),
                 "target_nodes": np.array([0.0, 1.0]), "alpha": np.array([0.5, 1.5])}
        mat = IntegrationMatrix(order=1, interval="[-1,1]", **given)
        for name, array in given.items():
            held = getattr(mat, name)
            assert array.flags.writeable and not held.flags.writeable, name
            assert np.shares_memory(held, array), name  # a view, not a copy
        with pytest.raises(ValueError, match="read-only"):
            mat.entries[0, 0] = 2.0

    @pytest.mark.parametrize("variant", [*SQUARE_VARIANTS, "basis"])
    def test_built_matrices_are_read_only(self, variant):
        param = GegenbauerParam(0.5)
        mat = build_basis_gim(6, param) if variant == "basis" else build_gim_gg(6, param, variant=variant)
        for array in (mat.entries, mat.source_nodes, mat.target_nodes):
            assert not array.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="entries must be finite"):
            IntegrationMatrix(entries=[[1.0, bad]], order=1, source_nodes=[-0.5, 0.5],
                              target_nodes=[0.0], interval="[-1,1]", alpha=0.5)


class TestBasisForm:
    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0])
    def test_equals_barycentric_form(self, alpha):
        for n in (1, 6, 17, 30):
            if not check_gg_condition(n, GegenbauerParam(alpha)).feasible:
                bary = build_gim_gg(n, GegenbauerParam(alpha), variant="bumped")
            else:
                bary = build_gim_gg(n, GegenbauerParam(alpha))
            basis = build_basis_gim(n, GegenbauerParam(alpha))
            assert np.max(np.abs(basis.entries - bary.entries)) <= 1e-12

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.5, 2.0])
    @pytest.mark.parametrize("n", [160, 320, 640])
    def test_closed_form_modal_integrals_at_large_n(self, n, alpha):
        # the modal table comes from the integration relation; the bound is
        # the one the sub-quadrature table met at small n
        basis = build_basis_gim(n, GegenbauerParam(alpha))
        bary = build_gim_gg(n, GegenbauerParam(alpha))
        assert np.max(np.abs(basis.entries - bary.entries)) <= 1e-12

    def test_ones_law(self):
        m = build_basis_gim(11, GegenbauerParam(0.8))
        assert_allclose(apply_quadrature(m, np.ones(12)), m.target_nodes + 1.0, atol=1e-12)

    def test_runge_errors_match_barycentric_within_order(self):
        f = lambda x: 1.0 / (1.0 + 25.0 * x ** 2)
        bary = build_gim_gg(20, GegenbauerParam(0.5))
        basis = build_basis_gim(20, GegenbauerParam(0.5))
        ref = np.array([quad(f, -1, xj, epsabs=1e-14, epsrel=1e-14, limit=300)[0]
                        for xj in bary.target_nodes])
        e_bary = np.abs(apply_quadrature(bary, f(bary.source_nodes)) - ref)
        e_basis = np.abs(apply_quadrature(basis, f(bary.source_nodes)) - ref)
        ratio = np.maximum(e_bary, e_basis) / np.minimum(e_bary, e_basis)
        assert ratio.max() <= 10.0


def _iterated_integral_table(n, t):
    """Integrals over [-1, t] of the running integrals of G_0 ... G_{n-1} (alpha = 1/2), n >= 1.

    The integration relation applied twice: the running integral I_l of G_l
    has G_{l+1} - e and G_{l-1} - e, e = (-1)^(l+1), in its relation, so
    the integral of I_l has I_{l+1}(t) - e (t + 1) and I_{l-1}(t) - e (t + 1).
    At alpha = 1/2 both coefficients are 1, the e (t + 1) terms cancel, and
    it is (I_{l+1} - I_{l-1}) / (2 l + 1) for l >= 1.
    """
    _, integrals = _running_integral_table(n, 0.5, t)
    twice = np.empty((n, np.size(t)))
    twice[0] = 0.5 * (t + 1.0) ** 2
    twice[1:] = (integrals[2:] - integrals[:n - 1]) / (2.0 * np.arange(1.0, n)[:, None] + 1.0)
    return twice


def _running_integral_table(n, alpha, t):
    """G_0 ... G_n at ``t`` and their integrals over [-1, t], as (n + 1, len(t)) arrays.

    The integrals are those of :func:`_running_integral`, computed for all
    degrees from one table of G_0 ... G_{n+1}.
    """
    g = np.array(list(_terms(n + 1, alpha, np.asarray(t, dtype=float))))
    integrals = np.empty((n + 1, g.shape[1]))
    integrals[0] = t + 1.0
    integrals[1] = 0.5 * (t * t - 1.0)
    integrals[2:] = _integration_relation(np.arange(2.0, n + 1.0)[:, None], alpha, g[1:n], g[3:])
    return g[:n + 1], integrals


class TestLargeNExactness:
    """The metric behind the README's "Large n" accuracy figures.

    For each degree k <= n: Q applied to G_k at the Gauss nodes, against the
    running integral of G_k at the targets, relative to max |G_k| at the
    nodes; the worst over k and targets.  ``build_basis_gim`` is checked in
    full, the barycentric kernel on every 50th Gauss target (41 rows of
    ``build_gim_arbitrary``).  ``pytest -s`` prints the figures.
    """

    N = 2000

    def test_table_is_the_running_integral(self):
        t = np.array([-1.0, -0.73, 0.0, 0.41, 1.0])
        _, table = _running_integral_table(60, 0.5, t)
        for k in (0, 1, 2, 17, 60):
            want = [_running_integral(k, 0.5, float(tj)) for tj in t]
            assert_allclose(table[k], want, rtol=1e-14, atol=1e-16)

    @pytest.mark.parametrize("alpha", [-0.4, 0.5, 2.0])
    def test_relative_error_at_n_2000(self, alpha):
        param = GegenbauerParam(alpha)
        x = gg_rule(self.N, param).nodes
        g, _ = _running_integral_table(self.N, alpha, x)
        scale = np.max(np.abs(g), axis=1)

        def worst(matrix):
            _, want = _running_integral_table(self.N, alpha, matrix.target_nodes)
            return float(np.max(np.abs(matrix.entries @ g.T - want.T) / scale))

        basis = worst(build_basis_gim(self.N, param))
        bary = worst(build_gim_arbitrary(x[::50], self.N, param))
        print(f"\nn = {self.N}, alpha = {alpha}: basis {basis:.2g}, barycentric rows {bary:.2g}")
        # measured at most 6.2e-14 and 4.2e-13 (alpha = 2)
        assert basis <= 2e-13 and bary <= 4e-12


class TestExactnessNearMinusHalf:
    # the barycentric weights come from the rounded nodes, so the square matrix stays exact as
    # alpha -> -1/2; with the paper's explicit weights (-1)^i sin(arccos x_i) sqrt(w_i) it
    # read 2.5e-11 at n = 20 and 1.7e-10 at n = 400, u = 6.  The error is that of
    # TestLargeNExactness on every Gauss target
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 400), u=st.floats(2.0, 7.0))
    @example(n=20, u=6.0)
    @example(n=400, u=6.0)
    def test_square_matrix_is_exact(self, n, u):
        try:
            matrix = build_gim_gg(n, GegenbauerParam(-0.5 + 10.0 ** -u))
        except CollisionError:
            reject()
        g, want = _running_integral_table(n, 0.5, matrix.source_nodes)
        err = np.max(np.abs(matrix.entries @ g.T - want.T) / np.max(np.abs(g), axis=1))
        assert err <= 8 * (n + 1) * EPS_MACH


def _oracle_rows(targets, basis, lg, epsilon, on_hit):
    """Row kernel as a table of cardinal values, through lagrange_matrix.

    ``on_hit`` "raise" reports the first point within epsilon of a node, in
    (j, k, i) order, found by a dense test of every mapped point against
    every node; "cardinal" leaves the hit points to lagrange_matrix.
    """
    rows = np.empty((len(targets), basis.nodes.size))
    for j, xj in enumerate(targets):
        mapped = 0.5 * ((xj + 1.0) * lg.nodes + xj - 1.0)
        hits = np.argwhere(np.abs(mapped[:, None] - basis.nodes) <= epsilon)  # in (k, i) order
        if on_hit == "raise" and hits.size:
            k, i = hits[0]
            raise CollisionError(i, j, k)
        table = lagrange_matrix(basis, mapped, exact_hit_tol=epsilon)
        rows[j] = 0.5 * (xj + 1.0) * (lg.weights @ table)
    return rows


def _screened_rows(targets, nodes, xi, lg, epsilon):
    """The row kernel behind the builders' screen: the first hit of _collisions raises, as in a builder."""
    targets = np.array(targets, dtype=float, ndmin=1)
    mapped, hits = _collisions(targets, nodes, lg.nodes, epsilon)
    if hits:
        raise CollisionError(*hits[0], "mapped Legendre point coincides with a source node")
    return _build_rows(targets, mapped, nodes, xi, lg.weights)


def _kernel_inputs(n, alpha, stride=1):
    rule = gg_rule(n, GegenbauerParam(alpha))
    return rule.nodes[::stride], bary_weights_gg(rule), lg_rule(_lg_count_default(n))


def _reflected(rows):
    """The square matrix from its rows j <= (n + 1) // 2: row j > (n + 1) // 2 is E - Q[n-j, ::-1].

    E is the middle row plus its mirror image, or the middle pair, and
    ``rows`` may hold more rows than it needs.
    """
    n = rows.shape[1] - 1
    kept = (n + 1) // 2 + 1
    square = np.empty((n + 1, n + 1))
    square[:kept] = rows[:kept]
    total = square[n // 2] + square[(n + 1) // 2, ::-1]
    for j in range(kept, n + 1):
        square[j] = total - square[n - j, ::-1]
    return square


def _guarded_oracle(n, alpha, epsilon):
    """The guarded square matrix from its two sources, which of its targets have a hit, and every row built.

    A target has a hit when a dense test finds a mapped point within epsilon
    of a node, as in _oracle_rows.  Its row is the cardinal row of
    _oracle_rows; every other row is the row kernel's for that target alone.
    The guarded matrix keeps the rows j <= (n + 1) // 2 and reflects the
    others (_reflected).
    """
    nodes, basis, lg = _kernel_inputs(n, alpha)
    rows, hit = np.empty((n + 1, n + 1)), np.zeros(n + 1, dtype=bool)
    for j, x_j in enumerate(nodes):
        mapped = 0.5 * ((x_j + 1.0) * lg.nodes + x_j - 1.0)
        hit[j] = np.any(np.abs(mapped[:, None] - basis.nodes) <= epsilon)
        if hit[j]:
            rows[j] = _oracle_rows([x_j], basis, lg, epsilon, "cardinal")[0]
        else:
            rows[j] = _screened_rows([x_j], basis.nodes, basis.xi, lg, epsilon)[0]
    return _reflected(rows), hit, rows


class TestRowKernelMatchesLagrangeOracle:
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.5, 2.0])
    def test_feasible_rows(self, alpha):
        for n, stride in ((1, 1), (2, 1), (7, 1), (40, 1), (160, 1), (640, 16)):
            targets, basis, lg = _kernel_inputs(n, alpha, stride)
            targets = np.concatenate([[-1.0], targets])
            got = _screened_rows(targets, basis.nodes, basis.xi, lg, EPS_MACH)
            want = _oracle_rows(targets, basis, lg, EPS_MACH, "raise")
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("n, alpha", [(4, 1.0), (16, 1.0), (52, 1.0), (160, 1.0), (640, 1.0)])
    def test_infeasible_pairs(self, n, alpha):
        assert not check_gg_condition(n, GegenbauerParam(alpha)).feasible
        targets, basis, lg = _kernel_inputs(n, alpha)
        with pytest.raises(CollisionError) as got:
            _screened_rows(targets, basis.nodes, basis.xi, lg, EPS_MACH)
        with pytest.raises(CollisionError) as want:
            _oracle_rows(targets, basis, lg, EPS_MACH, "raise")
        assert (got.value.i, got.value.j, got.value.k) == (want.value.i, want.value.j, want.value.k)
        # guarded rows: the cardinal oracle's bits at a hit, the kernel's elsewhere, the
        # others reflected; every integrated row near the oracle, and the reflected rows
        # near the rows built directly
        guarded = build_gim_gg(n, GegenbauerParam(alpha), variant="guarded").entries
        want_rows, hit, every_row = _guarded_oracle(n, alpha, EPS_MACH)
        assert hit[got.value.j] and np.array_equal(guarded, want_rows)
        kept = (n + 1) // 2 + 1
        oracle = _oracle_rows(targets[:kept], basis, lg, EPS_MACH, "cardinal")
        assert np.max(np.abs(guarded[:kept] - oracle)) <= 1e-15
        assert np.max(np.abs(guarded - every_row)) <= REFLECTION_ATOL

    @pytest.mark.parametrize("epsilon", [1e-3, 2e-2])
    def test_many_hits_with_wide_tolerance(self, epsilon):
        # several hits per target, and points within epsilon of two nodes
        targets, basis, lg = _kernel_inputs(30, 0.3)
        with pytest.raises(CollisionError) as got:
            _screened_rows(targets, basis.nodes, basis.xi, lg, epsilon)
        with pytest.raises(CollisionError) as want:
            _oracle_rows(targets, basis, lg, epsilon, "raise")
        assert (got.value.i, got.value.j, got.value.k) == (want.value.i, want.value.j, want.value.k)
        # the integrated rows j <= 15 (the reflected ones carry the cardinal rows' O(epsilon)
        # error of their mirror images, not their own)
        guarded = build_gim_gg(30, GegenbauerParam(0.3), epsilon, variant="guarded").entries
        want_rows, hit, _ = _guarded_oracle(30, 0.3, epsilon)
        assert hit[:16].sum() > 1 and np.array_equal(guarded, want_rows)
        oracle = _oracle_rows(targets[:16], basis, lg, epsilon, "cardinal")
        assert np.max(np.abs(guarded[:16] - oracle)) <= 1e-15


def _per_row_inputs(m, count):
    """Targets in (-1, 1) and per-row bases that cycle through five adjoint rules of degree m."""
    alphas = np.array([-0.3, 0.0, 0.5, 1.2, 2.0])
    nodes = np.array([gg_rule(m, GegenbauerParam(a)).nodes for a in alphas])
    xi = _gauss_xi(nodes, alphas[:, None])
    pick = np.arange(count) % alphas.size
    return np.linspace(-0.999, 0.999, count), nodes[pick], xi[pick], lg_rule(_lg_count_default(m))


def _per_row_peak():
    """The screened per-row rows of 5,000 targets at m = 20, and the peak memory they took."""
    targets, nodes, xi, lg = _per_row_inputs(20, 5000)
    tracemalloc.start()
    try:
        rows = _screened_rows(targets, nodes, xi, lg, EPS_MACH)
        return rows, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPerRowBases:
    def test_memory_is_blocked(self):
        # 5,000 targets at m = 20: the rows take 0.8 MiB and the mapped points and their
        # gaps 0.84 MiB; one (targets x points x nodes) temporary would take 8.8 MiB
        # (1.1 MiB as booleans); the measured peak is 1.7 MiB on one CPU, 1.8 MiB on two
        rows, peak = _per_row_peak()
        assert rows.shape == (5000, 21)
        assert peak < 2.5 * 2 ** 20

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_memory_is_blocked_on_any_worker_count(self, kernel_threads, workers):
        # the threads share one block budget, so the bound holds on any machine (measured
        # peaks 1.7, 1.8, 2.1 and 2.0 MiB)
        kernel_threads(workers)
        rows, peak = _per_row_peak()
        assert rows.shape == (5000, 21)
        assert peak < 2.5 * 2 ** 20

    def test_rows_equal_shared_basis_rows(self):
        targets, nodes, xi, lg = _per_row_inputs(14, 300)
        rows = _screened_rows(targets, nodes, xi, lg, EPS_MACH)
        for j in range(0, targets.size, 7):
            alone = _screened_rows(targets[j:j + 1], nodes[j], xi[j], lg, EPS_MACH)
            assert np.array_equal(rows[j], alone[0]), j

    @pytest.mark.parametrize("epsilon", [1e-3, 2e-2])
    def test_hits_match_the_lagrange_oracle(self, epsilon):
        # per-row bases with several hits per target: the first collision in (j, k, i) order
        targets, nodes, xi, lg = _per_row_inputs(9, 40)
        oracle = []
        for j, x_j in enumerate(targets):
            basis = BarycentricBasis(nodes[j], xi[j])
            try:
                _oracle_rows([x_j], basis, lg, epsilon, "raise")
            except CollisionError as err:
                oracle.append((j, err.k, err.i))
        with pytest.raises(CollisionError) as got:
            _screened_rows(targets, nodes, xi, lg, epsilon)
        assert (got.value.j, got.value.k, got.value.i) == min(oracle)


class _EagerPool:
    """A pool whose helper runs each task to its end, in a thread of its own, before submit returns."""

    def __init__(self):
        self.threads = []

    def submit(self, task, *args):
        future = Future()

        def run():
            self.threads.append(threading.get_ident())
            try:
                future.set_result(task(*args))
            except BaseException as err:
                future.set_exception(err)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        return future


class _IdlePool:
    """A pool whose tasks never start, as a busy pool's or one lost across fork."""

    def __init__(self):
        self.futures = []

    def submit(self, task, *args):
        self.futures.append(Future())
        return self.futures[-1]


@pytest.fixture
def kernel_threads(monkeypatch):
    """Force the row kernel's worker count, its block budget and its pool of helpers.

    ``force(workers, pool=None, elements=None, limit=None)`` sets them; with
    no pool, the helpers are a real pool of workers - 1 threads, shut down
    after the test.
    """
    made = []

    def force(workers, pool=None, elements=None, limit=None):
        if pool is None:
            pool = ThreadPoolExecutor(max(workers - 1, 1))
            made.append(pool)
        monkeypatch.setattr(gim, "_WORKERS", workers)
        monkeypatch.setattr(gim, "_helpers", lambda: pool)
        monkeypatch.setattr(gim, "_BLOCK_ELEMENTS", elements or gim._BLOCK_ELEMENTS)
        monkeypatch.setattr(gim, "_BLOCK_LIMIT", limit or gim._BLOCK_LIMIT)
        return pool

    yield force
    for pool in made:
        pool.shutdown()


#: row sets that go through the kernel: square (plain, guarded with hits, bumped), arbitrary
#: and per-row, the last both through the kernel alone and through the optimal builder
KERNEL_CASES = {
    "square": lambda: build_gim_gg(160, GegenbauerParam(0.3)).entries,
    "guarded": lambda: build_gim_gg(160, GegenbauerParam(1.0), variant="guarded").entries,
    "bumped": lambda: build_gim_gg(52, GegenbauerParam(1.0), variant="bumped").entries,
    "arbitrary": lambda: build_gim_arbitrary(np.linspace(-1.0, 1.0, 777), 40, GegenbauerParam(0.5)).entries,
    "per-row": lambda: _screened_rows(*_per_row_inputs(14, 600), EPS_MACH),
    "optimal": lambda: build_optimal_gim(np.linspace(-0.99, 0.99, 300), OptimalConfig(m=14)).entries,
}

#: block budgets (elements, limit): the default, one target per block, and larger shared blocks
BLOCK_SPLITS = {"default": (None, None), "one-target": (1, 1), "large": (2 ** 17, None)}


def _kernel_args(n=80, alpha=0.3):
    """The square kernel's arguments for every Gauss target of (n, alpha)."""
    nodes, basis, lg = _kernel_inputs(n, alpha)
    mapped = _collisions(nodes, nodes, lg.nodes, EPS_MACH)[0]
    return nodes, mapped, nodes, basis.xi, lg.weights


def _logged_blocks(mapped):
    """``mapped`` as a view that logs the targets of each block read from it, and the thread, in a list."""
    log = []

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            log.append((key[0], threading.get_ident()))
            return super().__getitem__(key)

    return mapped.view(Recorded), log


def _rows_read(log, count):
    """The targets of every logged block, in order, each as often as it was read."""
    return sorted(j for block, _ in log for j in range(count)[block])


class TestThreadedRowKernel:
    @pytest.mark.parametrize("split", sorted(BLOCK_SPLITS))
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_rows_keep_the_one_worker_bits(self, kernel_threads, case, workers, split):
        kernel_threads(1)
        want = KERNEL_CASES[case]()
        kernel_threads(workers, None, *BLOCK_SPLITS[split])
        assert np.array_equal(KERNEL_CASES[case](), want)

    @pytest.mark.parametrize("eager", [False, True])
    @pytest.mark.parametrize("split", sorted(BLOCK_SPLITS))
    def test_every_block_is_computed_once(self, kernel_threads, split, eager):
        pool = kernel_threads(3, _EagerPool() if eager else None, *BLOCK_SPLITS[split])
        targets, mapped, nodes, xi, w = _kernel_args()
        recorded, log = _logged_blocks(mapped)
        rows = _build_rows(targets, recorded, nodes, xi, w)
        assert _rows_read(log, targets.size) == list(range(targets.size)) and len(log) > 1
        if eager:  # the first helper took every block
            assert {thread for _, thread in log} == {pool.threads[0]}
        kernel_threads(1)
        assert np.array_equal(rows, _build_rows(targets, mapped, nodes, xi, w))

    def test_no_block_is_lost_or_repeated_under_fast_switching(self, kernel_threads):
        # more threads than CPUs, a thread switch every microsecond, one target per block
        targets, mapped, nodes, xi, w = _kernel_args()
        kernel_threads(8, None, 1, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                recorded, log = _logged_blocks(mapped)
                _build_rows(targets, recorded, nodes, xi, w)
                assert _rows_read(log, targets.size) == list(range(targets.size))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("eager", [False, True])
    def test_a_block_error_reaches_the_caller(self, kernel_threads, eager):
        class Failing(np.ndarray):
            def __getitem__(self, key):
                if key[0].start == 4:
                    raise KeyError("block at target 4")
                return super().__getitem__(key)

        kernel_threads(3, _EagerPool() if eager else None, 1, 1)
        targets, mapped, nodes, xi, w = _kernel_args()
        with pytest.raises(KeyError, match="block at target 4"):
            _build_rows(targets, mapped.view(Failing), nodes, xi, w)

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy 1 keeps np.errstate per thread, not per context")
    def test_helpers_keep_the_callers_errstate(self, kernel_threads):
        # a mapped point on a node divides by zero in every block, and 0 * inf is invalid;
        # the eager pool's helper computes every block
        targets, mapped, nodes, xi, w = _kernel_args()
        mapped = mapped.copy()
        mapped[:, 0] = nodes[0]
        pool = kernel_threads(2, _EagerPool(), 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="ignore", invalid="ignore"):
                rows = _build_rows(targets, mapped, nodes, xi, w)
            assert np.isnan(rows[:, 0]).all() and len(pool.threads) == 1
            with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
                _build_rows(targets, mapped, nodes, xi, w)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_helpers_that_never_start_do_not_stall(self, kernel_threads, workers):
        targets, mapped, nodes, xi, w = _kernel_args(160)
        kernel_threads(1)
        want = _build_rows(targets, mapped, nodes, xi, w)
        pool = kernel_threads(workers, _IdlePool())
        assert np.array_equal(_build_rows(targets, mapped, nodes, xi, w), want)
        assert len(pool.futures) == workers - 1 and all(f.cancelled() for f in pool.futures)

    def test_one_block_starts_no_helper(self, kernel_threads):
        # the solve workload's commands: every kernel call is one block on any CPU count,
        # while example 2 at n = 80 asks for helpers
        pool = kernel_threads(8, _IdlePool())
        for argv in (["example", "--id", "1", "--n", "10", "--m", "14", "--alpha", "0.5"],
                     ["example", "--id", "1", "--n", "16", "--m", "15", "--alpha", "0.5"],
                     ["example", "--id", "2", "--n", "9", "--alpha", "0.5"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        assert pool.futures == []
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["example", "--id", "2", "--n", "80", "--alpha", "0.5"]) == 0
        assert pool.futures


def _csv_oracle(matrix, alpha_text, tail=()):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["rows", "cols", "q", "alpha", "interval"])
    rows, cols = matrix.shape
    writer.writerow([rows, cols, matrix.order, alpha_text, matrix.interval])
    for row in matrix.entries:
        writer.writerow([f"{v:.17g}" for v in row])
    for line in tail:
        writer.writerow(line)
    return buf.getvalue()


class TestCsvMatchesCsvWriter:
    @pytest.mark.parametrize("variant", ["plain", "unit", "q3", "unit-q3"])
    def test_byte_identical(self, variant):
        m = build_gim_gg(24, GegenbauerParam(-0.3))
        if "unit" in variant:
            m = map_to_unit(m)
        if "q3" in variant:
            m = qth_order_gim(m, 3)
        buf = io.StringIO()
        matrix_to_csv(m, buf)
        assert buf.getvalue() == _csv_oracle(m, f"{m.alpha:.17g}")

    def test_file_path_byte_identical(self, tmp_path):
        m = map_to_unit(build_gim_gg(9, GegenbauerParam(0.5)))
        path = tmp_path / "m.csv"
        matrix_to_csv(m, str(path))
        assert path.read_bytes() == _csv_oracle(m, "0.5").encode()


class TestCsv:
    def test_header_and_shape(self):
        m = build_gim_gg(3, GegenbauerParam(0.5))
        buf = io.StringIO()
        matrix_to_csv(m, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "rows,cols,q,alpha,interval"
        assert lines[1] == '4,4,1,0.5,"[-1,1]"'
        assert len(lines) == 2 + 4
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        assert_allclose(parsed, m.entries, atol=0.0)
