"""Tests for integration-matrix construction and application."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from baryquad import (CollisionError, GegenbauerParam, IntegrationMatrix, apply_quadrature,
                      build_basis_gim, build_gim_arbitrary, build_gim_gg, build_gim_gg_bumped,
                      build_gim_gg_guarded, check_gg_condition, gg_rule, map_to_unit,
                      lg_rule, matrix_to_csv, qth_order_gim, row_gim_endpoint)
from baryquad.barycentric import BarycentricBasis, _gauss_xi, bary_weights_gg, lagrange_matrix
from baryquad.gim import _build_rows, _lg_count_default
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


class TestFeasibility:
    def test_known_infeasible_pair(self):
        report = check_gg_condition(4, GegenbauerParam(1.0))
        assert not report.feasible
        assert (1, 2, 1) in report.violations  # node -1/2 hit by the mapped zero

    def test_known_feasible_pair(self):
        assert check_gg_condition(10, GegenbauerParam(0.5)).feasible

    def test_degree_one_always_feasible(self):
        for alpha in (-0.4, 0.0, 0.5, 1.0, 2.0):
            report = check_gg_condition(1, GegenbauerParam(alpha))
            assert report.feasible and report.violations == ()

    def test_epsilon_must_be_positive(self):
        for epsilon in (0.0, -1.0, math.nan, math.inf):
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
        # on the feasible set the three square builders return the same bits
        assert np.array_equal(build_gim_gg_guarded(n, param).entries, square.entries)
        assert np.array_equal(build_gim_gg_bumped(n, param).entries, square.entries)

    @pytest.mark.parametrize("n, alpha, epsilon, triple", [
        (4, 1.0, EPS_MACH, (1, 2, 1)), (16, 1.0, EPS_MACH, (5, 8, 4)),
        (160, 1.0, EPS_MACH, (53, 80, 40)),
        # only the target x_7 > 0 has a hit: the screen of every target finds it
        (8, 2.0, 1e-4, (0, 7, 0))])
    def test_infeasible_pairs_build_every_row(self, n, alpha, epsilon, triple):
        # the first hit in (j, k, i) order, as before any row is reflected
        param = GegenbauerParam(alpha)
        with pytest.raises(CollisionError) as err:
            build_gim_gg(n, param, epsilon)
        assert (err.value.i, err.value.j, err.value.k) == triple
        nodes, basis, lg = _kernel_inputs(n, alpha)
        guarded = _build_rows(nodes, basis.nodes, basis.xi, lg, epsilon, on_hit="cardinal")
        bumped = _build_rows(nodes, basis.nodes, basis.xi, lg_rule(_lg_count_default(n) + 1), epsilon,
                             on_hit="raise")
        assert np.array_equal(build_gim_gg_guarded(n, param, epsilon).entries, guarded)
        assert np.array_equal(build_gim_gg_bumped(n, param, epsilon).entries, bumped)

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
        assert np.max(np.abs(rows[0] + rows[1, ::-1] - rows[2])) <= 1e-13


class TestGuardedAndBumped:
    def test_guarded_equals_plain_when_feasible(self):
        plain = build_gim_gg(10, GegenbauerParam(0.0))
        guarded = build_gim_gg_guarded(10, GegenbauerParam(0.0))
        assert_allclose(guarded.entries, plain.entries, atol=1e-14)

    def test_guarded_succeeds_on_infeasible_pair(self):
        m = build_gim_gg_guarded(4, GegenbauerParam(1.0))
        x = m.target_nodes
        assert_allclose(apply_quadrature(m, np.ones(5)), x + 1.0, atol=1e-13)

    def test_bumped_equals_plain_when_feasible(self):
        plain = build_gim_gg(10, GegenbauerParam(0.5))
        bumped = build_gim_gg_bumped(10, GegenbauerParam(0.5))
        assert_allclose(bumped.entries, plain.entries, atol=1e-13)

    def test_bumped_succeeds_on_infeasible_pair(self):
        m = build_gim_gg_bumped(4, GegenbauerParam(1.0))
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
        m = build_gim_gg_guarded(30, param, epsilon=epsilon)
        assert_allclose(m.entries.sum(axis=1), m.target_nodes + 1.0, rtol=0.0, atol=1e-13)

    def test_double_hit_takes_nearest_node_lower_on_tie(self):
        # four nodes symmetric about 0: 0 is exactly as far from x[1] as from x[2]
        basis = bary_weights_gg(gg_rule(3, GegenbauerParam(0.5)))
        x = basis.nodes
        points = np.array([0.5 * x[2], 0.0])
        table = lagrange_matrix(basis, points, exact_hit_tol=2.0 * x[2])
        assert np.array_equal(table, np.eye(4)[[2, 1]])

    def test_guarded_matches_bumped_polynomials_at_collision(self):
        guarded = build_gim_gg_guarded(4, GegenbauerParam(1.0))
        bumped = build_gim_gg_bumped(4, GegenbauerParam(1.0))
        x = guarded.target_nodes
        for p in range(5):
            assert_allclose(apply_quadrature(guarded, x ** p),
                            apply_quadrature(bumped, x ** p), atol=1e-13)


class TestEndpointRow:
    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 4, 5, 9, 16])
    def test_integrates_monomials_over_full_interval(self, n, alpha):
        row = row_gim_endpoint(n, GegenbauerParam(alpha))
        nodes = gg_rule(n, GegenbauerParam(alpha)).nodes
        for p in range(n + 1):
            exact = 0.0 if p % 2 == 1 else 2.0 / (p + 1)
            assert row @ nodes ** p == pytest.approx(exact, abs=1e-13)

    def test_ones_give_interval_length(self):
        row = row_gim_endpoint(8, GegenbauerParam(0.7))
        assert row @ np.ones(9) == pytest.approx(2.0, abs=1e-14)

    def test_odd_integrand_vanishes(self):
        row = row_gim_endpoint(7, GegenbauerParam(0.3))
        nodes = gg_rule(7, GegenbauerParam(0.3)).nodes
        assert row @ nodes == pytest.approx(0.0, abs=1e-14)

    def test_parity_bump_case_n4(self):
        # without enlarging the Legendre rule, the shared zero node makes
        # this overflow; exactness shows the bump happened
        row = row_gim_endpoint(4, GegenbauerParam(0.9))
        nodes = gg_rule(4, GegenbauerParam(0.9)).nodes
        assert np.all(np.isfinite(row))
        assert row @ nodes ** 4 == pytest.approx(2.0 / 5.0, abs=1e-14)

    def test_equals_arbitrary_build_with_endpoint_target(self):
        for n in (4, 7, 10, 80):
            row = row_gim_endpoint(n, GegenbauerParam(0.2))
            m = build_gim_arbitrary(np.array([1.0]), n, GegenbauerParam(0.2))
            assert np.array_equal(m.entries[0], row)


class TestArbitraryTargets:
    def test_gg_targets_recover_square_matrix(self):
        # the rows with x_j <= 0 come from the same kernel; the others by reflection
        param = GegenbauerParam(0.4)
        for n in (8, 9):
            square = build_gim_gg(n, param)
            arb = build_gim_arbitrary(square.target_nodes, n, param)
            half = n // 2 + 1
            assert np.array_equal(arb.entries[:half], square.entries[:half])
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

    def test_collision_raises(self):
        with pytest.raises(CollisionError):
            build_gim_arbitrary(gg_rule(4, GegenbauerParam(1.0)).nodes, 4, GegenbauerParam(1.0))

    def test_targets_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            build_gim_arbitrary(np.array([0.0, 1.1]), 5, GegenbauerParam(0.5))

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            build_gim_arbitrary(np.array([0.0, np.nan]), 5, GegenbauerParam(0.5))


class TestHigherOrder:
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

    def test_unit_interval_divides_by_two_per_order(self):
        first = build_gim_gg(7, GegenbauerParam(0.3))
        mapped1 = map_to_unit(first)
        assert_allclose(mapped1.entries, first.entries / 2.0, atol=0.0)
        mapped2 = map_to_unit(qth_order_gim(first, 2))
        assert_allclose(mapped2.entries, qth_order_gim(first, 2).entries / 4.0, atol=0.0)
        # mapping then raising the order agrees with raising then mapping
        assert_allclose(qth_order_gim(mapped1, 2).entries, mapped2.entries, atol=1e-16)

    def test_unit_interval_first_order_law(self):
        m = map_to_unit(build_gim_gg(9, GegenbauerParam(0.5)))
        s = m.target_nodes
        assert_allclose(apply_quadrature(m, np.ones(10)), s, atol=1e-13)

    def test_invalid_order_rejected(self):
        m = build_gim_gg(4, GegenbauerParam(0.5))
        with pytest.raises(ValueError):
            qth_order_gim(m, 0)
        with pytest.raises(ValueError):
            qth_order_gim(qth_order_gim(m, 2), 2)


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


class TestBasisForm:
    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0])
    def test_equals_barycentric_form(self, alpha):
        for n in (1, 6, 17, 30):
            if not check_gg_condition(n, GegenbauerParam(alpha)).feasible:
                bary = build_gim_gg_bumped(n, GegenbauerParam(alpha))
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
        # measured at most 6.0e-14 and 1.0e-12 (alpha = 2)
        assert basis <= 2e-13 and bary <= 4e-12


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


def _kernel_inputs(n, alpha, stride=1):
    rule = gg_rule(n, GegenbauerParam(alpha))
    return rule.nodes[::stride], bary_weights_gg(rule), lg_rule(_lg_count_default(n))


class TestRowKernelMatchesLagrangeOracle:
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.5, 2.0])
    def test_feasible_rows(self, alpha):
        for n, stride in ((1, 1), (2, 1), (7, 1), (40, 1), (160, 1), (640, 16)):
            targets, basis, lg = _kernel_inputs(n, alpha, stride)
            targets = np.concatenate([[-1.0], targets])
            got = _build_rows(targets, basis.nodes, basis.xi, lg, EPS_MACH, on_hit="raise")
            want = _oracle_rows(targets, basis, lg, EPS_MACH, "raise")
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("n, alpha", [(4, 1.0), (16, 1.0), (52, 1.0), (160, 1.0), (640, 1.0)])
    def test_infeasible_pairs(self, n, alpha):
        assert not check_gg_condition(n, GegenbauerParam(alpha)).feasible
        targets, basis, lg = _kernel_inputs(n, alpha)
        with pytest.raises(CollisionError) as got:
            _build_rows(targets, basis.nodes, basis.xi, lg, EPS_MACH, on_hit="raise")
        with pytest.raises(CollisionError) as want:
            _oracle_rows(targets, basis, lg, EPS_MACH, "raise")
        assert (got.value.i, got.value.j, got.value.k) == (want.value.i, want.value.j, want.value.k)
        # guarded rows on the targets around the first collision
        window = targets[max(got.value.j - 8, 0):got.value.j + 8]
        guarded = _build_rows(window, basis.nodes, basis.xi, lg, EPS_MACH, on_hit="cardinal")
        oracle = _oracle_rows(window, basis, lg, EPS_MACH, "cardinal")
        assert np.max(np.abs(guarded - oracle)) <= 1e-15

    @pytest.mark.parametrize("epsilon", [1e-3, 2e-2])
    def test_many_hits_with_wide_tolerance(self, epsilon):
        # several hits per target, and points within epsilon of two nodes
        targets, basis, lg = _kernel_inputs(30, 0.3)
        with pytest.raises(CollisionError) as got:
            _build_rows(targets, basis.nodes, basis.xi, lg, epsilon, on_hit="raise")
        with pytest.raises(CollisionError) as want:
            _oracle_rows(targets, basis, lg, epsilon, "raise")
        assert (got.value.i, got.value.j, got.value.k) == (want.value.i, want.value.j, want.value.k)
        guarded = _build_rows(targets, basis.nodes, basis.xi, lg, epsilon, on_hit="cardinal")
        oracle = _oracle_rows(targets, basis, lg, epsilon, "cardinal")
        assert np.max(np.abs(guarded - oracle)) <= 1e-15


def _per_row_inputs(m, count):
    """Targets in (-1, 1) and per-row bases that cycle through five adjoint rules of degree m."""
    rules = [gg_rule(m, GegenbauerParam(a)) for a in (-0.3, 0.0, 0.5, 1.2, 2.0)]
    nodes = np.array([rule.nodes for rule in rules])
    xi = _gauss_xi(nodes, np.array([rule.weights for rule in rules]))
    pick = np.arange(count) % len(rules)
    return np.linspace(-0.999, 0.999, count), nodes[pick], xi[pick], lg_rule(_lg_count_default(m))


class TestPerRowBases:
    def test_memory_is_blocked(self):
        # 5,000 targets at m = 20: the rows take 0.8 MiB and the mapped points and their
        # gaps 0.84 MiB; one (targets x points x nodes) temporary would take 8.8 MiB
        # (1.1 MiB as booleans); the measured peak is 1.8 MiB
        targets, nodes, xi, lg = _per_row_inputs(20, 5000)
        tracemalloc.start()
        try:
            rows = _build_rows(targets, nodes, xi, lg, EPS_MACH, "raise")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (5000, 21)
        assert peak < 2.5 * 2 ** 20

    def test_rows_equal_shared_basis_rows(self):
        targets, nodes, xi, lg = _per_row_inputs(14, 300)
        rows = _build_rows(targets, nodes, xi, lg, EPS_MACH, "raise")
        for j in range(0, targets.size, 7):
            alone = _build_rows(targets[j:j + 1], nodes[j], xi[j], lg, EPS_MACH, "raise")
            assert np.array_equal(rows[j], alone[0]), j

    @pytest.mark.parametrize("epsilon", [1e-3, 2e-2])
    def test_hits_match_the_lagrange_oracle(self, epsilon):
        # per-row bases with several hits per target: the first collision in (j, k, i)
        # order, and guarded rows from each target's own cardinal table
        targets, nodes, xi, lg = _per_row_inputs(9, 40)
        oracle = []
        for j, x_j in enumerate(targets):
            basis = BarycentricBasis(nodes[j], xi[j])
            try:
                _oracle_rows([x_j], basis, lg, epsilon, "raise")
            except CollisionError as err:
                oracle.append((j, err.k, err.i))
        with pytest.raises(CollisionError) as got:
            _build_rows(targets, nodes, xi, lg, epsilon, "raise")
        assert (got.value.j, got.value.k, got.value.i) == min(oracle)
        guarded = _build_rows(targets, nodes, xi, lg, epsilon, "cardinal")
        for j, x_j in enumerate(targets):
            want = _oracle_rows([x_j], BarycentricBasis(nodes[j], xi[j]), lg, epsilon, "cardinal")
            assert np.max(np.abs(guarded[j] - want[0])) <= 1e-15, j


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
