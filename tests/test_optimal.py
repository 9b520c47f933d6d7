"""Tests for the per-row optimized rectangular matrices."""

import csv
import io
import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from numpy.testing import assert_allclose

from baryquad import (CollisionError, GegenbauerParam, IntegrationMatrix, OptimalConfig,
                      apply_quadrature, bary_weights_gg, build_gim_arbitrary, build_gim_gg,
                      build_optimal_gim, build_optimal_gim_symmetric, check_condition_mmax, eta,
                      gg_rule, integrate_gegenbauer, lg_rule, map_to_unit, matrix_to_csv,
                      optimize_alpha, qth_order_gim)
from baryquad import optimal, rules
from baryquad.barycentric import _gauss_xi
from baryquad.gim import _build_rows, _collisions, _lg_count
from baryquad.optimal import BOUNDARY_MARGIN, _ALPHA_TOL, _GRID_SAMPLES
from baryquad.polynomials import EPS_MACH, gegenbauer_eval

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_alpha(x_k, m, config):
    """Reference minimizer: the same 64-point grid, then golden section on the best bracket.

    Golden section refines the bracket with one scalar ``eta`` per step, to
    the same 1e-6 tolerance and with the same fallbacks as the package's
    bracket search.
    """
    if x_k == -1.0 or (x_k == 1.0 and m % 2 == 0):
        return float(config.alpha_b)
    if m % 2 == 0 and x_k < 0.0:
        x_k = -x_k
    lo = -0.5 + BOUNDARY_MARGIN

    def objective(a):
        return eta(x_k, m, GegenbauerParam(a)) ** 2

    grid = np.linspace(lo, config.r, _GRID_SAMPLES)
    best = int(np.argmin([objective(a) for a in grid]))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _GRID_SAMPLES - 1)]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > _ALPHA_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
    alpha_star = 0.5 * (a + b)
    if alpha_star <= lo + _ALPHA_TOL or alpha_star < -0.5 + config.epsilon:
        return float(config.alpha_b)
    return float(alpha_star)


def running_monomial_integral(targets, p):
    targets = np.asarray(targets)
    return (targets ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)


def grouped_optimal_gim(targets, config):
    """The builder as one rule, basis and row-kernel call per group of rows sharing alpha*.

    Returns ``(entries, source_nodes, alpha)``; a collision in any group
    is raised for the smallest row index, as the first in target order.
    """
    targets = np.asarray(targets, dtype=float)
    m = config.m
    if m > config.m_max:
        alpha_star = np.full(targets.size, float(config.alpha_a))
    else:
        distinct, inverse = np.unique(np.abs(targets) if m % 2 == 0 else targets, return_inverse=True)
        alpha_star = optimize_alpha(distinct, config)[inverse]
    groups = {}  # the rows of each parameter, in order of first appearance
    for k, a_k in enumerate(alpha_star.tolist()):
        groups.setdefault(a_k, []).append(k)
    lg = lg_rule(_lg_count(m, targets, config.epsilon))
    entries = np.empty((targets.size, m + 1))
    adjoint_nodes = np.empty((targets.size, m + 1))
    collisions = []  # (row, node, Legendre point) of the first hit of each group
    for a_k, ks in groups.items():
        basis = bary_weights_gg(gg_rule(m, GegenbauerParam(a_k)))
        adjoint_nodes[ks] = basis.nodes
        try:
            entries[ks] = _screened_rows(targets[ks], basis.nodes, basis.xi, lg, config.epsilon)
        except CollisionError as err:
            collisions.append((ks[err.j], err.i, err.k))
    if collisions:
        j, i, k = min(collisions)
        raise CollisionError(i, j, k, "mapped Legendre point coincides with an adjoint node")
    return entries, adjoint_nodes, alpha_star


def _screened_rows(targets, nodes, xi, lg, epsilon):
    """The row kernel behind the builders' screen: the first hit of _collisions raises, as in a builder."""
    mapped, hits = _collisions(targets, nodes, lg.nodes, epsilon)
    if hits:
        raise CollisionError(*hits[0])
    return _build_rows(targets, mapped, nodes, xi, lg.weights)


class TestConfig:
    def test_defaults(self):
        cfg = OptimalConfig(m=10)
        assert cfg.m_max == 20 and cfg.r == 2.0 and cfg.alpha_a == 0.0
        assert cfg.alpha_b == cfg.alpha_a

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            OptimalConfig(m=5, r=0.5)
        with pytest.raises(ValueError):
            OptimalConfig(m=5, epsilon=0.0)
        with pytest.raises(ValueError):
            OptimalConfig(m=5, epsilon=math.nan)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            OptimalConfig(m=5, epsilon=math.inf)
        with pytest.raises(ValueError):
            OptimalConfig(m=5, alpha_a=0.3)
        # both degrees take the one degree check; a NaN m_max optimized every row
        for name in ("m", "m_max"):
            for bad in (-1, 2.5, math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{name} must be a non-negative integer"):
                    OptimalConfig(**{"m": 5, name: bad})
        cfg = OptimalConfig(m=5.0, m_max=7.0)
        assert (cfg.m, cfg.m_max) == (5, 7) and type(cfg.m) is type(cfg.m_max) is int
        # alpha_b is a parameter like any other: it must exceed -1/2 and be finite
        for alpha_b in (-0.7, -0.5, math.nan):
            with pytest.raises(ValueError):
                OptimalConfig(m=5, alpha_b=alpha_b)


class TestOptimizeAlpha:
    def test_result_in_search_range(self):
        cfg = OptimalConfig(m=9)
        for x in (-0.9, -0.3, 0.0, 0.4, 1.0):
            a = optimize_alpha(x, cfg)
            assert -0.5 < a <= cfg.r

    def test_even_m_is_exactly_symmetric(self):
        cfg = OptimalConfig(m=8)
        for x in (0.17, 0.62, 0.98):
            assert optimize_alpha(x, cfg) == optimize_alpha(-x, cfg)

    def test_minimality_against_chebyshev_and_legendre(self):
        cfg = OptimalConfig(m=11)
        for x in (0.35, 0.8):
            a_star = optimize_alpha(x, cfg)
            best = eta(x, 11, GegenbauerParam(a_star)) ** 2
            for ref in (0.0, 0.5):
                assert best <= eta(x, 11, GegenbauerParam(ref)) ** 2 * (1 + 1e-9) + 1e-30

    @pytest.mark.parametrize("m", [3, 4, 7, 12])
    def test_alpha_b_where_the_error_factor_vanishes(self, m):
        # at -1, and at 1 for even m, the error factor is zero for every parameter
        cfg = OptimalConfig(m=m, alpha_b=1.25)
        for x in ((-1.0, 1.0) if m % 2 == 0 else (-1.0,)):
            assert optimize_alpha(x, cfg) == 1.25

    def test_out_of_range_target_rejected(self):
        for x in (1.5, math.nan, [0.2, math.nan], [-1.0, -1.1]):
            with pytest.raises(ValueError):
                optimize_alpha(x, OptimalConfig(m=8))

    def test_m_zero_has_no_minimizer(self):
        # at m = 0 the one adjoint node is 0 for every parameter, so the error
        # factor, (x + 1) / 2 up to sign, does not depend on it
        cfg = OptimalConfig(m=0, alpha_b=1.25)
        for x in (-0.6, 0.0, 0.3, 1.0):
            assert len({eta(x, 0, GegenbauerParam(a)) for a in (-0.4, 0.0, 0.7, 2.0)}) == 1
            assert optimize_alpha(x, cfg) == 1.25
        assert np.all(build_optimal_gim([-0.5, 0.2, 0.9], cfg).alpha == 1.25)

    @pytest.mark.parametrize("m", range(21))
    def test_vectorized_grid_equals_scalar_eta(self, m):
        # all seven targets in one batch, as the search evaluates them; eta promises
        # every entry of the array form equal to the float form's value.  The values
        # are compared, not their squares: a float's ** 2 goes through the C library's
        # pow, which can differ from the array's x * x in the last bit
        grid = np.linspace(-0.5 + 1e-3, 2.0, _GRID_SAMPLES)
        targets = np.array([-1.0, -0.93, -0.2, 0.0, 0.41, 0.97, 1.0])
        scalar = [[eta(x, m, GegenbauerParam(a)) for a in grid] for x in targets]
        batched = eta(targets[:, None], m, np.tile(grid, (targets.size, 1)))
        assert batched.tolist() == scalar

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-1.0, 1.0), m=st.integers(1, 20))
    def test_no_worse_than_golden_section(self, x, m):
        # where eta changes sign within the oracle's tolerance, the minimum of eta^2
        # is 0 at a root, and the two values are zeros rounded at different
        # resolutions; there the searched parameter must sit as close to a root
        cfg = OptimalConfig(m=m)
        a_star, oracle = optimize_alpha(x, cfg), golden_section_alpha(x, m, cfg)

        def factor(a):
            return eta(x, m, GegenbauerParam(a))

        half = _ALPHA_TOL / 2
        if factor(oracle - half) * factor(oracle + half) <= 0.0:
            assert factor(a_star - half) * factor(a_star + half) <= 0.0
        else:
            assert factor(a_star) ** 2 <= factor(oracle) ** 2 * (1 + 1e-9)

    @pytest.mark.parametrize("m", [5, 8, 15, 20])
    def test_equals_the_builders_parameter_bitwise(self, m):
        targets = np.concatenate([gg_rule(12, GegenbauerParam(0.3)).nodes, [-1.0, -0.4, 0.95, 1.0]])
        cfg = OptimalConfig(m=m)
        mat = build_optimal_gim(targets, cfg)
        assert [optimize_alpha(x, cfg) for x in targets] == mat.alpha.tolist()
        assert optimize_alpha(targets, cfg).tolist() == mat.alpha.tolist()

    @pytest.mark.parametrize("m", [1, 2, 9, 14, 15, 20])
    def test_builder_makes_one_search_of_at_most_five_evaluations(self, m, monkeypatch):
        searches, evaluations = [], []

        def counted(original, log):
            def call(x, *args):  # the last argument is eta's parameter grid or the search's config
                log.append(np.broadcast(x, args[-1]).shape)
                return original(x, *args)
            return call

        monkeypatch.setattr(optimal, "optimize_alpha", counted(optimal.optimize_alpha, searches))
        monkeypatch.setattr(optimal, "eta", counted(optimal.eta, evaluations))
        targets = np.concatenate([[-1.0], gg_rule(40, GegenbauerParam(0.5)).nodes, [1.0]])
        build_optimal_gim(targets, OptimalConfig(m=m))
        # one search over one target per |x_k| for even m, per x_k for odd m
        assert searches == [(43 if m % 2 else 22,)]
        assert 1 <= len(evaluations) <= 5
        # the first evaluation holds every searched target: all but -1 for odd m;
        # for even m, one per |x_k| but 1
        assert evaluations[0] == ((42 if m % 2 else 21), _GRID_SAMPLES)

    def test_search_memory_is_blocked(self):
        # one eta call on all 2,000 targets at m = 20 peaks near 40 MiB; in blocks of
        # 128 targets the search peaks near 7 MiB, with the same parameters
        targets = np.linspace(-0.999, 0.999, 2000)
        cfg = OptimalConfig(m=20)
        tracemalloc.start()
        try:
            alpha_star = optimize_alpha(targets, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert alpha_star[::97].tolist() == [optimize_alpha(x, cfg) for x in targets[::97]]

    def test_array_targets_keep_their_shape(self):
        cfg = OptimalConfig(m=7)
        targets = np.array([[-0.3, 0.5], [0.9, -1.0]])
        expected = [[optimize_alpha(x, cfg) for x in row] for row in targets.tolist()]
        assert optimize_alpha(targets, cfg).tolist() == expected


class TestAlphaStarRegression:
    # alpha* on the Legendre-Gauss targets of n = 10, recorded with the
    # Legendre sub-quadrature that evaluated the error factor before the
    # closed form; agreement is required to the golden-section tolerance
    ALPHA_STAR = {
        14: [0.2915772, 0.5560931915, 0.9651070432, -0.4637366918, 0.482786807, 1.000000108,
             0.482786807, -0.4637366918, 0.9651070432, 0.5560931915, 0.2915772],
        15: [0.3665773563, 0.4297438621, -0.4925225582, 0.7439481617, 0.504340597, 0.0,
             0.9993453549, 0.5345322442, -0.4898457111, 0.8180708206, 0.1100008927],
    }

    @pytest.mark.parametrize("m", [14, 15])
    def test_alpha_star_unchanged(self, m):
        targets = gg_rule(10, GegenbauerParam(0.5)).nodes
        mat = build_optimal_gim(targets, OptimalConfig(m=m))
        assert_allclose(mat.alpha, self.ALPHA_STAR[m], rtol=0.0, atol=1e-6)


class TestWhereAlphaStarPays:
    @pytest.mark.parametrize("m", range(4, 11))
    def test_optimal_rows_beat_legendre_rows_on_exp(self, m):
        # e^x's derivatives keep their sign, so the alpha* that minimizes eta also shrinks the
        # error: over 30 seeded sets of 12 targets the median ratio read 0.087 to 0.167
        ratios = []
        for seed in range(30):
            targets = np.random.default_rng(seed).uniform(-1.0, 1.0, 12)
            exact = np.exp(targets) - np.exp(-1.0)
            errors = [np.abs(apply_quadrature(mat, np.exp(mat.source_nodes)) - exact)
                      for mat in (build_optimal_gim(targets, OptimalConfig(m=m)),
                                  build_gim_arbitrary(targets, m, GegenbauerParam(0.5)))]
            ratios += list(errors[0] / errors[1])
        assert np.median(ratios) <= 0.5


class TestAdjointBasis:
    # build_optimal_gim samples row k at gg_rule(m, alpha*_k) with its bary_weights_gg basis
    def test_legendre_parameter_gives_lg_nodes(self):
        rule = gg_rule(9, GegenbauerParam(0.5))
        assert_allclose(rule.nodes, lg_rule(9).nodes, atol=1e-14)

    def test_weights_alternate(self):
        basis = bary_weights_gg(gg_rule(12, GegenbauerParam(1.1)))
        assert np.all(basis.xi[:-1] * basis.xi[1:] < 0)

    def test_two_point_case_matches_gauss_basis(self):
        # 1 / G_1^(3/2)(x) = 1 / x at -+1/sqrt(3), scaled to a largest entry of 1
        basis = bary_weights_gg(gg_rule(1, GegenbauerParam(0.5)))
        assert basis.xi.tolist() == [1.0, -1.0]


class TestBuildOptimal:
    def test_ones_rows_give_interval_lengths(self):
        targets = gg_rule(6, GegenbauerParam(0.4)).nodes
        mat = build_optimal_gim(targets, OptimalConfig(m=9))
        got = (mat.entries * np.ones_like(mat.source_nodes)).sum(axis=1)
        assert_allclose(got, targets + 1.0, atol=1e-13)

    @pytest.mark.parametrize("m", [4, 6, 20])
    def test_the_target_one_bumps_the_whole_call(self, m):
        # as in build_gim_arbitrary: with the target 1 every row of an m % 4 = 0 call takes one
        # more Legendre point; the largest change measured is 1.5e-15 over m = 4..20 on the
        # Gauss nodes of n in {4, 8, 10, 16, 20, 32, 40} at alpha in {0, 0.5, 1} (m = n = 20, alpha = 0)
        targets = gg_rule(20, GegenbauerParam(0.0)).nodes
        alone = build_optimal_gim(targets, OptimalConfig(m=m)).entries
        joined = build_optimal_gim(np.append(targets, 1.0), OptimalConfig(m=m)).entries[:-1]
        assert np.array_equal(alone, joined) == (m % 4 != 0)
        assert np.max(np.abs(alone - joined)) <= 4e-15

    def test_per_row_source_nodes_and_alpha(self):
        targets = np.linspace(-0.6, 0.6, 4)
        mat = build_optimal_gim(targets, OptimalConfig(m=5))
        assert isinstance(mat, IntegrationMatrix)
        assert mat.source_nodes.shape == (4, 6) and mat.alpha.shape == (4,)
        for nodes, a in zip(mat.source_nodes, mat.alpha):
            assert np.array_equal(nodes, gg_rule(5, GegenbauerParam(a)).nodes)

    @pytest.mark.parametrize("m", [6, 9, 14])
    def test_rows_integrate_polynomials_exactly(self, m, rng):
        targets = np.sort(rng.uniform(-1, 1, 8))
        mat = build_optimal_gim(targets, OptimalConfig(m=m))
        coeffs = rng.uniform(-1, 1, m + 1)
        samples = np.polynomial.polynomial.polyval(mat.source_nodes, coeffs)
        exact = sum(c * running_monomial_integral(targets, p) for p, c in enumerate(coeffs))
        got = apply_quadrature(mat, samples)
        assert np.max(np.abs(got - exact)) <= 1e-11

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 20),
           targets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8, unique=True))
    def test_rows_integrate_a_fixed_family_exactly(self, m, targets):
        # each row samples G_k (alpha = 0.5) at its own adjoint nodes; relative to max |G_k|
        # there, the error was at most 1.5e-13 over 6,000 random sets, the worst where
        # alpha* sits at the edge of the boundary strip above -1/2
        targets = np.sort(targets)
        try:
            mat = build_optimal_gim(targets, OptimalConfig(m=m))
        except CollisionError:
            reject()
        for k in range(m + 1):
            legendre = GegenbauerParam(0.5)
            samples = gegenbauer_eval(mat.source_nodes, k, legendre)
            exact = [integrate_gegenbauer(x, k, legendre) for x in targets]
            err = np.max(np.abs(apply_quadrature(mat, samples) - exact))
            assert err <= 5e-13 * np.max(np.abs(samples)), k

    @pytest.mark.parametrize("m, targets", [
        (3, [-0.866, -0.695, -0.533, 0.987, 0.992]), (9, [-0.5, 0.1, 0.998])])
    def test_exact_where_alpha_star_nears_the_boundary_strip(self, m, targets):
        # a row each with alpha* near -0.4988 and -0.4982, where the paper's explicit weights
        # missed G_k's integral by 2.3e-14 and 1.5e-14 (measured 6.7e-16 on both now)
        mat = build_optimal_gim(targets, OptimalConfig(m=m))
        assert np.min(mat.alpha) < -0.498
        legendre = GegenbauerParam(0.5)
        for k in range(m + 1):
            samples = gegenbauer_eval(mat.source_nodes, k, legendre)
            exact = [integrate_gegenbauer(x, k, legendre) for x in targets]
            err = np.max(np.abs(apply_quadrature(mat, samples) - exact))
            assert err <= 4 * (m + 1) * EPS_MACH * np.max(np.abs(samples)), k

    def test_above_mmax_equals_fixed_parameter_matrix(self):
        targets = gg_rule(7, GegenbauerParam(0.9)).nodes
        cfg = OptimalConfig(m=25, m_max=20, alpha_a=0.0)
        mat = build_optimal_gim(targets, cfg)
        fixed = build_gim_arbitrary(targets, 25, GegenbauerParam(0.0))
        assert np.array_equal(mat.entries, fixed.entries)
        assert np.all(mat.alpha == 0.0)
        assert np.array_equal(mat.source_nodes, np.tile(fixed.source_nodes, (8, 1)))

    def test_above_mmax_gg_targets_recover_square_matrix(self):
        cfg = OptimalConfig(m=22, m_max=20, alpha_a=0.0)
        targets = gg_rule(22, GegenbauerParam(0.0)).nodes
        mat = build_optimal_gim(targets, cfg)
        square = build_gim_gg(22, GegenbauerParam(0.0))
        assert_allclose(mat.entries, square.entries, atol=0.0)

    @pytest.mark.parametrize("m", [4, 8, 12])
    def test_target_just_below_one_gets_endpoint_bump(self, m):
        # alpha* just below the endpoint is set by rounding (the error factor
        # vanishes at 1 for even m), so compare with the target-1 row on the
        # same adjoint nodes
        opt = build_optimal_gim([np.nextafter(1.0, 0.0)], OptimalConfig(m=m))
        at_one = build_gim_arbitrary([1.0], m, GegenbauerParam(opt.alpha[0]))
        assert_allclose(opt.entries, at_one.entries, rtol=0.0, atol=1e-14)

    def test_alpha_star_bounds(self):
        cfg = OptimalConfig(m=10)
        targets = np.linspace(-1, 1, 9)
        mat = build_optimal_gim(targets, cfg)
        for a in mat.alpha:
            assert (-0.5 < a <= cfg.r) or a == cfg.alpha_b

    @pytest.mark.parametrize("m", [6, 21])
    def test_keeps_a_copy_of_the_targets(self, m):
        # both branches; the caller's array stays writeable, the matrix's arrays are read-only
        t = np.array([-0.4, 0.1, 0.8])
        mat = build_optimal_gim(t, OptimalConfig(m=m))
        assert t.flags.writeable
        entries = mat.entries.copy()
        t[:] = 0.0
        assert mat.target_nodes.tolist() == [-0.4, 0.1, 0.8]
        assert np.array_equal(mat.entries, entries)
        for array in (mat.entries, mat.source_nodes, mat.target_nodes, mat.alpha):
            assert not array.flags.writeable

    def test_empty_target_set_rejected(self):
        with pytest.raises(ValueError, match="target set must be non-empty"):
            build_optimal_gim([], OptimalConfig(m=6))
        with pytest.raises(ValueError, match="target set must be non-empty"):
            check_condition_mmax([], OptimalConfig(m=6))


class TestSymmetricFastPath:
    def test_equals_general_path(self):
        targets = gg_rule(8, GegenbauerParam(0.6)).nodes
        cfg = OptimalConfig(m=8)
        fast = build_optimal_gim_symmetric(targets, cfg)
        general = build_optimal_gim(targets, cfg)
        assert np.max(np.abs(fast.entries - general.entries)) <= 1e-12
        assert np.array_equal(fast.alpha, general.alpha)

    def test_alpha_star_palindromic(self):
        targets = gg_rule(9, GegenbauerParam(0.2)).nodes
        mat = build_optimal_gim_symmetric(targets, OptimalConfig(m=12))
        assert np.array_equal(mat.alpha, mat.alpha[::-1])

    def test_odd_m_rejected(self):
        targets = gg_rule(4, GegenbauerParam(0.5)).nodes
        with pytest.raises(ValueError):
            build_optimal_gim_symmetric(targets, OptimalConfig(m=7))

    def test_asymmetric_targets_rejected(self):
        with pytest.raises(ValueError):
            build_optimal_gim_symmetric(np.array([-0.5, 0.0, 0.7]), OptimalConfig(m=8))


class TestConditionMmax:
    def test_interior_targets_feasible(self):
        targets = np.linspace(-0.9, 0.9, 7)
        report = check_condition_mmax(targets, OptimalConfig(m=8))
        assert report.feasible and report.violations == ()

    def test_synthetic_collision_detected(self):
        # choose the target so one mapped Legendre point lands on an
        # adjoint node: x = (1 + 2 z_i - y_s) / (1 + y_s), which stays in
        # (-1, 1) whenever z_i < y_s
        m = 8
        z = gg_rule(m, GegenbauerParam(0.0)).nodes
        y = lg_rule(m // 2).nodes
        i, s = 2, 3
        assert z[i] < y[s]
        x = (1.0 + 2.0 * z[i] - y[s]) / (1.0 + y[s])
        assert -1.0 < x < 1.0
        report = check_condition_mmax(np.array([x]), OptimalConfig(m=m))
        assert not report.feasible
        assert (i, s, 0) in report.violations

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError):
            check_condition_mmax(np.array([0.0, np.nan]), OptimalConfig(m=6, alpha_a=0.5))

    def test_left_endpoint_target_vacuous(self):
        report = check_condition_mmax(np.array([-1.0]), OptimalConfig(m=6, alpha_a=0.5))
        assert report.feasible

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            check_condition_mmax(np.array([0.0]), OptimalConfig(m=6, alpha_a=0.5, epsilon=-1.0))
        with pytest.raises(ValueError):
            check_condition_mmax(np.array([0.0]), OptimalConfig(m=6, alpha_a=0.5, epsilon=math.nan))

    @pytest.mark.parametrize("m", [24, 28])
    def test_uses_the_builders_legendre_count(self, m):
        # the target 1 bumps the Legendre count of the m > m_max branch, and the
        # check must use that count: with m // 2 it finds a collision the builder never meets
        targets = [0.3, 1.0]
        assert check_condition_mmax(targets, OptimalConfig(m=m)).feasible
        build_optimal_gim(targets, OptimalConfig(m=m))

    def test_placed_target_refused_by_the_builder_is_infeasible(self):
        # the paper's ratio condition holds for this target, but its mapped point s = 1
        # lies within epsilon of the adjoint node 0, and the m > m_max branch raises
        target = [-0.9548796876054403]
        assert dense_mmax_violations(target, 21, 0.0, EPS_MACH) == ()
        assert check_condition_mmax(target, OptimalConfig(m=21)).violations == ((0, 1, 0),)
        with pytest.raises(CollisionError, match="adjoint node") as err:
            build_optimal_gim(target, OptimalConfig(m=21))
        assert (err.value.i, err.value.j, err.value.k) == (0, 0, 1)


def dense_mmax_violations(targets, m, alpha_a, epsilon):
    """The paper's ratio condition: one dense (adjoint node, Legendre node) test per target."""
    z = gg_rule(m, GegenbauerParam(alpha_a)).nodes
    y = lg_rule(_lg_count(m, targets, epsilon)).nodes
    violations = []
    for k, x_k in enumerate(targets):
        if x_k == -1.0:
            continue
        lhs = np.abs(y[None, :] - (1.0 - x_k + 2.0 * z[:, None]) / (1.0 + x_k))
        violations += [(int(i), int(s), int(k)) for i, s in np.argwhere(lhs <= epsilon)]
    return tuple(violations)


def dense_mapped_mmax_violations(targets, m, alpha_a, epsilon):
    """The builders' rule: one dense (adjoint node, mapped Legendre point) test per target."""
    z = gg_rule(m, GegenbauerParam(alpha_a)).nodes
    y = lg_rule(_lg_count(m, targets, epsilon)).nodes
    violations = []
    for k, x_k in enumerate(targets):
        lhs = np.abs(0.5 * ((x_k + 1.0) * y + x_k - 1.0)[None, :] - z[:, None])
        violations += [(int(i), int(s), int(k)) for i, s in np.argwhere(lhs <= epsilon)]
    return tuple(violations)


def placed_target_sets(epsilon):
    """(m, alpha_a, targets): a grid, targets placed on collisions and -1 at both ends."""
    for m in range(0, 31):
        for alpha_a in (0.0, 0.5):
            z = gg_rule(m, GegenbauerParam(alpha_a)).nodes
            grid = np.linspace(-0.99, 1.0, 15)
            y = lg_rule(_lg_count(m, grid, epsilon)).nodes
            # targets that put a mapped Legendre point on an adjoint node
            hits = [(1.0 + 2.0 * zi - ys) / (1.0 + ys) for zi in z for ys in y]
            hits = [x for x in hits if -1.0 < x < 1.0][:12]
            yield m, alpha_a, np.concatenate([[-1.0], grid, hits, [-1.0]])


class TestConditionMmaxMatchesDenseOracle:
    @pytest.mark.parametrize("epsilon", [EPS_MACH, 1e-6, 1e-2])
    def test_same_violations_in_same_order(self, epsilon):
        for m, alpha_a, targets in placed_target_sets(epsilon):
            report = check_condition_mmax(targets, OptimalConfig(m=m, alpha_a=alpha_a, epsilon=epsilon))
            want = dense_mapped_mmax_violations(targets, m, alpha_a, epsilon)
            assert report.violations == want, (m, alpha_a)
            assert report.feasible == (not want)

    @pytest.mark.parametrize("epsilon", [1e-12, 1e-6])
    def test_paper_ratio_condition_where_the_rules_agree(self, epsilon):
        # the ratio's gap is 2 / (1 + x_k) times the mapped point's; on these sets the
        # two rules flag the same triples here, but not at EPS_MACH or 1e-2
        for m, alpha_a, targets in placed_target_sets(epsilon):
            want = dense_mmax_violations(targets, m, alpha_a, epsilon)
            cfg = OptimalConfig(m=m, alpha_a=alpha_a, epsilon=epsilon)
            assert check_condition_mmax(targets, cfg).violations == want, (m, alpha_a)

    @pytest.mark.parametrize("epsilon", [EPS_MACH, 1e-12, 1e-6, 1e-2])
    def test_verdict_is_the_build(self, epsilon):
        # feasible exactly when build_gim_arbitrary builds, which raises at the
        # first violation in (target, Legendre point, node) order
        for m, alpha_a, targets in placed_target_sets(epsilon):
            report = check_condition_mmax(targets, OptimalConfig(m=m, alpha_a=alpha_a, epsilon=epsilon))
            try:
                build_gim_arbitrary(targets, m, GegenbauerParam(alpha_a), epsilon)
            except CollisionError as err:
                assert not report.feasible, (m, alpha_a)
                first = min(report.violations, key=lambda t: (t[2], t[1], t[0]))
                assert (err.i, err.k, err.j) == first, (m, alpha_a)
            else:
                assert report.feasible, (m, alpha_a)


class TestHigherOrderOptimal:
    def test_first_order_unchanged(self):
        targets = np.linspace(-0.8, 0.8, 5)
        mat = build_optimal_gim(targets, OptimalConfig(m=6))
        assert qth_order_gim(mat, 1) is mat

    def test_second_order_matches_iterated_integral(self, rng):
        m = 10
        targets = np.sort(rng.uniform(-1, 1, 6))
        mat = qth_order_gim(build_optimal_gim(targets, OptimalConfig(m=m)), 2)
        coeffs = rng.uniform(-1, 1, m)  # degree m-1
        samples = np.polynomial.polynomial.polyval(mat.source_nodes, coeffs)
        x = targets
        exact = sum(c * (x * running_monomial_integral(x, p)
                         - (x ** (p + 2) - (-1.0) ** (p + 2)) / (p + 2))
                    for p, c in enumerate(coeffs))
        got = apply_quadrature(mat, samples)
        assert np.max(np.abs(got - exact)) <= 1e-10

    def test_unit_interval_scaling(self):
        targets = np.linspace(-0.7, 0.9, 5)
        first = build_optimal_gim(targets, OptimalConfig(m=6))
        second = qth_order_gim(first, 2)
        assert_allclose(map_to_unit(first).entries, first.entries / 2.0, atol=0.0)
        assert_allclose(map_to_unit(second).entries, second.entries / 4.0, atol=0.0)

    def test_invalid_order_rejected(self):
        mat = build_optimal_gim(np.array([0.5]), OptimalConfig(m=4))
        with pytest.raises(ValueError):
            qth_order_gim(mat, 0)


class TestCollision:
    def test_optimal_row_names_the_adjoint_node(self):
        # at m = 4 with epsilon = 0.01, target -0.9 puts a mapped Legendre point
        # within epsilon of an adjoint node; the row index reported is the caller's
        cfg = OptimalConfig(m=4, epsilon=0.01)
        targets = np.array([0.3, 0.5, 0.7, 0.2, 0.4, 0.6, 0.8, -0.9])
        with pytest.raises(CollisionError, match="adjoint node") as hit:
            build_optimal_gim(targets, cfg)
        z = gg_rule(4, GegenbauerParam(optimize_alpha(-0.9, cfg))).nodes
        y = 0.5 * ((-0.9 + 1.0) * lg_rule(_lg_count(4, targets, 0.01)).nodes - 0.9 - 1.0)
        s, i = np.argwhere(np.abs(y[:, None] - z) <= 0.01)[0]  # the first in (s, i) order
        assert (hit.value.i, hit.value.j, hit.value.k) == (i, 7, s)

    def test_first_collision_in_target_order_across_groups(self):
        # rows 0 and 2 share a basis (m even), row 1 has its own; rows 1 and 2
        # collide, so the group built first holds the later collision
        cfg = OptimalConfig(m=4, epsilon=0.01)
        build_optimal_gim([0.1], cfg)
        alone = {}
        for x in (-0.9, -0.1):
            with pytest.raises(CollisionError) as hit:
                build_optimal_gim([x], cfg)
            alone[x] = (hit.value.i, hit.value.k)
        with pytest.raises(CollisionError) as first:
            build_optimal_gim([0.1, -0.9, -0.1], cfg)
        assert (first.value.i, first.value.j, first.value.k) == (alone[-0.9][0], 1, alone[-0.9][1])

    def test_adjoint_rules_are_polished_in_one_batch(self, monkeypatch):
        monkeypatch.setattr(rules, "_RULES", OrderedDict())
        batches = []
        polish = rules._polish

        def recorded(n, alphas, nodes):
            batches.append((n, list(alphas)))
            return polish(n, alphas, nodes)

        monkeypatch.setattr(rules, "_polish", recorded)
        mat = build_optimal_gim(gg_rule(10, GegenbauerParam(0.5)).nodes, OptimalConfig(m=14))
        adjoint = [(n, alphas) for n, alphas in batches if n == 14]
        assert adjoint == [(14, list(dict.fromkeys(mat.alpha.tolist())))]

    @pytest.mark.parametrize("m", [6, 7, 14, 22, 23])
    def test_rows_sharing_a_basis_equal_one_row_builds(self, m):
        # -1 and 1 take alpha_b, and above m_max = 20 every row takes alpha_a
        targets = np.concatenate([[-1.0], gg_rule(10, GegenbauerParam(0.5)).nodes, [1.0]])
        cfg = OptimalConfig(m=m, m_max=20)
        mat = build_optimal_gim(targets, cfg)
        for k, x_k in enumerate(targets):
            row = build_optimal_gim([x_k], cfg)
            assert np.array_equal(mat.entries[k], row.entries[0])
            assert np.array_equal(mat.source_nodes[k], row.source_nodes[0])
            assert mat.alpha[k] == row.alpha[0]

    @pytest.mark.parametrize("m, m_max", [(6, 20), (7, 20), (14, 20), (22, 20), (4, 3)])
    def test_one_basis_per_distinct_parameter(self, m, m_max, monkeypatch):
        # one adjoint weight row per distinct alpha*, and every row in one kernel call
        weight_rows, kernel_bases = [], []

        def counted_weights(nodes, alpha):
            weight_rows.append(nodes.shape[0])
            return _gauss_xi(nodes, alpha)

        def counted_rows(targets, mapped, nodes, *args):
            kernel_bases.append(nodes.shape)
            return _build_rows(targets, mapped, nodes, *args)

        monkeypatch.setattr(optimal, "_gauss_xi", counted_weights)
        monkeypatch.setattr(optimal, "_build_rows", counted_rows)
        targets = np.concatenate([[-1.0], gg_rule(10, GegenbauerParam(0.5)).nodes, [1.0]])
        mat = build_optimal_gim(targets, OptimalConfig(m=m, m_max=m_max))
        assert weight_rows == [np.unique(mat.alpha).size]
        if m > m_max:
            assert weight_rows == [1]
        assert kernel_bases == [(targets.size, m + 1)]

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(0, 20), epsilon=st.sampled_from([EPS_MACH, 1e-2]),
           targets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=17))
    def test_equals_one_kernel_call_per_group_bitwise(self, m, epsilon, targets):
        targets = np.sort(targets)
        config = OptimalConfig(m=m, epsilon=epsilon)
        try:
            want = grouped_optimal_gim(targets, config)
        except CollisionError as oracle:
            with pytest.raises(CollisionError) as got:
                build_optimal_gim(targets, config)
            assert str(got.value) == str(oracle)
            assert (got.value.i, got.value.j, got.value.k) == (oracle.i, oracle.j, oracle.k)
            return
        mat = build_optimal_gim(targets, config)
        for got, expected in zip((mat.entries, mat.source_nodes, mat.alpha), want):
            assert np.array_equal(got, expected)

    def test_row_collision_reports_indices(self):
        # adjoint rule fixed at alpha_a = 1, m = 4 reproduces the known
        # zero-node collision through the fixed-parameter branch
        targets = gg_rule(4, GegenbauerParam(1.0)).nodes
        cfg = OptimalConfig(m=4, m_max=3, alpha_a=0.5)
        mat = build_optimal_gim(targets, cfg)  # Legendre fallback is safe
        assert mat.entries.shape == (5, 5)
        with pytest.raises(CollisionError):
            build_gim_arbitrary(targets, 4, GegenbauerParam(1.0))


class TestCsv:
    @pytest.mark.parametrize("unit", [False, True])
    def test_byte_identical_to_csv_writer(self, unit):
        mat = build_optimal_gim(np.linspace(-1.0, 1.0, 7), OptimalConfig(m=6))
        if unit:
            mat = map_to_unit(mat)
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["rows", "cols", "q", "alpha", "interval"])
        writer.writerow([7, 7, 1, "per-row", mat.interval])
        for row in mat.entries:
            writer.writerow([f"{v:.17g}" for v in row])
        writer.writerow(["k", "alphaStar"])
        for k, a in enumerate(mat.alpha):
            writer.writerow([k, f"{a:.17g}"])
        got = io.StringIO()
        matrix_to_csv(mat, got)
        assert got.getvalue() == want.getvalue()

    def test_contains_alpha_star_table(self):
        targets = np.linspace(-0.5, 0.5, 3)
        mat = build_optimal_gim(targets, OptimalConfig(m=5))
        buf = io.StringIO()
        matrix_to_csv(mat, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "rows,cols,q,alpha,interval"
        assert "k,alphaStar" in lines
        idx = lines.index("k,alphaStar")
        assert len(lines) - idx - 1 == 3
        for k, line in enumerate(lines[idx + 1:]):
            cells = line.split(",")
            assert int(cells[0]) == k
            assert float(cells[1]) == mat.alpha[k]
