"""Tests for Gauss rule generation."""

import io
import math
import re
import sys
import threading
from collections import OrderedDict

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

from baryquad import (ConvergenceError, GegenbauerParam, QuadratureRule, gg_rule, lg_rule,
                      rule_from_csv, rule_to_csv)
from baryquad import rules
from baryquad.polynomials import EPS_MACH

ALPHAS = [-0.4, -0.25, 0.0, 0.5, 1.0, 2.0]
#: the feasibility command's default alpha grid, -0.4:0.1:2
GRID = tuple(round(-0.4 + 0.1 * i, 12) for i in range(25))


def total_mass(alpha):
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(alpha + 0.5) - math.lgamma(alpha + 1.0))


def weighted_moment(k, alpha):
    # integral of x^k (1-x^2)^(alpha-1/2) over [-1, 1]; Beta-function closed form
    if k % 2 == 1:
        return 0.0
    return math.exp(math.lgamma((k + 1) / 2.0) + math.lgamma(alpha + 0.5)
                    - math.lgamma(k / 2.0 + alpha + 1.0))


def scalar_recurrence(n, alpha, x):
    """G_{n-1} and G_n at x, n >= 1, one degree at a time with scalar coefficients."""
    g0, g1 = np.ones_like(x), x.copy()
    for k in range(2, n + 1):
        c1 = 2.0 * (k + alpha - 1.0) / (k + 2.0 * alpha - 1.0)
        c2 = (k - 1.0) / (k + 2.0 * alpha - 1.0)
        g0, g1 = g1, c1 * x * g1 - c2 * g0
    return g0, g1


def recurrence_coefficients(n, alpha):
    """b_j = sqrt(beta_j), j = 1..n: the off-diagonal of the Jacobi matrix, coupling rows j-1 and j."""
    k = np.arange(2.0, n + 1.0)
    beta = np.empty(n)
    beta[:1] = 1.0 / (2.0 * (alpha + 1.0))
    beta[1:] = k * (k + 2.0 * alpha - 1.0) / (4.0 * (k + alpha) * (k + alpha - 1.0))
    return np.sqrt(beta)


def polished(n, alpha, nodes, weights):
    """Newton polish with a float alpha and exact symmetrization, as for one rule alone.

    G_{n+1}' comes from (1 - x^2) G_{n+1}' = (n + 1) (G_n - x G_{n+1}), as in the
    package: the last step moves a node by a few ulps, which the other G' can round
    apart.  Returns nodes, weights and the number of Newton steps taken.
    """
    for steps in range(1, 11):
        g_n, g = scalar_recurrence(n + 1, alpha, nodes)
        step = g / ((n + 1) * (g_n - nodes * g) / (1.0 - nodes * nodes))
        nodes = nodes - step
        if np.max(np.abs(step)) <= 4.0 * EPS_MACH:
            break
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if n % 2 == 0:
        nodes[n // 2] = 0.0
    return nodes, weights, steps


def oracle_nodes_weights(n, alpha):
    """One rule alone: the values-only SVD of its own half-size block B, then the polish.

    T = [[0, B], [B^T, 0]] with the even-index rows first, so b_j sits at
    B[j // 2, (j - 1) // 2].  The weights come from the left singular
    vectors of a second SVD of B.  Returns nodes, weights and the Newton
    steps.
    """
    rows, cols = n // 2 + 1, (n + 1) // 2
    block = np.zeros((rows, cols))
    for j, b in enumerate(recurrence_coefficients(n, alpha), start=1):
        block[j // 2, (j - 1) // 2] = b
    s = np.linalg.svd(block, compute_uv=False)
    u = np.linalg.svd(block)[0]
    first = total_mass(alpha) * u[0] ** 2
    nodes = np.concatenate([-s, np.zeros(rows - cols), s[::-1]])
    weights = np.concatenate([first[:cols] / 2, first[cols:], first[:cols][::-1] / 2])
    return polished(n, alpha, nodes, weights)


def golub_welsch(n, alpha):
    """scipy's tridiagonal eigensolve of the whole Jacobi matrix, then the polish."""
    nodes, vectors = eigh_tridiagonal(np.zeros(n + 1), recurrence_coefficients(n, alpha))
    return polished(n, alpha, nodes, total_mass(alpha) * vectors[0] ** 2)[:2]


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(rules, "_RULES", OrderedDict())


@pytest.fixture
def svds(monkeypatch):
    """The shapes of the stacks passed to numpy's SVD, in call order, with whether U was asked for."""
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append((a.shape, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


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
        assert len(rule) == n + 1
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
    # the singular-vector weights are the reference here: on these moments
    # scipy.special.roots_gegenbauer errs by up to 4e-9 (n = 640, alpha = -0.4)
    @pytest.mark.parametrize("alpha", [-0.4999, -0.4, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("n", [80, 400, 640, 1000])
    def test_even_moments(self, n, alpha):
        rule = gg_rule(n, GegenbauerParam(alpha))
        half = mpmath.mpf(1) / 2
        with mpmath.workdps(30):
            for j in (0, 1, 2, 5, 10, n // 4, n // 2):
                exact = float(mpmath.beta(j + half, mpmath.mpf(alpha) + half))
                got = np.sum(rule.weights * rule.nodes ** (2 * j))
                assert abs(got - exact) <= 1e-12 * exact


class TestAgainstGolubWelsch:
    # an independent method: the eigensolve of the whole Jacobi matrix, polished alike;
    # measured at most 1.1e-16 apart in the nodes and 3.7e-11 relative in the weights (n = 640)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 24, 57, 100, 160, 400, 640])
    def test_same_rules_as_the_full_eigensolve(self, n):
        for alpha, (nodes, weights) in zip(GRID, rules._nodes_weights(n, GRID)):
            want_nodes, want_weights = golub_welsch(n, alpha)
            assert np.max(np.abs(nodes - want_nodes)) <= 2.2e-16, alpha
            assert_allclose(weights, want_weights, rtol=1e-10, atol=0, err_msg=str(alpha))


@pytest.mark.usefixtures("empty_cache")
class TestBatchedRules:
    # feasibility flags turn on single ulps of the nodes, so only equal bits pass
    @pytest.mark.parametrize("n", list(range(1, 101)) + [160, 320, 400, 640, 1000])
    def test_bit_identical_to_one_rule_at_a_time(self, n):
        for alpha, (nodes, weights) in zip(GRID, rules._nodes_weights(n, GRID)):
            want_nodes, want_weights, _ = oracle_nodes_weights(n, alpha)
            assert np.array_equal(nodes, want_nodes), alpha
            assert np.array_equal(weights, want_weights), alpha

    def test_rows_stop_after_their_own_step_counts(self):
        # every rule of the grid takes one Newton step from the values-only SVD's nodes; a row
        # started 1e-7 off takes more, and each row polishes to the same bits as alone
        alphas = (-0.4, 0.5, 2.0)
        start = [x + 1e-7 * (alpha == 0.5) * np.sign(x)
                 for alpha, x in ((a, oracle_nodes_weights(24, a)[0]) for a in alphas)]
        want = [polished(24, alpha, x, np.ones(25)) for alpha, x in zip(alphas, start)]
        assert [steps for _, _, steps in want] == [1, 3, 1]
        batch = np.array([x[13:] for x in start])
        rules._polish(24, alphas, batch)
        for alpha, x, row, (nodes, _, _) in zip(alphas, start, batch, want):
            alone = x[None, 13:].copy()
            rules._polish(24, (alpha,), alone)
            assert np.array_equal(row, alone[0]) and np.array_equal(row, nodes[13:])

    def test_batch_fills_the_cache_of_gg_rule(self, svds):
        # the nodes from a values-only SVD, the weights from a second one with U
        batch = rules._nodes_weights(30, GRID)
        assert svds == [((len(GRID), 16, 15), False), ((len(GRID), 16, 15), True)]
        for alpha, (nodes, weights) in zip(GRID, batch):
            rule = gg_rule(30, GegenbauerParam(alpha))
            assert rule.nodes is nodes and rule.weights is weights
        assert lg_rule(30).nodes is batch[GRID.index(0.5)][0]
        assert rules._nodes(30, GRID)[3] is batch[3][0]
        assert len(svds) == 2

    def test_batch_computes_only_the_missing_rules(self, svds):
        cached = gg_rule(12, GegenbauerParam(1.0))
        batch = rules._nodes_weights(12, (0.0, 1.0, 2.0, 0.0))
        assert svds == [((1, 7, 6), False), ((1, 7, 6), True), ((2, 7, 6), False), ((2, 7, 6), True)]
        assert batch[1][0] is cached.nodes and batch[3][0] is batch[0][0]

    def test_weights_are_added_to_cached_nodes(self, svds):
        nodes = rules._nodes(12, (0.0, 1.0))
        assert svds == [((2, 7, 6), False)]
        assert [w for (n, _), (_, w) in rules._RULES.items() if n == 12] == [None, None]
        batch = rules._nodes_weights(12, (1.0, 2.0))
        assert svds[1:] == [((1, 7, 6), False), ((2, 7, 6), True)]
        assert batch[0][0] is nodes[1] and gg_rule(12, GegenbauerParam(1.0)).weights is batch[0][1]
        assert rules._RULES[12, 0.0][1] is None

    def test_chunks_keep_the_bits(self, svds, monkeypatch):
        # 240 elements per alpha at n = 30: a budget of 1000 takes 4 alpha per SVD
        monkeypatch.setattr(rules, "_BATCH_ELEMENTS", 1000)
        batch = rules._nodes_weights(30, GRID)
        chunks = [(4, 16, 15)] * 6 + [(1, 16, 15)]
        assert svds == [(shape, False) for shape in chunks] + [(shape, True) for shape in chunks]
        for alpha, (nodes, weights) in zip(GRID, batch):
            want_nodes, want_weights, _ = oracle_nodes_weights(30, alpha)
            assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)

    def test_benchmark_batches_are_one_chunk(self):
        # quadbench at n = 320 with 10 alpha is the largest batch of the benchmark commands
        assert len(rules._chunks(320, [0.5] * 10)) == len(rules._chunks(100, GRID)) == 1
        assert len(rules._chunks(1000, [0.5] * 3)) == 3

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(rules, "_CACHE_SIZE", 4)
        rules._nodes_weights(3, (0.0, 0.1, 0.2))
        rules._nodes_weights(3, (0.0, 0.3, 0.4))  # 0.0 is a hit, so 0.1 goes first
        assert list(rules._RULES) == [(3, 0.2), (3, 0.0), (3, 0.3), (3, 0.4)]
        rules._nodes_weights(4, GRID[:6])  # a larger batch is kept whole
        assert list(rules._RULES) == [(4, a) for a in GRID[:6]]
        rules._nodes_weights(4, GRID[:3] + GRID[6:9])  # hits and new rules alike
        assert list(rules._RULES) == [(4, a) for a in GRID[:3] + GRID[6:9]]

    def test_threads_share_the_cache(self, monkeypatch):
        # a small cache evicts while other threads read it
        monkeypatch.setattr(rules, "_CACHE_SIZE", 3)
        want = {a: oracle_nodes_weights(6, a)[0] for a in GRID}
        errors = []

        def work(offset):
            try:
                for i in range(500):
                    alpha = GRID[(offset + 7 * i) % len(GRID)]
                    got = gg_rule(6, GegenbauerParam(alpha)).nodes
                    if not np.array_equal(got, want[alpha]):
                        errors.append(alpha)
                    rules._nodes_weights(6, GRID[i % 5:i % 5 + 4])
            except Exception as exc:  # reported through errors below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(rules._RULES) <= 4

    def test_rejects_a_non_integer_degree(self):
        with pytest.raises(ValueError):
            rules._nodes_weights(2.5, (0.5,))


@pytest.mark.usefixtures("empty_cache")
class TestMomentCheck:
    def test_large_alpha_raises(self):
        # n = 640, alpha = 30: nodes ordered and weights positive, but the
        # weights near +-1 have lost every digit
        with pytest.raises(ConvergenceError, match="n=640, alpha=30.0: even-moment error"):
            gg_rule(640, GegenbauerParam(30.0))
        with pytest.raises(ConvergenceError, match="n=640, alpha=30.0: even-moment error"):
            rules._nodes(640, (30.0,))

    def test_the_first_failing_alpha_names_itself_and_nothing_is_cached(self):
        with pytest.raises(ConvergenceError, match="alpha=10.0"):
            rules._nodes_weights(640, (1.0, 10.0, 30.0))
        assert not rules._RULES

    def test_an_svd_that_does_not_converge_raises_and_caches_nothing(self):
        # at alpha = 1e308 beta overflows to NaN, and LAPACK gives up on the block (without a
        # numpy warning, which the test configuration turns into an error)
        with pytest.raises(ConvergenceError, match=r"SVD failed for n=3, alpha in \[1e\+308\]"):
            gg_rule(3, GegenbauerParam(1e308))
        with pytest.raises(ConvergenceError, match="SVD failed"):
            rules._nodes_weights(3, (0.5, 1e308))  # one chunk: its other rule is not cached either
        assert not rules._RULES

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_an_alpha_past_what_lgamma_resolves_raises(self, n):
        # the moment and, in the weights, the mass come from lgamma, which errs by about x ln x
        # ulps: from about alpha = 1.2e5 that passes the tolerance (the mass at alpha = 1e8 is
        # off by 2.4e-7), and from 2.5e305 lgamma overflows.  At n <= 1 the moment checked is
        # the mass itself, so only this bound stops those alphas
        with mpmath.workdps(30):
            mass = float(mpmath.beta(0.5, mpmath.mpf(1e5) + 0.5))
        assert abs(gg_rule(n, GegenbauerParam(1e5)).weights.sum() - mass) <= rules.MOMENT_RTOL * mass
        for alpha in (1.2e5, 1e8, 1e50) + ((3e305,) if n <= 1 else ()):
            with pytest.raises(ConvergenceError, match=re.escape(f"n={n}, alpha={alpha}: even-moment error")):
                gg_rule(n, GegenbauerParam(alpha))
        assert list(rules._RULES) == [(n, 1e5)]

    @pytest.mark.parametrize("n", [1, 2, 17, 100, 400, 640, 1000])
    def test_margin_in_the_tested_domain(self, n, monkeypatch):
        # alpha in (-1/2, 2]; near -1/2 the mass diverges
        monkeypatch.setattr(rules, "MOMENT_RTOL", rules.MOMENT_RTOL / 100.0)
        rules._nodes_weights(n, (-0.4999999, -0.49999, -0.499, -0.45, -0.2, 0.0, 0.5, 1.0, 1.55, 1.95, 2.0))


@pytest.mark.usefixtures("empty_cache")
class TestScreenNodes:
    # the nodes that the feasibility check screens are the node source's, rules._nodes: the
    # values-only SVD's nodes, which the builders, gg_rule and lg_rule share; inside the
    # node-only range nothing takes U
    @pytest.mark.parametrize("n", range(101))
    def test_near_the_rule_nodes(self, n, svds):
        grid = tuple(round(-0.45 + 0.05 * i, 12) for i in range(50)) + rules._NODE_ONLY_ALPHAS
        nodes = rules._nodes(n, grid)
        assert {compute_uv for _, compute_uv in svds} == {False}
        assert all(w is None for _, w in rules._RULES.values())
        for x, (want, _) in zip(nodes, rules._nodes_weights(n, grid)):
            assert x is want

    @pytest.mark.parametrize("n", [160, 320, 640, 1000])
    def test_near_the_rule_nodes_at_large_degree(self, n, svds):
        grid = (-0.4999999, -0.4999, -0.4, 0.5, 1.0, 2.0)
        nodes = rules._nodes(n, grid)
        assert {compute_uv for _, compute_uv in svds} == {False}
        for alpha, x in zip(grid, nodes):
            assert np.array_equal(x, oracle_nodes_weights(n, alpha)[0]), alpha

    def test_outside_the_range_the_weights_are_checked(self, svds):
        # (30, 50) holds, so its weights are cached with its nodes; (640, 10) fails its
        # moment check, so its nodes raise as its rule does
        nodes = rules._nodes(30, (0.5, 50.0))
        assert svds == [((2, 16, 15), False), ((1, 16, 15), True)]
        assert rules._RULES[30, 0.5][1] is None and gg_rule(30, GegenbauerParam(50.0)).nodes is nodes[1]
        assert len(svds) == 2
        with pytest.raises(ConvergenceError, match="n=640, alpha=10.0: even-moment error"):
            rules._nodes(640, (1.0, 10.0))
        with pytest.raises(ConvergenceError, match="n=1001, alpha=0.5: even-moment error"), \
                pytest.MonkeyPatch.context() as patch:
            patch.setattr(rules, "MOMENT_RTOL", 0.0)  # past the degree bound every rule is checked
            rules._nodes(1001, (0.5,))
        assert list(rules._RULES) == [(30, 0.5), (30, 50.0)]


class TestScreenedRange:
    # inside the range the node source skips the weights' checks, so every rule there must
    # pass them, or a ConvergenceError would go unraised: pin rules._NODE_ONLY_ALPHAS
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 100, 400, 640, 999, 1000])
    def test_rules_at_the_ends_hold(self, n, empty_cache):
        assert n <= rules._NODE_ONLY_DEGREE
        rules._nodes_weights(n, rules._NODE_ONLY_ALPHAS)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 1000), alpha=st.floats(*rules._NODE_ONLY_ALPHAS))
    def test_random_rules_inside_hold(self, n, alpha):
        with rules._LOCK:
            rules._RULES.pop((n, alpha), None)
        rules._nodes_weights(n, (alpha,))


class TestNodeOnOne:
    # within about 1e-11 of -1/2 an end node rounds onto 1: the polish stops that row before
    # it divides by 1 - x^2 = 0, so the order check raises with no numpy warning (the test
    # configuration turns a RuntimeWarning into an error)
    @pytest.mark.parametrize("n", [640, 1000])
    def test_raises_without_a_warning(self, n, empty_cache):
        with pytest.raises(ConvergenceError, match=f"n={n}, alpha=-0.499999999999: nodes not ordered"):
            rules._nodes(n, (0.5, -0.5 + 1e-12))
        assert not rules._RULES

    @pytest.mark.parametrize("n, alpha", [(320, -0.5 + 1e-11), (640, -0.5 + 1e-10)])
    def test_a_singular_value_on_one_starts_below_it(self, n, alpha, empty_cache):
        # the largest singular value rounds onto 1 (n = 320) or past it (n = 640), but the
        # zero lies below 1: the polish starts from the largest double below 1.  So close to
        # 1 its G' cancels, and the end node lands within two ulps of the zero (measured 0.75
        # and 1.4; the nodes from the SVD with vectors read 1.2 and 0.6)
        assert rules._svd(n, [alpha], compute_uv=False).max() >= 1.0
        x = rules._nodes(n, (alpha,))[0][-1]
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)

            def g(t):  # G_{n+1}(t), the recurrence in 40 digits
                g0, g1 = mpmath.mpf(1), t
                for k in range(2, n + 2):
                    g0, g1 = g1, (2 * (k + a - 1) * t * g1 - (k - 1) * g0) / (k + 2 * a - 1)
                return g1

            zero = mpmath.findroot(g, (mpmath.mpf(x) - mpmath.mpf(1e-13), mpmath.mpf(1)), solver="illinois")
            assert x < 1.0 and abs(x - zero) <= 2 * mpmath.mpf(2.0) ** -53

    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_nodes_that_are_not_numbers_raise(self, n, empty_cache):
        # at the next double above -1/2 the recurrence divides by 0 and the polish gives NaN
        alpha = math.nextafter(-0.5, 0.0)
        with pytest.raises(ConvergenceError, match="nodes not ordered"):  # and numpy does not warn
            rules._nodes(n, (alpha,))
        assert not rules._RULES

    def test_other_rows_of_the_batch_keep_their_bits(self, empty_cache):
        nodes = np.array([[0.25, 1.0], [0.25, 0.5]])
        rules._polish(3, (-0.5 + 1e-12, 0.5), nodes)
        assert nodes[0].tolist() == [0.25, 1.0]
        want = np.array([[0.25, 0.5]])
        rules._polish(3, (0.5,), want)
        assert np.array_equal(nodes[1], want[0])


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

    @pytest.mark.parametrize("text", [
        "", "n,alpha\n3,0.5\n",
        # truncated texts, which used to raise IndexError or an unpacking error
        "kind,n,alpha\n", "kind,n,alpha\nGG,1,0.5\n", "kind,n,alpha\nGG,1,0.5\n-0.5\n0.5\n",
        "kind,n,alpha\nGG,1\n-0.5,1.0\n0.5,1.0\n",
        # metadata that the rows contradict, or rows that are no Gauss rule
        "kind,n,alpha\nGG,5,0.5\n-0.5,1.0\n0.5,1.0\n", "kind,n,alpha\nXX,1,0.5\n0.3,1.0\n0.1,-0.4\n",
        "kind,n,alpha\nXX,1,0.5\n-0.5,1.0\n0.5,1.0\n", "kind,n,alpha\nLG,1,3\n-0.5,1.0\n0.5,1.0\n",
        "kind,n,alpha\nGG,1,-2\n-0.5,1.0\n0.5,1.0\n", "kind,n,alpha\nGG,-1,0.5\n-0.5,1.0\n0.5,1.0\n",
        "kind,n,alpha\nGG,1.5,0.5\n-0.5,1.0\n0.5,1.0\n", "kind,n,alpha\nGG,1,nan\n-0.5,1.0\n0.5,1.0\n",
        "kind,n,alpha\nGG,1,0.5\n0.5,1.0\n-0.5,1.0\n", "kind,n,alpha\nGG,1,0.5\n-0.5,1.0\n-0.5,1.0\n",
        "kind,n,alpha\nGG,1,0.5\n-1.0,1.0\n0.5,1.0\n", "kind,n,alpha\nGG,1,0.5\n-0.5,nan\n0.5,1.0\n",
        "kind,n,alpha\nGG,1,0.5\n-0.5,0.0\n0.5,1.0\n", "kind,n,alpha\nGG,1,0.5\n-0.5,inf\n0.5,1.0\n",
        "kind,n,alpha\nGG,1,0.5\n-0.5,1.0\nnan,1.0\n"])
    def test_not_a_rule_csv_rejected(self, text):
        with pytest.raises(ValueError, match="not a quadrature-rule CSV"):
            rule_from_csv(io.StringIO(text))

    def test_read_rule_is_read_only(self):
        buf = io.StringIO()
        rule_to_csv(gg_rule(3, GegenbauerParam(0.5)), buf)
        back = rule_from_csv(io.StringIO(buf.getvalue()))
        assert not back.nodes.flags.writeable and not back.weights.flags.writeable

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
