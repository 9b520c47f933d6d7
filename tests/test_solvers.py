"""Tests for the collocation solvers and their linear-algebra helpers."""

import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from baryquad import solvers
from baryquad import (CollisionError, CollocationSolution, ConvergenceError, GegenbauerParam,
                      bary_weights_gg, build_gim_arbitrary, build_gim_gg, condition_number_2,
                      gg_rule, map_to_unit, newton_solve, solution_to_csv, solve_example1,
                      solve_example2)
from baryquad.polynomials import EPS_MACH
from baryquad.solvers import _example2_system, _unit_interval_operators


class TestNewton:
    def test_linear_residual_one_step(self):
        c = np.array([1.0, -2.0, 0.5])
        x = newton_solve(lambda v: v - c, np.zeros(3), jacobian=lambda v: np.eye(3))
        assert_allclose(x, c, atol=1e-14)

    def test_scalar_quadratic(self):
        x = newton_solve(lambda v: v ** 2 - 4.0, np.array([3.0]), jacobian=lambda v: np.diag(2.0 * v))
        assert abs(x[0] - 2.0) <= 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            newton_solve(lambda v: v, np.array([]), jacobian=lambda v: np.eye(v.size))

    def test_residual_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="residual dimension must match"):
            newton_solve(lambda v: np.ones(3), np.zeros(2), jacobian=lambda v: np.zeros((3, 2)))

    def test_singular_jacobian_reported(self):
        with pytest.raises(ConvergenceError, match=r"singular Jacobian \(residual max-norm 1\.000e\+00\)"):
            newton_solve(lambda v: v - 1.0, np.zeros(2), jacobian=lambda v: np.zeros((2, 2)))

    def test_converges_on_the_last_allowed_iteration(self):
        # one exact step solves a linear residual; the check after the loop accepts it
        c = np.array([1.0, -2.0, 0.5])
        x = newton_solve(lambda v: v - c, np.zeros(3), max_iter=1, jacobian=lambda v: np.eye(3))
        assert np.array_equal(x, c)

    def test_non_convergence_reported(self):
        # e^v: every Newton step is -1 and is accepted at once, and divides the
        # residual by e, so 5 iterations from 0 leave it at e^-5
        with pytest.raises(ConvergenceError,
                           match=r"no convergence in 5 iterations \(residual max-norm 6\.738e-03\)"):
            newton_solve(np.exp, np.array([0.0]), max_iter=5, jacobian=lambda v: np.diag(np.exp(v)))

    def test_exhausted_line_search_raises(self):
        # |v| + 1 is smallest at v = 0, where no step decreases it; its
        # right derivative there is 1, so the Newton step is -1
        with pytest.raises(ConvergenceError, match=r"no decrease \(residual max-norm 1\.000e\+00\)"):
            newton_solve(lambda v: np.abs(v) + 1.0, np.array([0.0]),
                         jacobian=lambda v: np.diag(np.where(v < 0.0, -1.0, 1.0)))

    def test_accepted_step_reuses_line_search_residual(self):
        # the loop as it was when the residual was evaluated again at the
        # accepted point; same iterates, one more evaluation per iteration
        def reference(residual, jacobian, x):
            r = residual(x)
            iterations = 0
            while np.max(np.abs(r)) > 1e-12:
                rnorm = np.max(np.abs(r))
                step = np.linalg.solve(jacobian(x), -r)
                lam = 1.0
                while np.max(np.abs(residual(x + lam * step))) >= rnorm:
                    lam *= 0.5
                x = x + lam * step
                r = residual(x)
                iterations += 1
            return x, iterations

        def counted(fn):
            def residual(v):
                residual.calls += 1
                return fn(v)
            residual.calls = 0
            return residual

        for fn, jacobian, x0 in (
                (lambda v: np.arctan(v), lambda v: np.diag(1.0 / (1.0 + v * v)), [20.0]),
                (lambda v: np.array([v[0] ** 3 + v[1] - 1.0, v[1] ** 3 - v[0] + 1.0]),
                 lambda v: np.array([[3.0 * v[0] ** 2, 1.0], [-1.0, 3.0 * v[1] ** 2]]), [2.0, -3.0])):
            old, new = counted(fn), counted(fn)
            want, iterations = reference(old, jacobian, np.array(x0))
            got = newton_solve(new, np.array(x0), jacobian=jacobian)
            assert iterations > 1
            assert np.array_equal(got, want)
            assert new.calls == old.calls - iterations

    def test_damping_handles_overshoot(self):
        # steep residual where the full step overshoots from far away
        x = newton_solve(lambda v: np.arctan(v), np.array([20.0]),
                         jacobian=lambda v: np.diag(1.0 / (1.0 + v * v)))
        assert abs(x[0]) <= 1e-12


class TestConditionNumber:
    def test_identity(self):
        assert condition_number_2(np.eye(4)) == pytest.approx(1.0, rel=1e-14)

    def test_diagonal(self):
        assert condition_number_2(np.diag([10.0, 1.0])) == pytest.approx(10.0, rel=1e-14)

    def test_singular_gives_infinity(self):
        a = np.diag([1.0, 0.0, 2.0])
        assert condition_number_2(a) == math.inf

    def test_zero_matrix_gives_infinity(self):
        # 0 / 0 is reported as inf, with no RuntimeWarning (an error under pytest here)
        assert condition_number_2(np.zeros((3, 3))) == math.inf

    def test_equals_quotient_of_singular_values_bitwise(self, rng):
        for n in (2, 7, 30):
            a = rng.normal(size=(n, n))
            sigma = np.linalg.svd(a, compute_uv=False)
            assert condition_number_2(a) == float(sigma[0] / sigma[-1])

    def test_matches_power_iteration_oracle(self, rng):
        a = rng.normal(size=(5, 5))
        # power iteration on A^T A for sigma_max, on (A^T A)^-1 for sigma_min
        ata = a.T @ a
        v = rng.normal(size=5)
        for _ in range(8000):
            v = ata @ v
            v /= np.linalg.norm(v)
        smax = math.sqrt(v @ ata @ v)
        inv = np.linalg.inv(ata)
        w = rng.normal(size=5)
        for _ in range(8000):
            w = inv @ w
            w /= np.linalg.norm(w)
        smin = math.sqrt(w @ ata @ w)
        assert condition_number_2(a) == pytest.approx(smax / smin, rel=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            condition_number_2(np.ones((2, 3)))


class TestExample1:
    def test_best_reported_parameter(self):
        sol = solve_example1(10, 14, GegenbauerParam(0.7))
        assert sol.mae <= 5e-14
        assert 30.0 <= sol.kappa2 <= 50.0
        assert sol.cd == pytest.approx(-math.log10(sol.mae))

    def test_interval_mapping_law(self):
        m = map_to_unit(build_gim_gg(10, GegenbauerParam(0.7)))
        assert_allclose(m.entries @ np.ones(11), m.target_nodes, atol=1e-13)

    def test_mae_non_increasing_in_expansion_degree(self):
        maes = [solve_example1(10, m, GegenbauerParam(0.5)).mae for m in (8, 10, 12, 14)]
        # non-strict decrease until the rounding floor takes over
        for a, b in zip(maes, maes[1:]):
            assert b <= max(a, 1e-13)
        assert maes[-1] < maes[0]

    def test_deterministic(self):
        s1 = solve_example1(10, 14, GegenbauerParam(0.3))
        s2 = solve_example1(10, 14, GegenbauerParam(0.3))
        assert np.array_equal(s1.values, s2.values)
        assert s1.mae == s2.mae and s1.kappa2 == s2.kappa2


def _differentiation_kappa2(n, param):
    """kappa_2 and MAE of example 1 collocated in differential form on the same Gauss nodes.

    The test-only oracle for the paper's conditioning claim: y' - y - K y = g at the nodes,
    with the barycentric differentiation matrix for y' and the same endpoint row for the
    kernel integral, and y(0) = 1 through the interpolant's value at 0 in place of the
    first equation.
    """
    x, s, _, endpoint = _unit_interval_operators(n, param)
    xi = bary_weights_gg(gg_rule(n, param)).xi
    d = (xi[None, :] / xi[:, None]) / (x[:, None] - x[None, :] + np.eye(n + 1))
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    a = 2.0 * d - np.eye(n + 1) - np.exp(np.outer(s, s)) * endpoint[None, :]
    at_zero = xi / (-1.0 - x)
    a[0] = at_zero / at_zero.sum()
    b = (1.0 - np.exp(s + 1.0)) / (s + 1.0)
    b[0] = 1.0
    return condition_number_2(a), float(np.max(np.abs(np.linalg.solve(a, b) - np.exp(s))))


class TestConditioningClaim:
    """The paper's "well-conditioned systems": the integral form's kappa_2 stays flat in n."""

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.0, 2.0])
    def test_integral_form_stays_well_conditioned(self, alpha):
        # measured 35.3-54.5 over these n and alpha, 40.2 at (640, 0.5) and 54.5 at (640, 2)
        for n in (10, 40, 160, 640):
            assert solve_example1(n, 14, GegenbauerParam(alpha)).kappa2 <= 60.0, n

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.0, 2.0])
    def test_differential_form_grows_at_least_like_n_squared(self, alpha):
        # measured at alpha = 0.5: 3.7e5 at n = 40 and 4.8e8 at n = 640, about n^2.6
        low, low_mae = _differentiation_kappa2(40, GegenbauerParam(alpha))
        high, _ = _differentiation_kappa2(640, GegenbauerParam(alpha))
        assert low_mae <= 1e-10  # the oracle solves the same problem
        assert high / low >= (640 / 40) ** 2


class TestEndpointRow:
    """The solvers' endpoint row is their square matrix's full-interval row, halved."""

    @pytest.mark.parametrize("n, alpha", [(0, 0.5), (1, -0.4), (9, 0.5), (10, 0.7), (16, 1.0),
                                          (80, 2.0), (160, 1.0), (240, 0.0)])
    def test_integrates_the_unit_interval(self, n, alpha):
        # (16, 1) and (160, 1) collide, so their square matrix is the bumped one.
        # Measured at most 1.0 (n + 1) eps on the monomials (at n = 0) and
        # 0.5 (n + 1) eps from the arbitrary-target row (at n = 1)
        param = GegenbauerParam(alpha)
        _, s, _, endpoint = _unit_interval_operators(n, param)
        bound = 4 * (n + 1) * EPS_MACH
        for k in range(n + 1):
            assert abs(endpoint @ s ** k - 1.0 / (k + 1)) <= bound
        row = build_gim_arbitrary(1.0, n, param).entries[0] / 2.0
        assert np.max(np.abs(endpoint - row)) <= bound


class TestInfeasiblePairs:
    """The solvers build their square matrix with the bumped variant, so they
    solve at the pairs where the plain one refuses."""

    def test_example1_at_sixteen_and_one(self):
        param = GegenbauerParam(1.0)
        with pytest.raises(CollisionError):
            build_gim_gg(16, param)
        sol = solve_example1(16, 14, param)
        # measured: MAE 4.80e-14, kappa2 36.87
        assert sol.mae <= 5e-14
        assert 30.0 <= sol.kappa2 <= 50.0

    def test_example2_at_one_hundred_sixty_and_one(self):
        param = GegenbauerParam(1.0)
        with pytest.raises(CollisionError):
            build_gim_gg(160, param)
        # measured: MAE 7.77e-16, 15.11 digits
        assert solve_example2(160, param).cd >= 13.5


class TestExample2:
    def test_ten_point_run(self):
        sol = solve_example2(9, GegenbauerParam(0.5))
        assert sol.cd >= 6.0
        assert sol.kappa2 is None

    def test_residual_at_solution_is_small(self):
        sol = solve_example2(9, GegenbauerParam(0.5))
        residual = _example2_system(sol.n, GegenbauerParam(sol.alpha))[1]
        assert np.max(np.abs(residual(sol.values))) <= 1e-10

    def test_exact_samples_nearly_annihilate_residual(self):
        sol = solve_example2(9, GegenbauerParam(0.5))
        residual = _example2_system(sol.n, GegenbauerParam(sol.alpha))[1]
        # discretization error scale, far above solver tolerance
        assert np.max(np.abs(residual(sol.exact))) <= 1e-5
        assert np.max(np.abs(residual(sol.exact))) >= 1e-12

    def test_correct_digits_increase_with_degree(self):
        cds = [solve_example2(n, GegenbauerParam(0.5)).cd for n in (6, 7, 9)]
        assert cds[0] < cds[1] < cds[2]

    def test_deterministic(self):
        s1 = solve_example2(7, GegenbauerParam(0.0))
        s2 = solve_example2(7, GegenbauerParam(0.0))
        assert np.array_equal(s1.values, s2.values)

    def test_boundary_values_recovered(self):
        # the reformulation pins u(0) = 1 and u(1) = sqrt(2)/2 identically;
        # interpolating the nodal solution to the boundary reproduces them
        # to discretization accuracy
        from baryquad import bary_eval, bary_weights_gg, gg_rule

        sol = solve_example2(9, GegenbauerParam(0.5))
        rule = gg_rule(9, GegenbauerParam(0.5))
        basis = bary_weights_gg(rule)
        u0 = bary_eval(basis, sol.values, -1.0)   # node coordinates on [-1, 1]
        u1 = bary_eval(basis, sol.values, 1.0)
        assert u0 == pytest.approx(1.0, abs=5e-6)
        assert u1 == pytest.approx(math.sqrt(2) / 2, abs=5e-6)


class TestExample2Jacobian:
    @pytest.mark.parametrize("alpha", [-0.4, 0.5])
    @pytest.mark.parametrize("n", [9, 80])
    def test_matches_central_difference(self, n, alpha):
        param = GegenbauerParam(alpha)
        _, residual, jacobian = _example2_system(n, param)
        for u in (np.ones(n + 1), solve_example2(n, param).values):
            want = np.empty((n + 1, n + 1))
            for i in range(n + 1):
                h = 1e-6 * max(1.0, abs(u[i]))
                up, um = u.copy(), u.copy()
                up[i] += h
                um[i] -= h
                want[:, i] = (residual(up) - residual(um)) / (2.0 * h)
            got = jacobian(u)
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(got))

    def test_no_finite_difference_sweep(self, monkeypatch):
        # every residual call after the first must be a line-search trial,
        # x + 2^-i step on the Newton ray of the latest Jacobian
        events = []
        real = solvers.newton_solve

        def spy(residual, x0, jacobian=None, **kwargs):
            def counted_residual(u):
                r = residual(u)
                events.append(("r", u.copy(), r))
                return r

            def counted_jacobian(u):
                jac = jacobian(u)
                events.append(("j", u.copy(), jac))
                return jac

            assert jacobian is not None
            return real(counted_residual, x0, jacobian=counted_jacobian, **kwargs)

        monkeypatch.setattr(solvers, "newton_solve", spy)
        n = 80
        solve_example2(n, GegenbauerParam(0.5))
        calls = iterations = trials = 0
        rays = []
        for kind, u, value in events:
            if kind == "j":
                iterations += 1
                step = np.linalg.solve(value, -last)
                rays = [u + lam * step for lam in 0.5 ** np.arange(30)]
            else:
                calls += 1
                trials += any(np.array_equal(u, t) for t in rays)
                last = value
        assert iterations >= 1
        assert calls <= iterations + trials
        assert calls < n + 1  # fewer than one finite-difference sweep

    @pytest.mark.parametrize("alpha", [-0.4, 0.5])
    @pytest.mark.parametrize("n", [80, 160, 240])
    def test_large_n_accuracy(self, n, alpha):
        assert solve_example2(n, GegenbauerParam(alpha)).cd >= 13.5


class TestSolutionArrays:
    def test_holds_read_only_views_of_writeable_arrays(self):
        given = {"nodes": np.array([0.0, 1.0]), "values": np.array([1.0, 2.0]),
                 "exact": np.array([1.0, 2.5])}
        sol = CollocationSolution(mae=0.5, cd=0.3, kappa2=None, n=1, m=None, alpha=0.5, **given)
        for name, array in given.items():
            assert array.flags.writeable and not getattr(sol, name).flags.writeable, name
            assert np.shares_memory(getattr(sol, name), array), name


class TestSolutionCsv:
    def test_format(self):
        sol = solve_example1(6, 8, GegenbauerParam(0.5))
        buf = io.StringIO()
        solution_to_csv(sol, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,m,alpha,mae,cd,kappa2"
        meta = lines[1].split(",")
        assert meta[0] == "6" and meta[1] == "8"
        assert lines[2] == "x,u_approx,u_exact,abs_error"
        assert len(lines) == 3 + 7
        row = [float(v) for v in lines[3].split(",")]
        assert row[3] == abs(row[1] - row[2])

    def test_nonlinear_solution_has_blank_kappa(self):
        sol = solve_example2(6, GegenbauerParam(0.5))
        buf = io.StringIO()
        solution_to_csv(sol, buf)
        meta = buf.getvalue().splitlines()[1].split(",")
        assert meta[1] == "" and meta[5] == ""

    @pytest.mark.parametrize("m, kappa2, meta", [
        (3, 12.5, "1,3,0.5,0.5,0.3010299956639812,12.5"),
        (None, None, "1,,0.5,0.5,0.3010299956639812,"),
    ])
    def test_literal_bytes(self, tmp_path, m, kappa2, meta):
        sol = CollocationSolution(nodes=[0.25, 0.75], values=[1.0, 2.0], exact=[1.0, 2.5],
                                  mae=0.5, cd=math.log10(2.0), kappa2=kappa2, n=1, m=m, alpha=0.5)
        want = ("n,m,alpha,mae,cd,kappa2\n" + meta + "\n" + "x,u_approx,u_exact,abs_error\n"
                "0.25,1,1,0\n0.75,2,2.5,0.5\n")
        buf = io.StringIO()
        solution_to_csv(sol, buf)
        assert buf.getvalue() == want
        path = tmp_path / "sol.csv"
        solution_to_csv(sol, str(path))
        assert path.read_bytes() == want.encode()
