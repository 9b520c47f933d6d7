"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines with their timings.
"""

import time

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from baryquad import (CollisionError, GegenbauerParam, OptimalConfig, apply_quadrature,
                      build_basis_gim, build_gim_arbitrary, build_gim_gg, build_optimal_gim,
                      build_optimal_gim_symmetric, check_gg_condition, gg_rule, map_to_unit,
                      qth_order_gim, solve_example1, solve_example2)

pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")

ALPHA_SCAN = [round(0.1 * k, 10) for k in range(-4, 11)]  # -0.4(0.1)1


def verdict(name, ok, runtime, limit, detail):
    status = "PASS" if ok and runtime < limit else "FAIL"
    print(f"[{status}] {name}: {detail} ({runtime:.2f}s / limit {limit:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert runtime < limit, f"{name}: runtime {runtime:.2f}s exceeded {limit:.0f}s"


def running_monomial_integral(targets, p):
    targets = np.asarray(targets)
    return (targets ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)


def reference(f, targets):
    return np.array([quad(f, -1.0, float(x), epsabs=1e-14, epsrel=1e-14, limit=500)[0]
                     for x in targets])


def test_polynomial_exactness_suite():
    start = time.perf_counter()
    worst = 0.0
    skipped = []
    for n in (1, 5, 10, 20, 40):
        powers = np.arange(n + 1)
        tol = 1e-12 * (n + 1)
        for alpha in (-0.4, -0.25, 0.0, 0.5, 1.0, 2.0):
            param = GegenbauerParam(alpha)
            matrices = []
            try:
                matrices.append(build_gim_gg(n, param))
            except CollisionError:
                skipped.append(("plain", n, alpha))
            matrices.append(build_gim_gg(n, param, variant="guarded"))
            matrices.append(build_gim_gg(n, param, variant="bumped"))
            matrices.append(build_basis_gim(n, param))
            for m in matrices:
                samples = m.source_nodes[None, :] ** powers[:, None]
                exact = np.stack([running_monomial_integral(m.target_nodes, p) for p in powers])
                err = np.max(np.abs(samples @ m.entries.T - exact))
                worst = max(worst, float(err))
                assert err <= tol, (n, alpha, err)
    runtime = time.perf_counter() - start
    verdict("polynomial exactness suite", True, runtime, 10.0,
            f"max abs error {worst:.2e}, plain skipped at {skipped or 'none'}")


def test_oracle_equivalence_basis_vs_barycentric():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 31):
        for alpha in (-0.25, 0.0, 0.5, 1.0):
            param = GegenbauerParam(alpha)
            basis = build_basis_gim(n, param)
            if check_gg_condition(n, param).feasible:
                bary = build_gim_gg(n, param)
            else:
                bary = build_gim_gg(n, param, variant="bumped")
            worst = max(worst, float(np.max(np.abs(basis.entries - bary.entries))))
    runtime = time.perf_counter() - start
    ok = worst <= 1e-12
    verdict("oracle equivalence (basis vs barycentric)", ok, runtime, 5.0,
            f"max entrywise difference {worst:.2e} <= 1e-12")


def test_spectral_decay_gaussian():
    start = time.perf_counter()
    f = lambda x: np.exp(-x ** 2)
    maxima = {}
    for n in (8, 20):
        m = build_gim_gg(n, GegenbauerParam(0.5))
        err = np.abs(apply_quadrature(m, f(m.source_nodes)) - reference(f, m.target_nodes))
        maxima[n] = float(err.max())
    runtime = time.perf_counter() - start
    ok = maxima[20] <= 1e-12 and maxima[8] / maxima[20] >= 1e6
    verdict("spectral decay for exp(-x^2)", ok, runtime, 5.0,
            f"maxAE(8) {maxima[8]:.2e}, maxAE(20) {maxima[20]:.2e}, "
            f"drop {maxima[8] / maxima[20]:.1e} >= 1e6")


def test_error_parity_runge():
    start = time.perf_counter()
    f = lambda x: 1.0 / (1.0 + 25.0 * x ** 2)
    worst_ratio = 0.0
    for n in (20, 80):
        for alpha in (-0.25, 0.0, 0.5, 1.0):
            param = GegenbauerParam(alpha)
            bary = build_gim_gg(n, param)
            basis = build_basis_gim(n, param)
            ref = reference(f, bary.target_nodes)
            samples = f(bary.source_nodes)
            e_bary = np.abs(apply_quadrature(bary, samples) - ref)
            e_basis = np.abs(apply_quadrature(basis, samples) - ref)
            ratio = np.maximum(e_bary, e_basis) / np.minimum(e_bary, e_basis)
            worst_ratio = max(worst_ratio, float(ratio.max()))
    runtime = time.perf_counter() - start
    ok = worst_ratio <= 10.0
    verdict("error parity for the Runge function", ok, runtime, 30.0,
            f"worst per-node error ratio {worst_ratio:.2f} <= 10")


def test_feasibility_reproduction():
    start = time.perf_counter()
    report = check_gg_condition(4, GegenbauerParam(1.0))
    bumped = build_gim_gg(4, GegenbauerParam(1.0), variant="bumped")
    guarded = build_gim_gg(4, GegenbauerParam(1.0), variant="guarded")
    x = bumped.target_nodes
    constructors_ok = (np.max(np.abs(apply_quadrature(bumped, np.ones(5)) - (x + 1))) <= 1e-13
                       and np.max(np.abs(apply_quadrature(guarded, np.ones(5)) - (x + 1))) <= 1e-13)
    # expected-but-not-required: the published failing set on one platform
    expected_failures = list(range(4, 101, 12))
    observed = [n for n in expected_failures
                if not check_gg_condition(n, GegenbauerParam(1.0)).feasible]
    runtime = time.perf_counter() - start
    ok = (not report.feasible) and constructors_ok
    verdict("feasibility reproduction at (4, 1)", ok, runtime, 5.0,
            f"(4,1) infeasible with violations {report.violations}, constructors exact; "
            f"expected failing degrees observed {observed} of {expected_failures}")


def test_example1_linear_fredholm_scan():
    start = time.perf_counter()
    maes, kappas = [], []
    for alpha in ALPHA_SCAN:
        sol = solve_example1(10, 14, GegenbauerParam(alpha))
        maes.append(sol.mae)
        kappas.append(sol.kappa2)
    runtime = time.perf_counter() - start
    ok = (min(maes) <= 5e-14 and max(maes) <= 1e-12
          and all(30.0 <= k <= 50.0 for k in kappas))
    verdict("linear Fredholm problem scan (n=10, m=14)", ok, runtime, 60.0,
            f"min MAE {min(maes):.2e} <= 5e-14, max MAE {max(maes):.2e} <= 1e-12, "
            f"kappa2 in [{min(kappas):.2f}, {max(kappas):.2f}] within [30, 50]")


def test_example2_nonlinear_nonlocal_scan():
    start = time.perf_counter()
    cds = [solve_example2(9, GegenbauerParam(alpha)).cd for alpha in ALPHA_SCAN]
    runtime = time.perf_counter() - start
    ok = max(cds) >= 6.5
    verdict("nonlinear nonlocal problem (n=9)", ok, runtime, 30.0,
            f"best correct digits {max(cds):.2f} >= 6.5")


def test_qth_order_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (5, 10, 20):
        for alpha in (0.0, 0.5):
            first = build_gim_gg(n, GegenbauerParam(alpha))
            second = qth_order_gim(first, 2)
            coeffs = rng.uniform(-1, 1, n)  # degree n-1
            x = second.target_nodes
            samples = np.polynomial.polynomial.polyval(x, coeffs)
            exact = sum(c * (x * running_monomial_integral(x, p)
                             - (x ** (p + 2) - (-1.0) ** (p + 2)) / (p + 2))
                        for p, c in enumerate(coeffs))
            worst = max(worst, float(np.max(np.abs(apply_quadrature(second, samples) - exact))))
    # interval mapping carries the 2^q division
    first = build_gim_gg(9, GegenbauerParam(0.5))
    second = qth_order_gim(first, 2)
    scale_ok = (np.array_equal(map_to_unit(first).entries, first.entries / 2.0)
                and np.array_equal(map_to_unit(second).entries, second.entries / 4.0))
    runtime = time.perf_counter() - start
    ok = worst <= 1e-10 and scale_ok
    verdict("second-order matrix correctness", ok, runtime, 5.0,
            f"max iterated-integral error {worst:.2e} <= 1e-10, unit-interval /2^q exact")


def test_optimal_matrix_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(11)

    targets = gg_rule(8, GegenbauerParam(0.6)).nodes
    cfg = OptimalConfig(m=8)
    fast = build_optimal_gim_symmetric(targets, cfg)
    general = build_optimal_gim(targets, cfg)
    path_gap = float(np.max(np.abs(fast.entries - general.entries)))
    palindromic = np.array_equal(fast.alpha, fast.alpha[::-1]) and \
        np.array_equal(general.alpha, general.alpha[::-1])

    fixed_cfg = OptimalConfig(m=25, m_max=20, alpha_a=0.0)
    above = build_optimal_gim(np.linspace(-0.9, 0.9, 7), fixed_cfg)
    fixed = build_gim_arbitrary(np.linspace(-0.9, 0.9, 7), 25, GegenbauerParam(0.0))
    fixed_equal = np.array_equal(above.entries, fixed.entries)

    worst_exact = 0.0
    for m in (6, 13, 20):
        pts = np.sort(rng.uniform(-1, 1, 6))
        mat = build_optimal_gim(pts, OptimalConfig(m=m))
        coeffs = rng.uniform(-1, 1, m + 1)
        samples = np.polynomial.polynomial.polyval(mat.source_nodes, coeffs)
        exact = sum(c * running_monomial_integral(pts, p) for p, c in enumerate(coeffs))
        got = (mat.entries * samples).sum(axis=1)
        worst_exact = max(worst_exact, float(np.max(np.abs(got - exact))))

    runtime = time.perf_counter() - start
    ok = path_gap <= 1e-12 and palindromic and fixed_equal and worst_exact <= 1e-11
    verdict("optimal-matrix invariants", ok, runtime, 60.0,
            f"fast-vs-general gap {path_gap:.2e} <= 1e-12, palindromic parameters {palindromic}, "
            f"fixed-parameter branch exact {fixed_equal}, "
            f"per-row polynomial error {worst_exact:.2e} <= 1e-11")
