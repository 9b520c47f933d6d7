"""Tests for the quadrature benchmark: its exact oracle, its integrands and its import footprint."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from baryquad import (CollisionError, GegenbauerParam, apply_quadrature, build_basis_gim, build_gim_gg,
                      gg_rule, rules)
from baryquad.bench import EXACT_INTEGRALS, make_integrand, reference_integrals, run_benchmark
from baryquad.cli import main

REPO = Path(__file__).resolve().parents[1]

_MP_INTEGRANDS = {
    "f1": lambda t: t ** 20,
    "f2": lambda t: mpmath.exp(-t ** 2),
    "f3": lambda t: 1 / (1 + 25 * t ** 2),
}

# runs in a fresh interpreter: lists the scipy modules loaded after the import
# and after each command, and reports whether quadbench wrote finite errors for
# a named integrand and for an expression, on the last line of its output
_IMPORT_PROBE = """
import json, sys
import numpy as np
import baryquad, baryquad.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
state = {"import": scipy_modules()}
for key, argv in (("gim", ["gim", "--n", "10", "--alpha", "0.5", "--out", out + "/m.csv"]),
                  ("feasibility", ["feasibility", "--n-grid", "1:1:12", "--alpha-grid",
                                   "-0.4:0.6:2", "--out", out + "/feas.csv"]),
                  ("example1", ["example", "--id", "1", "--n", "10", "--m", "14",
                                "--alpha", "0.7", "--out", out + "/sol.csv"]),
                  ("example2", ["example", "--id", "2", "--n", "9", "--alpha", "0.5"])):
    state[key] = {"code": baryquad.cli.main(argv), "scipy": scipy_modules()}
for key, f in (("named", "f3"), ("expression", "exp(-x**2)")):
    path = out + "/" + key + ".csv"
    code = baryquad.cli.main(["quadbench", "--f", f, "--n-grid", "8",
                              "--alpha-grid", "0.5", "--out", path])
    errs = np.loadtxt(path, delimiter=",", skiprows=1)[:, 3:]
    state[key] = {"code": code, "scipy": scipy_modules(),
                  "finite": errs.shape == (9, 2) and bool(np.all(np.isfinite(errs)))}
print(json.dumps(state))
"""


class TestImportFootprint:
    def test_scipy_integrate_loads_only_for_expressions(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": "src"}
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)], cwd=REPO,
                             env=env, capture_output=True, text=True, check=True).stdout
        state = json.loads(out.splitlines()[-1])
        assert state["import"] == []
        for key in ("gim", "feasibility", "example1", "example2"):
            assert state[key] == {"code": 0, "scipy": []}, key
        assert state["named"] == {"code": 0, "scipy": [], "finite": True}
        expression = state["expression"]
        assert expression["code"] == 0 and expression["finite"] is True
        assert "scipy.integrate" in expression["scipy"]


@pytest.mark.parametrize("name", sorted(EXACT_INTEGRALS))
class TestExactIntegrals:
    @pytest.mark.parametrize("n", [4, 20, 80])
    @pytest.mark.parametrize("alpha", [-0.25, 0.5, 2.0])
    def test_match_adaptive_oracle_at_gauss_nodes(self, name, n, alpha):
        x = gg_rule(n, GegenbauerParam(alpha)).nodes
        exact = EXACT_INTEGRALS[name](x)
        np.testing.assert_allclose(exact, reference_integrals(make_integrand(name), x),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("alpha", [-0.25, 0.5, 2.0])
    def test_match_mpmath_at_thirty_digits(self, name, alpha):
        x = gg_rule(20, GegenbauerParam(alpha)).nodes[[0, 3, 10, 17, 20]]
        with mpmath.workdps(30):
            # split at the Runge peak 0 when the interval contains it
            want = [float(mpmath.quad(_MP_INTEGRANDS[name], [-1, 0, t] if t > 0 else [-1, t]))
                    for t in map(mpmath.mpf, x)]
        np.testing.assert_allclose(EXACT_INTEGRALS[name](x), want, rtol=0, atol=1e-15)

    def test_zero_at_left_endpoint(self, name):
        assert EXACT_INTEGRALS[name](np.array([-1.0]))[0] == 0.0


# f1-f3 as lambdas, and below the grid loop as it stood in the CLI before run_benchmark took
# the grid: the references that the compiled names and the folded loop keep bit for bit
_OLD_LAMBDAS = {"f1": lambda x: x ** 20, "f2": lambda x: np.exp(-x ** 2),
                "f3": lambda x: 1.0 / (1.0 + 25.0 * x ** 2)}


class TestMakeIntegrand:
    @pytest.mark.parametrize("expression", ["x**", "[x]", "x/0"])
    def test_malformed_expression_raises_value_error(self, expression):
        # a syntax error, a list value, and a division by zero at the x = 0.25 probe
        with pytest.raises(ValueError, match="integrand expression"):
            make_integrand(expression)

    @pytest.mark.parametrize("name", sorted(_OLD_LAMBDAS))
    def test_named_integrand_equals_its_old_lambda_bitwise(self, name):
        x = np.random.default_rng(7).uniform(-1.0, 1.0, 1000)
        assert np.array_equal(make_integrand(name)(x), _OLD_LAMBDAS[name](x))


def _old_rows(integrand, degrees, params):
    f = _OLD_LAMBDAS.get(integrand) or make_integrand(integrand)
    exact = EXACT_INTEGRALS.get(integrand)
    for n in degrees:
        rules._nodes_weights(n, tuple(p.alpha for p in params))
        for param in params:
            try:
                bary = build_gim_gg(n, param)
            except CollisionError:
                yield (n, param.alpha, -1, math.nan, math.nan)
                continue
            basis = build_basis_gim(n, param)
            samples = f(bary.source_nodes)
            targets = bary.target_nodes
            if exact:
                ref = exact(targets)
            else:
                ref = np.array([quad(f, -1.0, float(t), epsabs=1e-14, epsrel=1e-14, limit=500)[0]
                                for t in targets])
            err_bary = np.abs(apply_quadrature(bary, samples) - ref)
            err_basis = np.abs(apply_quadrature(basis, samples) - ref)
            for j in range(len(ref)):
                yield (n, param.alpha, j, float(err_bary[j]), float(err_basis[j]))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("integrand", ["f1", "f2", "f3", "exp(-x**2)", "sin(3*x)+x**3", "abs(x)", "pi"])
def test_run_benchmark_rows_equal_the_old_loop(integrand):
    # (4, 1) collides: its NaN row is compared too, so the comparison is by repr
    degrees, params = [4, 11, 24], [GegenbauerParam(a) for a in (-0.25, 0.5, 1.0, 2.0)]
    want = list(_old_rows(integrand, degrees, params))
    got = list(run_benchmark(integrand, degrees, params))
    assert len(got) == 1 + 3 * 5 + 4 * 12 + 4 * 25
    assert repr(got) == repr(want)


class TestBenchmarkSpec:
    """The grid check that quadbench and feasibility share, before any work."""

    COMMANDS = ("quadbench", "feasibility")

    @pytest.mark.parametrize("alpha", [-0.5, -1.0, float("nan"), float("inf")])
    def test_alpha_outside_the_family_rejected(self, alpha, tmp_path, capsys):
        for command in self.COMMANDS:
            out = tmp_path / f"{command}.csv"
            assert main([command, "--n-grid", "4", "--alpha-grid", f"0.5,{alpha}", "--out", str(out)]) == 1
            assert "UsageError: alpha must" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("n", [2.5, -1, float("nan"), float("inf")])
    def test_degree_must_be_a_non_negative_integer(self, n, tmp_path, capsys):
        # a fractional degree was truncated, so 2.5 ran n = 2
        for command in self.COMMANDS:
            out = tmp_path / f"{command}.csv"
            assert main([command, "--n-grid", f"4,{n}", "--alpha-grid", "0.5", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert "UsageError: degree must be a non-negative integer" in err and not out.exists()

    def test_integral_float_degree_kept_as_int(self, tmp_path):
        for command in self.COMMANDS:
            out = tmp_path / f"{command}.csv"
            assert main([command, "--n-grid", "4.0", "--alpha-grid", "0.5", "--out", str(out)]) == 0
            rows = out.read_text().splitlines()[1:]
            assert rows and all(row.split(",")[0] == "4" for row in rows)
