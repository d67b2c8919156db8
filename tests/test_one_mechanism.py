"""One mechanism per job, pinned to the bits of the code it replaced.

- The plug-in penalty's single refit loop gives the bits of the former
  two loops (one for heteroskedastic loadings, one for sigma_hat),
  frozen below as ``_two_loop_plugin_lambda``.
- ``_lambda_max`` reads the same ``Xs'yc`` with or without a prepared
  design.
- ``InferenceResult.row`` is the row every estimates table writes.
- ``dmlkit.dml`` loads its submodules only when a name is read.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dmlkit.dist import normal_quantile
from dmlkit.dml import dml_gate
from dmlkit.double_lasso import many_targets
from dmlkit.learners import LogisticLearner, MeanLearner, make_folds
from dmlkit.penalized import (LassoFit, _check_plugin_level, _design,
                              _lambda_max, _plugin_inputs, lasso_fit,
                              lasso_plugin, plugin_lambda)

ROOT = Path(__file__).resolve().parents[1]


def _two_loop_plugin_lambda(X, y, c=1.1, a=0.05, sigma_iters=1,
                            heteroskedastic=False):
    """The plug-in rule as two loops, frozen; each refit is a cold
    ``lasso_fit``, which solves to the same bits as one on a shared
    design."""
    _check_plugin_level(c, a)
    X, y = _plugin_inputs(X, y)
    n, p = X.shape
    z = normal_quantile(1.0 - a / (2.0 * p))
    if heteroskedastic:
        Xc = X - X.mean(axis=0)
        lam = 2.0 * c * np.sqrt(n) * z
        resid = y - y.mean()  # intercept-only start, as for sigma
        loadings = np.sqrt(np.mean(resid[:, None] ** 2 * Xc**2, axis=0))
        for _ in range(max(sigma_iters, 0)):
            fit = lasso_fit(X, y, lam=lam, loadings=loadings)
            resid = y - fit.predict(X)
            loadings = np.sqrt(np.mean(resid[:, None] ** 2 * Xc**2, axis=0))
        return {"lam": lam, "sigma_hat": 1.0, "loadings": loadings, "z": z}

    sigma = float(np.std(y))  # intercept-only residual sd
    for _ in range(max(sigma_iters, 0)):
        if sigma == 0.0:
            break
        fit = lasso_fit(X, y, lam=2.0 * c * sigma * np.sqrt(n) * z)
        sigma = float(np.sqrt(np.mean((y - fit.predict(X)) ** 2)))
    lam = 2.0 * c * sigma * np.sqrt(n) * z
    return {"lam": lam, "sigma_hat": sigma, "z": z}


def _draws():
    """(name, X, y): n < p, n > p with heteroskedastic noise, and a
    constant outcome."""
    r = np.random.default_rng(2403)
    for seed in range(4):
        X = r.standard_normal((40, 70))
        yield f"wide-{seed}", X, X[:, :3].sum(axis=1) + r.standard_normal(40)
        X = r.standard_normal((150, 12))
        noise = (1.0 + np.abs(X[:, 0])) * r.standard_normal(150)
        yield f"tall-{seed}", X, 2.0 * X[:, 1] - X[:, 4] + noise
    yield "constant-y", r.standard_normal((30, 5)), np.full(30, 1.5)


DRAWS = list(_draws())
DRAW_IDS = [name for name, _, _ in DRAWS]


@pytest.mark.parametrize("heteroskedastic", [False, True])
@pytest.mark.parametrize("sigma_iters", [0, 1, 2, 3])
@pytest.mark.parametrize("name, X, y", DRAWS, ids=DRAW_IDS)
def test_plugin_rule_matches_the_two_loops(name, X, y, sigma_iters,
                                           heteroskedastic):
    want = _two_loop_plugin_lambda(X, y, sigma_iters=sigma_iters,
                                   heteroskedastic=heteroskedastic)
    got = plugin_lambda(X, y, sigma_iters=sigma_iters,
                        heteroskedastic=heteroskedastic)
    assert set(got) == set(want)
    for key in ("lam", "sigma_hat", "z"):
        assert got[key] == want[key], key
    if heteroskedastic:
        assert np.array_equal(got["loadings"], want["loadings"])


@pytest.mark.parametrize("name, X, y", DRAWS, ids=DRAW_IDS)
def test_lasso_plugin_keeps_its_bits(name, X, y):
    rule = _two_loop_plugin_lambda(X, y)
    want = lasso_fit(X, y, lam=rule["lam"])
    got = lasso_plugin(X, y)
    assert np.array_equal(got.coefficients, want.coefficients)
    assert got.intercept == want.intercept
    assert got.sigma_hat == rule["sigma_hat"]


@pytest.mark.parametrize("name, X, y", DRAWS, ids=DRAW_IDS)
def test_lambda_max_reads_the_prepared_design(name, X, y):
    assert _lambda_max(X, y) == _lambda_max(X, y, _prepared=_design(X, y))


def test_standardized_coefficients_is_a_hidden_field():
    field = {f.name: f for f in dataclasses.fields(LassoFit)}[
        "_standardized_coefficients"]
    assert field.default is None and not field.repr
    X, y = DRAWS[1][1:]
    fit = lasso_fit(X, y, lam=5.0)
    assert fit._standardized_coefficients.shape == fit.coefficients.shape
    assert "_standardized_coefficients" not in repr(fit)


def _rows_by_hand(result):
    return [{"estimate": float(result.estimates[i]),
             "std_error": float(result.std_errors[i]),
             "ci_lower": float(result.ci_lower[i]),
             "ci_upper": float(result.ci_upper[i])}
            for i in range(result.estimates.size)]


def test_row_matches_gate_and_target_inference():
    r = np.random.default_rng(31)
    n = 90
    X = r.standard_normal((n, 2))
    d = (r.uniform(size=n) < 0.5).astype(float)
    y = d * (1.0 + X[:, 0]) + r.standard_normal(n)
    gate = dml_gate(y, d, X, (X[:, 0] > 0).astype(int), MeanLearner(),
                    LogisticLearner(), make_folds(n, 3, seed=4))
    D = r.standard_normal((n, 2))
    W = r.standard_normal((n, 6))
    targets = many_targets(D @ [1.0, -0.5] + W[:, 0] + r.standard_normal(n),
                           D, W)
    for result in (gate, targets):
        want = _rows_by_hand(result)
        assert len(want) == 2
        assert [result.row(i) for i in range(2)] == want
        assert list(result.row()) == ["estimate", "std_error", "ci_lower",
                                      "ci_upper"]
        assert result.row() == want[0]
        assert all(type(v) is float for v in result.row(1).values())


LAZY_DML = """
import sys
import dmlkit.dml as dml
before = sorted(m for m in sys.modules if m.startswith("dmlkit.dml."))
dml.rdd_sharp
after = sorted(m for m in sys.modules if m.startswith("dmlkit.dml."))
print(before, after)
"""


def test_dml_loads_no_submodule_until_a_name_is_read():
    path = os.pathsep.join([str(ROOT / "src"),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", LAZY_DML], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "[]", "['dmlkit.dml.engine',", "'dmlkit.dml.rdd']"]
