"""``dmlkit.dist`` against ``scipy.stats``, and no module loads the latter.

``dist`` replaces every ``scipy.stats`` call in the package, so each of
its functions must give the same bits as the call it replaces. Here
``scipy.stats`` is the reference; the package itself never imports it,
which a child interpreter checks after importing every module.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

from dmlkit.dist import chi2_quantile, chi2_sf, normal_p_value, normal_quantile

ROOT = Path(__file__).resolve().parents[1]
ALPHAS = np.array([0.01, 0.05, 0.1, 0.2])
DOFS = np.arange(1, 21)
# Every level the package asks for: two- and one-sided interval levels,
# the plug-in Lasso level 1 - 0.05/(2p), then seeded uniform draws.
LEVELS = np.concatenate([1.0 - ALPHAS / 2.0, 1.0 - ALPHAS,
                         1.0 - 0.05 / (2.0 * np.arange(1, 1001)),
                         np.random.default_rng(7).uniform(size=2000)])


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_normal_quantile_matches_stats():
    assert _same_bits(normal_quantile(LEVELS), stats.norm.ppf(LEVELS))
    for q in LEVELS[:20]:
        assert _same_bits(normal_quantile(float(q)), stats.norm.ppf(float(q)))


def test_normal_p_value_matches_stats():
    rng = np.random.default_rng(11)
    estimates = rng.standard_normal(2000) * 4.0
    std_errors = rng.uniform(0.01, 2.0, size=2000)
    reference = 2.0 * stats.norm.sf(np.abs(estimates) / std_errors)
    assert _same_bits(normal_p_value(estimates, std_errors), reference)
    for est, se, ref in zip(estimates[:20], std_errors[:20], reference):
        assert _same_bits(normal_p_value(float(est), float(se)), ref)


def test_zero_standard_error_has_p_value_zero():
    p = normal_p_value(np.array([0.0, 1.5, -2.0]), np.array([0.0, 0.0, 1.0]))
    assert p[0] == 0.0 and p[1] == 0.0
    assert p[2] == 2.0 * stats.norm.sf(2.0)


def test_chi2_quantile_matches_stats():
    qs = np.concatenate([1.0 - ALPHAS, LEVELS[-2000:]])
    for dof in DOFS:
        assert _same_bits(chi2_quantile(qs, dof), stats.chi2.ppf(qs, dof))
        for q in 1.0 - ALPHAS:
            assert _same_bits(chi2_quantile(float(q), int(dof)),
                              stats.chi2.ppf(float(q), int(dof)))


def test_chi2_sf_matches_stats():
    rng = np.random.default_rng(13)
    xs = np.concatenate([[0.0, -1.0, np.inf], rng.uniform(0.0, 60.0, 2000)])
    for dof in DOFS:
        assert _same_bits(chi2_sf(xs, dof), stats.chi2.sf(xs, dof))
        for x in xs[:20]:
            assert _same_bits(chi2_sf(float(x), int(dof)),
                              stats.chi2.sf(float(x), int(dof)))


IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
import dmlkit
for info in pkgutil.walk_packages(dmlkit.__path__, "dmlkit."):
    importlib.import_module(info.name)
print(sorted(m for m in sys.modules if m.startswith("dmlkit.")))
print("scipy.stats" in sys.modules)
"""


def test_no_module_imports_scipy_stats():
    path = os.pathsep.join([str(ROOT / "src"),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", IMPORT_EVERY_MODULE],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, loaded = proc.stdout.strip().splitlines()[-2:]
    assert "dmlkit.cli.main" in modules
    assert loaded == "False"
