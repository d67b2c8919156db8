"""Every typed error is raised somewhere a test can see.

``test_every_error_class_is_raised_in_a_test`` parses ``errors.py`` and
the tests with ``ast`` and fails on any ``DmlkitError`` subclass that no
``pytest.raises`` under ``tests/`` names. The other tests reach raise
sites that no other test reaches, and the weak-ID report's warning for a
moment covariance that needed a diagonal jitter.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from dmlkit.cate.meta import CateModel
from dmlkit.cli.dgps import get_dgp, simulate_once
from dmlkit.cli.ingest import ingest_csv
from dmlkit.cli.main import main
from dmlkit.dml.engine import linear_score_result
from dmlkit.dml.estimators import dml_irm_ate
from dmlkit.errors import (DegenerateVariance, DimensionMismatch, ParseError,
                           SingularJacobian, UnknownDgp)
from dmlkit.learners import (FunctionLearner, MeanLearner, cross_fit_predict,
                             make_folds)
from dmlkit.weak_id import c_statistic

ROOT = Path(__file__).resolve().parents[1]
BASE = "DmlkitError"


def _error_classes() -> set[str]:
    """The classes ``errors.py`` derives from ``DmlkitError``, directly
    or through another such class."""
    tree = ast.parse((ROOT / "src" / "dmlkit" / "errors.py").read_text())
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in tree.body if isinstance(node, ast.ClassDef)}
    found = {BASE}
    while True:
        more = {name for name, parents in bases.items() if parents & found}
        if more <= found:
            return found - {BASE}
        found |= more


def _raised_in_tests() -> set[str]:
    """The names in the first argument of every ``raises(...)`` call under
    ``tests/``, a class or a tuple of classes."""
    names = set()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "raises"):
                continue
            for arg in ast.walk(node.args[0]):
                if isinstance(arg, ast.Name):
                    names.add(arg.id)
                elif isinstance(arg, ast.Attribute):
                    names.add(arg.attr)
    return names


def test_every_error_class_is_raised_in_a_test():
    assert sorted(_error_classes() - _raised_in_tests()) == []


def test_collinear_instruments_at_scale_are_degenerate():
    r = np.random.default_rng(21)
    n = 200
    z = r.standard_normal(n)
    rz = np.column_stack([z, z, 3.0 * z]) * 1e4
    with pytest.raises(DegenerateVariance, match="even after jitter"):
        c_statistic(r.standard_normal(n), r.standard_normal(n), rz, 0.0)


def test_unknown_dgp_and_estimator():
    with pytest.raises(UnknownDgp, match="unknown dgp 'mystery'"):
        get_dgp("mystery")
    with pytest.raises(UnknownDgp, match="no estimator 'mystery'"):
        simulate_once("weak_iv", "mystery", 50, 1, 0)


def test_irm_rejects_non_binary_treatment():
    r = np.random.default_rng(22)
    n = 40
    d = 2.0 * (r.uniform(size=n) < 0.5)
    with pytest.raises(DimensionMismatch,
                       match="treatment must be binary 0/1"):
        dml_irm_ate(r.standard_normal(n), d, r.standard_normal((n, 1)),
                    MeanLearner(), MeanLearner(), make_folds(n, 2, 1))


def test_cross_fit_predict_rejects_plan_of_other_size():
    X = np.zeros((10, 1))
    with pytest.raises(DimensionMismatch):
        cross_fit_predict(MeanLearner(), X, np.zeros(10), make_folds(12, 2, 1))


def test_empty_csv(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("")
    with pytest.raises(ParseError, match="file is empty"):
        ingest_csv(data, ["y"])
    config = tmp_path / "run.cfg"
    config.write_text("estimand = plm\nseed = 1\noutcome = y\n"
                      "treatment = d\ncontrols = w\n")
    assert main(["estimate", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "out")]) == 3
    assert "file is empty" in capsys.readouterr().err


def test_zero_variance_jacobian():
    with pytest.raises(SingularJacobian, match="variance Jacobian"):
        linear_score_result(np.ones(5), np.arange(5.0), jacobian=0.0)


def test_cate_model_rejects_non_finite_predictions():
    nan = FunctionLearner(lambda X: np.full(X.shape[0], np.nan))
    model = CateModel(kind="T", predictor=nan.fit(np.zeros((3, 1)),
                                                  np.zeros(3)))
    with pytest.raises(FloatingPointError, match="non-finite"):
        model.predict(np.zeros((3, 1)))


def _weak_id_run(tmp_path, y, d, z):
    rows = ["y,d,z,w"] + [f"{a!r},{b!r},{c!r},{e}" for a, b, c, e in
                          zip(y.tolist(), d.tolist(), z.tolist(),
                              range(y.size))]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    config = tmp_path / "run.cfg"
    config.write_text("estimand = weak_id\nseed = 1\noutcome = y\n"
                      "treatment = d\ninstrument = z\ncontrols = w\n"
                      "learner = zero\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(config), "--data", str(data),
                 "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["warnings"]


def test_weak_id_reports_cholesky_jitter(tmp_path):
    """With y = 2d exactly and zero nuisances, every moment vanishes at
    theta = 2, the default grid's upper end, so the covariance there is
    singular and is factored with a jitter."""
    r = np.random.default_rng(23)
    z = r.standard_normal(60)
    d = z + r.standard_normal(60)
    warnings = _weak_id_run(tmp_path, 2.0 * d, d, z)
    assert "moment covariance needed a Cholesky jitter" in warnings


def test_weak_id_without_jitter_has_no_jitter_warning(tmp_path):
    r = np.random.default_rng(23)
    z = r.standard_normal(60)
    d = z + r.standard_normal(60)
    warnings = _weak_id_run(tmp_path, 2.0 * d + r.standard_normal(60), d, z)
    assert "moment covariance needed a Cholesky jitter" not in warnings
