"""One identification check for the partialled-out scores.

PLIV, LATE and the R-learner reject a score without identifying
variation by ``dml.engine._check_variation``'s relative rule, as the PLM
does. The R-learner's effect fit, now shared with the other kinds, is
checked bit for bit against a frozen copy of its earlier branch, and the
policy tree's all-zero weights against unit weights.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dmlkit.cate import meta_learn, policy_learn
from dmlkit.cli.main import main
from dmlkit.dml.estimators import dml_late, dml_pliv
from dmlkit.errors import NoCompliance, WeakResidualVariation
from dmlkit.learners import (BoostLearner, ForestLearner, FunctionLearner,
                             LinearLearner, LogisticLearner, TreeLearner,
                             ZeroLearner, cross_fit_residuals, make_folds,
                             tree_fit)

ROOT = Path(__file__).resolve().parents[1]
HALF = FunctionLearner(lambda X: np.full(X.shape[0], 0.5))


def _identity_matrix():
    spec = importlib.util.spec_from_file_location(
        "identity_matrix", ROOT / "tools" / "identity_matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def constant_instrument_study(tmp_path_factory):
    """The CLI tests' 400-row study with a last column ``zk`` that is
    0.7 in every row; returns its path."""
    path = tmp_path_factory.mktemp("study") / "study.csv"
    _identity_matrix().write_study(path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header + ",zk"] + [r + ",0.7" for r in rows])
                    + "\n")
    return path


def test_constant_instrument_is_exit_4(constant_instrument_study, tmp_path,
                                       capsys):
    config = tmp_path / "run.cfg"
    config.write_text("estimand = pliv\nseed = 3\noutcome = y\n"
                      "treatment = dc\ninstrument = zk\ncontrols = w1, w2\n")
    code = main(["estimate", "--config", str(config), "--data",
                 str(constant_instrument_study), "--out",
                 str(tmp_path / "out")])
    assert code == 4
    assert ("WeakResidualVariation: instrument residual variation is "
            "degenerate") in capsys.readouterr().err


def test_pliv_constant_instrument_raises():
    r = np.random.default_rng(11)
    n = 200
    X = r.standard_normal((n, 2))
    d = X[:, 0] + r.standard_normal(n)
    y = d + r.standard_normal(n)
    with pytest.raises(WeakResidualVariation,
                       match="instrument residual variation"):
        dml_pliv(y, d, np.full(n, 0.7), X, LinearLearner(), LinearLearner(),
                 LinearLearner(), make_folds(n, 2, 3))


def _binary_study(seed, n=300):
    r = np.random.default_rng(seed)
    X = r.standard_normal((n, 2))
    d = (r.uniform(size=n) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
    y = X[:, 1] + d * (1.0 + X[:, 0]) + r.standard_normal(n)
    return y, d, X


def test_r_learner_without_treatment_residual_raises():
    y, d, X = _binary_study(12)
    Z = np.column_stack([d, X])
    reproduces_d = FunctionLearner(lambda Z: Z[:, 0])
    with pytest.raises(WeakResidualVariation,
                       match="treatment residual variation"):
        meta_learn("R", y, d, Z, LinearLearner(), reproduces_d,
                   TreeLearner(), make_folds(y.size, 2, 1))


def test_late_without_first_stage_difference_raises():
    r = np.random.default_rng(13)
    n = 200
    z = (r.uniform(size=n) < 0.5).astype(float)
    d = (r.uniform(size=n) < 0.2 + 0.5 * z).astype(float)
    y = d + r.standard_normal(n)
    with pytest.raises(NoCompliance) as info:
        dml_late(y, d, z, r.standard_normal((n, 1)), LinearLearner(),
                 ZeroLearner(), HALF, make_folds(n, 2, 1))
    assert str(info.value) == "first-stage regression difference is degenerate"


def test_policy_tree_with_no_signal_beyond_cost_treats_everyone():
    r = np.random.default_rng(14)
    X = r.standard_normal((120, 2))
    out = policy_learn(np.full(120, 0.3), X, cost=0.3)
    tree = out["tree"]
    unit = tree_fit(X, np.ones(120), max_depth=2, min_leaf=10,
                    weights=np.ones(120))
    assert list(tree.feature) == [-1]
    assert list(tree.value) == [1.0]
    for name in ("feature", "threshold", "left", "right", "value"):
        assert np.array_equal(getattr(tree, name), getattr(unit, name))
    assert np.all(out["policy"].assign(X) == 1.0)


def _r_learner_reference(y, d, Z, learner_y, learner_prop, learner_final,
                         plan):
    """The R-learner as it was fitted before it shared the PLM's
    residuals: its own cross-fit, then a weighted fit of ry / rd."""
    ry, rd = cross_fit_residuals(Z, plan, (learner_y, y), (learner_prop, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rd != 0.0, ry / np.where(rd == 0.0, 1.0, rd), 0.0)
    return learner_final.fit(Z, ratio, weights=rd**2)


@pytest.mark.parametrize("learner_final", [
    TreeLearner(), ForestLearner(B=5, seed=2), LinearLearner(),
    BoostLearner(J=20)], ids=["tree", "forest", "linear", "boost"])
def test_r_learner_matches_its_reference(learner_final):
    y, d, X = _binary_study(15)
    plan = make_folds(y.size, 3, 4)
    model = meta_learn("R", y, d, X, LinearLearner(), LogisticLearner(),
                       learner_final, plan)
    reference = _r_learner_reference(y, d, X, LinearLearner(),
                                     LogisticLearner(), learner_final, plan)
    assert np.array_equal(model.predict(X), reference.predict(X))

