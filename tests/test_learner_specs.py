"""The config grammar for nuisance learners, ``name(key=value, ...)``:
which learner and fields each spec builds, and the exact message of
each malformed spec. Also what the learners themselves accept."""

import dataclasses

import numpy as np
import pytest

from dmlkit.cli.config import parse_config_text
from dmlkit.cli.main import _learner, make_learner
from dmlkit.errors import ConfigError
from dmlkit.learners import (BoostLearner, ForestLearner, LassoPluginLearner,
                             LinearLearner, LogisticLearner, MeanLearner,
                             TreeLearner, ZeroLearner)
from dmlkit.penalized import lasso_plugin
from dmlkit.rng import derive_seed


def test_forest_options_and_role_seed():
    config = parse_config_text(
        "seed = 3\nlearner_outcome = forest(trees=5, depth=4)\n")
    learner = _learner(config, "outcome", "linear")
    assert isinstance(learner, ForestLearner)
    assert (learner.B, learner.max_depth, learner.min_leaf) == (5, 4, 5)
    assert learner.seed == derive_seed(3, "learner-outcome", 0)


def test_forest_defaults():
    learner = make_learner("forest", 7)
    assert (learner.B, learner.max_depth, learner.min_leaf) == (50, 8, 5)
    assert learner.seed == 7


def test_tree_defaults():
    learner = make_learner("tree", 0)
    assert isinstance(learner, TreeLearner)
    assert (learner.max_depth, learner.min_leaf) == (3, 5)


def test_boost_rounds_and_default_rate():
    learner = make_learner("boost(rounds=20)", 0)
    assert isinstance(learner, BoostLearner)
    assert (learner.J, learner.rate) == (20, 0.1)


def test_lasso_penalty_constant_parses():
    learner = make_learner(" lasso(c=1.2) ", 0)
    assert isinstance(learner, LassoPluginLearner)
    assert (learner.c, learner.a) == (1.2, 0.05)


@pytest.mark.parametrize("spec, cls", [
    ("mean", MeanLearner), ("zero", ZeroLearner), ("linear", LinearLearner),
    ("logistic", LogisticLearner), ("tree()", TreeLearner),
])
def test_option_free_names(spec, cls):
    assert type(make_learner(spec, 0)) is cls


@pytest.mark.parametrize("spec, message", [
    ("tree(depth=x)",
     "bad learner option in 'tree(depth=x)': invalid literal for int() "
     "with base 10: 'x'"),
    ("boost(rate=fast)",
     "bad learner option in 'boost(rate=fast)': could not convert string "
     "to float: 'fast'"),
    ("tree(foo=1)", "unknown learner option(s) foo in 'tree(foo=1)'"),
    ("mean(depth=2, bar=1)",
     "unknown learner option(s) depth, bar in 'mean(depth=2, bar=1)'"),
    ("forest(trees)", "learner option 'trees' must be key=value"),
    ("Forest!", "cannot parse learner spec 'Forest!'"),
    ("svm", "unknown learner 'svm'"),
])
def test_malformed_spec_messages(spec, message):
    with pytest.raises(ConfigError) as info:
        make_learner(spec, 0)
    assert str(info.value) == message


def test_lasso_learner_rejects_weights():
    from dmlkit.errors import WeightsNotSupported

    r = np.random.default_rng(3)
    X = r.standard_normal((40, 3))
    y = X[:, 0] + r.standard_normal(40)
    with pytest.raises(WeightsNotSupported):
        LassoPluginLearner().fit(X, y, weights=np.full(40, 2.0))


def test_lasso_learner_predicts_with_its_plugin_fit():
    r = np.random.default_rng(4)
    X = r.standard_normal((60, 5))
    y = 2.0 * X[:, 1] + r.standard_normal(60)
    Xn = r.standard_normal((7, 5))
    fit = lasso_plugin(X, y, c=1.2)
    pred = LassoPluginLearner(c=1.2).fit(X, y).predict(Xn)
    assert np.array_equal(pred, fit.intercept + Xn @ fit.coefficients)


@pytest.mark.parametrize("spec", ["lasso", "tree", "forest", "boost"])
def test_configured_learners_are_immutable(spec):
    learner = make_learner(spec, 0)
    field = dataclasses.fields(learner)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(learner, field, None)
