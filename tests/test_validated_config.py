"""Validation hands the run what it checked: ``validate_config`` the
learners, built once per role, and ``validate_simulation_config`` the
DGP record and the estimator name."""

import numpy as np
import pytest

from dmlkit.cli import config as cli_config
from dmlkit.cli.config import (ESTIMANDS, parse_config_text, validate_config,
                               validate_simulation_config)
from dmlkit.cli.dgps import REGISTRY
from dmlkit.cli.main import estimate_report
from dmlkit.learners import LinearLearner, LogisticLearner, TreeLearner


def _parse(keys):
    return parse_config_text("".join(f"{k} = {v}\n" for k, v in keys.items()))


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A 200-row CSV with an outcome, a binary treatment and two controls."""
    r = np.random.default_rng(3)
    n = 200
    w1, w2 = r.standard_normal(n), r.standard_normal(n)
    d = (r.uniform(size=n) < 1 / (1 + np.exp(-w1))).astype(float)
    y = w2 + d * (1 + w1) + r.standard_normal(n)
    lines = ["y,d,w1,w2"] + [
        ",".join(repr(round(float(v), 6)) for v in row)
        for row in zip(y, d, w1, w2)]
    path = tmp_path_factory.mktemp("validated") / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


RUNS = {
    "plm": {"estimand": "plm", "seed": "2", "outcome": "y", "treatment": "d",
            "controls": "w1, w2", "folds": "2"},
    "cate-pipeline": {"estimand": "cate-pipeline", "seed": "2",
                      "outcome": "y", "treatment": "d", "controls": "w1, w2",
                      "learner_effect": "linear", "folds": "2"},
}


@pytest.mark.parametrize("estimand", RUNS)
def test_a_run_builds_each_learner_once(data, monkeypatch, estimand):
    make_learner = cli_config.make_learner
    specs = []

    def counted(spec, seed):
        specs.append(spec)
        return make_learner(spec, seed)

    monkeypatch.setattr(cli_config, "make_learner", counted)
    estimate_report(_parse(RUNS[estimand]), data)
    assert len(specs) == len(ESTIMANDS[estimand].learners)


def test_validate_config_returns_the_learners_in_role_order():
    learners = validate_config(_parse({**RUNS["cate-pipeline"],
                                       "learner_effect": "tree(depth=2)"}))
    assert list(learners) == ["outcome", "propensity", "effect"]
    assert [type(v) for v in learners.values()] == [
        LinearLearner, LogisticLearner, TreeLearner]
    assert learners["effect"].max_depth == 2


def test_validate_config_returns_no_learners_for_a_learner_free_estimand():
    keys = {"estimand": "rct", "seed": "1", "outcome": "y", "treatment": "d"}
    assert validate_config(_parse(keys)) == {}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_validate_simulation_config_returns_the_dgp_and_its_estimator(name):
    dgp = REGISTRY[name]
    found, estimator = validate_simulation_config(
        _parse({"dgp": name, "seed": "1"}))
    assert found is dgp
    assert estimator == next(iter(dgp.estimators))
    last = list(dgp.estimators)[-1]
    assert validate_simulation_config(
        _parse({"dgp": name, "seed": "1", "estimator": last})) == (dgp, last)
