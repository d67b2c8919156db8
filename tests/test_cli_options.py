"""Config values the CLI checks before any compute runs, and a smoke run
of every registered simulation pipeline."""

import json
import math

import numpy as np
import pytest

from dmlkit.cli import dgps
from dmlkit.cli.config import parse_config_text, validate_config
from dmlkit.cli.main import main
from dmlkit.errors import ConfigError


def _write(path, text):
    path.write_text(text)
    return str(path)


def _config(tmp_path, keys):
    return _write(tmp_path / "run.cfg",
                  "".join(f"{k} = {v}\n" for k, v in keys.items()))


@pytest.fixture
def data(tmp_path):
    """A 240-row CSV with outcome, binary treatment, two controls and a
    running variable."""
    r = np.random.default_rng(17)
    n = 240
    w1, w2 = r.standard_normal(n), r.standard_normal(n)
    d = (r.uniform(size=n) < 1 / (1 + np.exp(-w1))).astype(float)
    run = r.uniform(-1, 1, size=n)
    y = w1 + d * (1 + w2) + (run >= 0) + r.standard_normal(n)
    rows = ["y,d,w1,w2,r"] + [
        ",".join(repr(round(float(v), 6)) for v in row)
        for row in zip(y, d, w1, w2, run)]
    return _write(tmp_path / "data.csv", "\n".join(rows) + "\n")


BASE = {"seed": "1", "outcome": "y", "treatment": "d"}
RDD = {"seed": "1", "outcome": "y", "estimand": "rdd", "running": "r",
       "bandwidth": "0.5"}
BAD_VALUES = [
    ({**BASE, "estimand": "rct", "mode": "XYZ"}, "mode", "CL, CRA, IRA"),
    ({**RDD, "kernel": "epanechnikov"}, "kernel", "triangular, uniform"),
    ({**BASE, "estimand": "cate-pipeline", "controls": "w1, w2",
      "meta_learner": "Q"}, "meta_learner", "S, T, X, DAX, DR, R"),
]


@pytest.mark.parametrize("keys, key, allowed", BAD_VALUES,
                         ids=[case[1] for case in BAD_VALUES])
def test_bad_option_value_is_exit_2(data, tmp_path, capsys, keys, key,
                                    allowed):
    config = _config(tmp_path, keys)
    assert main(["estimate", "--config", config, "--data", data,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and allowed in err
    assert main(["validate-config", "--config", config]) == 2


def _parse(keys):
    return parse_config_text("".join(f"{k} = {v}\n" for k, v in keys.items()))


@pytest.mark.parametrize("keys", [
    {**BASE, "estimand": "rct", "mode": "cra"},
    {**BASE, "estimand": "rct", "mode": "Ira"},
    {**BASE, "estimand": "cate-pipeline", "controls": "w1",
     "meta_learner": "dax"},
    {**RDD, "kernel": "uniform"},
])
def test_option_values_keep_their_case_rules(keys):
    validate_config(_parse(keys))


def test_kernel_is_case_sensitive():
    with pytest.raises(ConfigError, match="'kernel'"):
        validate_config(_parse({**RDD, "kernel": "Uniform"}))


def test_case_folded_mode_runs(data, tmp_path):
    config = _config(tmp_path, {**BASE, "estimand": "rct", "mode": "ira",
                                "controls": "w1"})
    out = tmp_path / "out"
    assert main(["estimate", "--config", config, "--data", data,
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["diagnostics"]["mode"] == "IRA"


@pytest.mark.parametrize("kind", ["R", "dax"])
def test_weighted_meta_learner_rejects_lasso_effect(data, tmp_path, capsys,
                                                    kind):
    # The R- and DAX-learners fit the effect model to a weighted loss,
    # and the plug-in Lasso has no weighted fit.
    config = _config(tmp_path, {**BASE, "estimand": "cate-pipeline",
                                "controls": "w1, w2", "meta_learner": kind,
                                "learner_effect": "lasso", "folds": "2"})
    assert main(["estimate", "--config", config, "--data", data,
                 "--out", str(tmp_path / "out")]) == 2
    assert "weights" in capsys.readouterr().err


def test_simulate_rejects_unread_key(tmp_path, capsys):
    config = _config(tmp_path, {"dgp": "example_4_3_1", "n": "40",
                                "replication": "3", "seed": "1"})
    assert main(["simulate", "--config", config,
                 "--out", str(tmp_path / "out")]) == 2
    assert "'replication'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["validate-config", "--config", config]) == 2


def test_validate_simulation_config_ok(tmp_path):
    config = _config(tmp_path, {"dgp": "weak_iv", "estimator":
                                "score_inversion", "n": "50",
                                "replications": "2", "workers": "1",
                                "seed": "4"})
    assert main(["validate-config", "--config", config]) == 0


# Smaller than the defaults where the pipeline still runs; the uplift
# DGPs keep n = 1000, since at 5% treated a smaller draw can leave a
# fold with no treated unit.
SMOKE_N = {"example_4_3_1": 40, "example_3_1_1": 100, "plm_smooth": 200,
           "discrete_late": 2000}
PAIRS = [(name, est) for name, dgp in sorted(dgps.REGISTRY.items())
         for est in dgp.estimators]


def test_smoke_covers_every_pipeline():
    assert len(PAIRS) == 12


@pytest.mark.parametrize("name, estimator", PAIRS,
                         ids=[f"{n}-{e}" for n, e in PAIRS])
def test_every_simulation_pipeline_runs(tmp_path, name, estimator):
    keys = {"dgp": name, "estimator": estimator, "replications": "1",
            "seed": "5"}
    if name in SMOKE_N:
        keys["n"] = SMOKE_N[name]
    out = tmp_path / "out"
    assert main(["simulate", "--config", _config(tmp_path, keys),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["estimator"] == estimator and report["replications"] == 1
    assert report["summary"]
    for entry in report["summary"].values():
        assert all(math.isfinite(v) for v in entry.values())
