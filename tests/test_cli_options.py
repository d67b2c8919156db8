"""Config values the CLI checks before any compute runs, and a smoke run
of every registered simulation pipeline."""

import concurrent.futures
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


@pytest.mark.parametrize("kind", ["R", "dax"])
def test_weighted_meta_learner_fails_validate_config(tmp_path, capsys, kind):
    config = _config(tmp_path, {**BASE, "estimand": "cate-pipeline",
                                "controls": "w1, w2", "meta_learner": kind,
                                "learner_effect": "lasso"})
    assert main(["validate-config", "--config", config]) == 2
    assert "weights" in capsys.readouterr().err


PLM = {**BASE, "estimand": "plm", "controls": "w1, w2"}


@pytest.mark.parametrize("spec", ["nonsense", "forest(trees=x)"])
def test_learner_spec_is_checked_before_the_data(tmp_path, capsys, spec):
    # The CSV does not exist: a data error would exit 3.
    config = _config(tmp_path, {**PLM, "learner": spec})
    assert main(["validate-config", "--config", config]) == 2
    assert main(["estimate", "--config", config,
                 "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{spec!r}" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("boost(rounds=0)", "J >= 1"), ("boost(rounds=-1)", "J >= 1"),
    ("tree(depth=-1)", "max_depth must be >= 0"),
])
def test_degenerate_learner_option_is_a_named_failure(data, tmp_path, capsys,
                                                      spec, message):
    # Before, these ran as ``learner = zero`` and ``learner = mean``.
    config = _config(tmp_path, {**PLM, "learner": spec})
    assert main(["estimate", "--config", config, "--data", data,
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "DimensionMismatch" in err and message in err


@pytest.mark.parametrize("spec, error, message", [
    ("forest(trees=0)", "DimensionMismatch", "B >= 1"),
    ("forest(min_leaf=0)", "DimensionMismatch", "min_leaf must be >= 1"),
    ("forest(depth=-1)", "DimensionMismatch", "max_depth must be >= 0"),
    ("tree(min_leaf=0)", "DimensionMismatch", "min_leaf must be >= 1"),
    ("tree(depth=-1)", "DimensionMismatch", "max_depth must be >= 0"),
    ("boost(rounds=0)", "DimensionMismatch", "J >= 1"),
    ("boost(rate=0)", "DimensionMismatch", "rate must be in (0, 1]"),
    ("boost(rate=1.5)", "DimensionMismatch", "rate must be in (0, 1]"),
    ("lasso(a=2)", "NonFinitePenalty", "a=2.0"),
    ("lasso(c=-1)", "NonFinitePenalty", "c=-1.0"),
])
def test_degenerate_learner_option_fails_before_the_data(tmp_path, capsys,
                                                         spec, error,
                                                         message):
    # The CSV does not exist: a data error would exit 3.
    config = _config(tmp_path, {**PLM, "learner": spec})
    assert main(["validate-config", "--config", config]) == 4
    err = capsys.readouterr().err
    assert error in err and message in err
    assert main(["estimate", "--config", config,
                 "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "out")]) == 4
    assert error in capsys.readouterr().err


def test_depth_zero_tree_runs(data, tmp_path):
    config = _config(tmp_path, {**PLM, "learner": "tree(depth=0)"})
    assert main(["estimate", "--config", config, "--data", data,
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("spec", ["lasso(a=2)", "lasso(c=0)"])
def test_plugin_lasso_without_a_penalty_is_a_named_failure(data, tmp_path,
                                                            capsys, spec):
    # Before, both ran with lambda = 0 and exited 0.
    config = _config(tmp_path, {**PLM, "learner": spec})
    assert main(["estimate", "--config", config, "--data", data,
                 "--out", str(tmp_path / "out")]) == 4
    assert "NonFinitePenalty" in capsys.readouterr().err


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


SENSITIVITY = {**BASE, "estimand": "sensitivity", "controls": "w1, w2",
               "r2_y": "0.1", "r2_d": "0.1"}
WEAK_ID = {**BASE, "estimand": "weak_id", "instrument": "w2",
           "controls": "w1"}
SIMULATE = {"dgp": "example_4_3_1", "n": "40", "replications": "2",
            "seed": "1"}
# (config, the key the error names): each runs into its error at the run
# command, so validate-config must reject it too.
RUN_REJECTS = [
    ({k: v for k, v in RDD.items() if k != "bandwidth"}, "bandwidth"),
    ({k: v for k, v in SENSITIVITY.items() if k != "r2_y"}, "r2_y"),
    ({k: v for k, v in SENSITIVITY.items() if k != "r2_d"}, "r2_d"),
    ({**SIMULATE, "estimator": "nonsense"}, "estimator"),
    ({**RDD, "bandwidth": "-0.5"}, "bandwidth"),
    ({**SIMULATE, "n": "0"}, "n"),
    ({**SIMULATE, "n": "-5"}, "n"),
    ({**BASE, "estimand": "cate-pipeline", "controls": "w1, w2",
      "bins": "0"}, "bins"),
    ({**SENSITIVITY, "r2_y": "1.5"}, "r2_y"),
    ({**WEAK_ID, "grid_points": "0"}, "grid_points"),
    ({**WEAK_ID, "grid_lower": "2", "grid_upper": "-2"}, "grid_lower"),
    ({**RDD, "bandwidth": "0"}, "bandwidth"),
    ({**RDD, "bandwidth": "nan"}, "bandwidth"),
    ({**RDD, "bandwidth": "inf"}, "bandwidth"),
    ({**RDD, "cutoff": "nan"}, "cutoff"),
    ({**SIMULATE, "workers": "0"}, "workers"),
]


def _run_command(keys, config, data, out):
    if "dgp" in keys:
        return ["simulate", "--config", config, "--out", out]
    return ["estimate", "--config", config, "--data", data, "--out", out]


@pytest.mark.parametrize(
    "keys, key", RUN_REJECTS,
    ids=[f"{i}-{key}" for i, (_, key) in enumerate(RUN_REJECTS)])
def test_validate_config_rejects_what_the_run_rejects(data, tmp_path, capsys,
                                                      keys, key):
    config = _config(tmp_path, keys)
    assert main(["validate-config", "--config", config]) == 2
    assert repr(key) in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(_run_command(keys, config, data, str(out))) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("keys", [
    {**BASE, "estimand": "plm", "controls": "w1", "folds": "500"},
    {"dgp": "plm_smooth", "n": "3", "replications": "1", "seed": "1"},
], ids=["estimate", "simulate"])
def test_more_folds_than_rows_is_a_config_error(data, tmp_path, capsys,
                                                keys):
    out = tmp_path / "out"
    config = _config(tmp_path, keys)
    assert main(_run_command(keys, config, data, str(out))) == 2
    assert "config error: need 2 <= K <= n" in capsys.readouterr().err
    assert not out.exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("flag, key", [(["--workers", "8"], "1"),
                                       ([], "8")], ids=["flag", "key"])
def test_simulate_starts_at_most_one_worker_per_replication(
        tmp_path, monkeypatch, flag, key):
    # The module ``dmlkit.cli.main`` reaches as ``concurrent.futures``.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    config = _config(tmp_path, {**SIMULATE, "replications": "3",
                                "workers": key})
    assert main(["simulate", "--config", config,
                 "--out", str(tmp_path / "out"), *flag]) == 0
    assert _RecordingPool.sizes == [3]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_flag_follows_the_workers_rule(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert main(["simulate", "--config", _config(tmp_path, SIMULATE),
                 "--out", str(out), "--workers", workers]) == 2
    assert "'workers' must be a positive integer" in capsys.readouterr().err
    assert not out.exists()
