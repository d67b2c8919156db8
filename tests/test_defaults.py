"""Every context-free option default is written once, in
``cli.config.DEFAULTS``.

A run that leaves a key out writes the same report (provenance aside,
as the config digest differs) and the same tables as a run that sets
the key to its default's text; a run that sets another value writes a
different report, so the key is read. ``DEFAULTS`` also agrees with the
library's own defaults where both exist.
"""

import inspect
import json

import numpy as np
import pytest

from dmlkit.cli.config import DEFAULTS
from dmlkit.cli.main import main
from dmlkit.dml import dml_plm, rdd_sharp
from dmlkit.dml.estimators import DEFAULT_TRIM

CONTROLS = "w1, w2"
BASE_KEYS = {
    "ate": {"outcome": "y", "treatment": "d", "controls": CONTROLS},
    "cate-pipeline": {"outcome": "y", "treatment": "d", "controls": CONTROLS,
                      "learner_effect": "linear", "folds": "2"},
    "weak_id": {"outcome": "y", "treatment": "dc", "instrument": "zc",
                "controls": CONTROLS, "folds": "2", "grid_points": "41"},
    "rdd": {"outcome": "y", "running": "r", "bandwidth": "0.6"},
    "simulate": {"dgp": "example_3_1_1", "n": "30"},
}
# (run, key, a value other than the default; None where every value
# must write the same bytes).
CASES = [
    ("ate", "alpha", "0.1"),
    ("ate", "folds", "3"),
    ("ate", "trim", "0.2"),
    ("cate-pipeline", "bins", "4"),
    ("cate-pipeline", "meta_learner", "T"),
    ("weak_id", "grid_lower", "-3"),
    ("weak_id", "grid_upper", "3"),
    ("rdd", "cutoff", "0.1"),
    ("rdd", "kernel", "uniform"),
    ("simulate", "replications", "3"),
    ("simulate", "workers", None),
]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A 300-row CSV with a column for each role the runs read."""
    r = np.random.default_rng(29)
    n = 300
    w1, w2, zc = (r.standard_normal(n) for _ in range(3))
    cols = {
        "w1": w1, "w2": w2, "zc": zc,
        "d": (r.uniform(size=n) < 1 / (1 + np.exp(-2 * w1))).astype(float),
        "dc": zc + w1 + r.standard_normal(n),
        "r": r.uniform(-1, 1, size=n),
    }
    cols["y"] = (w2 + cols["d"] * (1 + w1) + 0.5 * cols["dc"]
                 + (cols["r"] >= 0) + r.standard_normal(n))
    lines = [",".join(cols)] + [
        ",".join(repr(round(float(v[i]), 6)) for v in cols.values())
        for i in range(n)]
    path = tmp_path_factory.mktemp("defaults") / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _outputs(data, folder, run, keys):
    """Run ``run`` with ``keys``; returns the report without provenance
    and the bytes of each table."""
    folder.mkdir()
    if run == "simulate":
        keys = {"seed": "5", **keys}
        argv = ["simulate"]
    else:
        keys = {"estimand": run, "seed": "5", **keys}
        argv = ["estimate", "--data", data]
    config = folder / "run.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = folder / "out"
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    del report["provenance"]
    tables = {path.name: path.read_bytes() for path in out.glob("*.csv")}
    assert tables
    return report, tables


def test_cases_cover_every_default():
    assert sorted(key for _, key, _ in CASES) == sorted(DEFAULTS)


@pytest.mark.parametrize("run, key, other", CASES,
                         ids=[key for _, key, _ in CASES])
def test_a_left_out_key_runs_as_its_default(data, tmp_path, run, key, other):
    keys = dict(BASE_KEYS[run])
    if run == "simulate" and key != "replications":
        keys["replications"] = "3"  # the default, 100, only where tested
    unset = _outputs(data, tmp_path / "unset", run, keys)
    explicit = _outputs(data, tmp_path / "explicit", run,
                        {**keys, key: str(DEFAULTS[key])})
    assert unset == explicit
    if other is not None:
        changed = _outputs(data, tmp_path / "other", run, {**keys, key: other})
        assert changed[0] != unset[0]


def test_defaults_match_the_library_defaults():
    alpha = inspect.signature(dml_plm).parameters["alpha"].default
    kernel = inspect.signature(rdd_sharp).parameters["kernel"].default
    assert DEFAULTS["alpha"] == alpha
    assert DEFAULTS["trim"] == DEFAULT_TRIM
    assert DEFAULTS["kernel"] == kernel
