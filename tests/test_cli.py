import json

import numpy as np
import pytest

from dmlkit.cli.config import (ESTIMANDS, parse_config_text,
                               validate_config)
from dmlkit.cli.dgps import REGISTRY, Dgp
from dmlkit.cli.ingest import ingest_csv
from dmlkit.cli.main import main
from dmlkit.cli.reports import render_report, write_table
from dmlkit.cate import toc_qini
from dmlkit.errors import ConfigError, NonBinaryTreatment, ParseError
from dmlkit.learners import LinearLearner, make_folds
from dmlkit.sensitivity import ovb_from_data


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_well_formed_with_comments_and_lists(self):
        cfg = parse_config_text(
            "# comment line\n"
            "estimand = plm\n"
            "seed = 7   # trailing comment\n"
            "controls = w1, w2, w3\n"
            "alpha = 0.10\n")
        assert cfg.get("estimand") == "plm"
        assert cfg.get("seed") == 7
        assert cfg.get("controls") == ["w1", "w2", "w3"]
        assert cfg.get("alpha") == 0.10

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 3\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("seed = 1\njust words\n")

    def test_bad_numeric_value(self):
        cfg = parse_config_text("folds = three\n")
        with pytest.raises(ConfigError, match="folds"):
            cfg.get("folds")

    def test_digest_ignores_key_order(self):
        a = parse_config_text("seed = 1\nestimand = rct\n")
        b = parse_config_text("estimand = rct\nseed = 1\n")
        assert a.digest() == b.digest()

    def test_require_missing(self):
        with pytest.raises(ConfigError, match="estimand"):
            parse_config_text("seed = 1\n").estimand


BASE = {"seed": "1", "outcome": "y", "treatment": "d", "controls": "w"}


def _cfg(**overrides):
    raw = dict(BASE)
    for key, value in overrides.items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    return parse_config_text("\n".join(f"{k} = {v}" for k, v in raw.items()))


INVALID_CONFIGS = [
    _cfg(estimand=None),
    _cfg(estimand="magic"),
    _cfg(estimand="plm", seed=None),
    _cfg(estimand="plm", controls=None),
    _cfg(estimand="plm", outcome=None),
    _cfg(estimand="plm", treatment=None),
    _cfg(estimand="ate", controls=None),
    _cfg(estimand="atet", controls=None),
    _cfg(estimand="gate"),  # missing group
    _cfg(estimand="pliv"),  # missing instrument
    _cfg(estimand="late"),  # missing instrument
    _cfg(estimand="did_panel"),  # missing outcome_pre
    _cfg(estimand="did_rcs"),  # missing time
    _cfg(estimand="did_canonical"),  # missing time
    _cfg(estimand="rct", outcome=None),
    _cfg(estimand="rdd"),  # missing running variable
    _cfg(estimand="cate-pipeline", controls=None),
    _cfg(estimand="sensitivity", controls=None),
    _cfg(estimand="weak_id"),  # missing instrument
    _cfg(estimand="plm", trim="0.7"),
    _cfg(estimand="plm", alpha="0"),
    _cfg(estimand="plm", folds="1"),
]


class TestValidateConfig:
    @pytest.mark.parametrize("config", INVALID_CONFIGS,
                             ids=range(len(INVALID_CONFIGS)))
    def test_invalid_matrix(self, config):
        with pytest.raises(ConfigError):
            validate_config(config)

    def test_valid_config_passes(self):
        validate_config(_cfg(estimand="plm", folds="3", alpha="0.05"))


class TestIngest:
    def test_three_row_file(self, tmp_path):
        path = _write(tmp_path / "ok.csv",
                      "y,d,w\n1.0,1,0.5\n2.0,0,0.1\n0.0,1,-0.3\n")
        table = ingest_csv(path, ["y", "d", "w"], binary=["d"])
        assert table["y"].size == 3
        assert table["d"] == pytest.approx([1.0, 0.0, 1.0])

    def test_nonbinary_treatment(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "y,d\n1.0,2\n2.0,0\n")
        with pytest.raises(NonBinaryTreatment, match="row 1"):
            ingest_csv(path, ["y", "d"], binary=["d"])

    def test_missing_cell_names_row(self, tmp_path):
        path = _write(tmp_path / "gap.csv", "y,d\n1.0,1\n,0\n3.0,1\n")
        with pytest.raises(ParseError, match=r"row 2"):
            ingest_csv(path, ["y", "d"])

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path / "cols.csv", "y,d\n1.0,1\n")
        with pytest.raises(ParseError, match="w"):
            ingest_csv(path, ["y", "w"])

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path / "ragged.csv", "y,d\n1.0,1\n2.0\n")
        with pytest.raises(ParseError, match="row 2"):
            ingest_csv(path, ["y", "d"])

    def test_unparseable_cell(self, tmp_path):
        path = _write(tmp_path / "text.csv", "y,d\nabc,1\n")
        with pytest.raises(ParseError, match="'abc'"):
            ingest_csv(path, ["y"])

    def test_non_finite_treated_as_missing(self, tmp_path):
        path = _write(tmp_path / "inf.csv", "y\ninf\n1.0\n")
        with pytest.raises(ParseError, match="non-finite"):
            ingest_csv(path, ["y"])


def _pfizer_csv(tmp_path):
    rows = ["y,d"]
    rows += ["1,1"] * 9 + ["0,1"] * (19965 - 9)
    rows += ["1,0"] * 169 + ["0,0"] * (20172 - 169)
    return _write(tmp_path / "trial.csv", "\n".join(rows) + "\n")


def _mariel_csv(tmp_path):
    # Two observations per cell with exact cell means 5.1/3.9 (treated)
    # and 4.4/4.3 (control).
    rows = ["y,d,t"]
    for d, t, mu in ((1, 1, 5.1), (1, 2, 3.9), (0, 1, 4.4), (0, 2, 4.3)):
        rows.append(f"{mu - 0.1},{d},{t}")
        rows.append(f"{mu + 0.1},{d},{t}")
    return _write(tmp_path / "wages.csv", "\n".join(rows) + "\n")


class TestEstimateCommand:
    def test_vaccine_trial_report(self, tmp_path, capsys):
        data = _pfizer_csv(tmp_path)
        config = _write(tmp_path / "rct.cfg",
                        "estimand = rct\noutcome = y\ntreatment = d\n"
                        "mode = CL\nseed = 5\n")
        out = tmp_path / "out"
        assert main(["estimate", "--config", config, "--data", data,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"]["efficacy"] * 100 == pytest.approx(
            94.6, abs=0.1)
        est = report["estimates"][0]["estimate"]
        assert est * 100_000 == pytest.approx(-792.7, abs=0.5)

    def test_mariel_did_report(self, tmp_path):
        data = _mariel_csv(tmp_path)
        config = _write(tmp_path / "did.cfg",
                        "estimand = did_canonical\noutcome = y\n"
                        "treatment = d\ntime = t\nseed = 5\n")
        out = tmp_path / "out"
        assert main(["estimate", "--config", config, "--data", data,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimates"][0]["estimate"] == pytest.approx(-1.1)

    def test_byte_identical_reports(self, tmp_path):
        data = _mariel_csv(tmp_path)
        config = _write(tmp_path / "did.cfg",
                        "estimand = did_canonical\noutcome = y\n"
                        "treatment = d\ntime = t\nseed = 5\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["estimate", "--config", config, "--data", data,
                  "--out", str(out)])
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_data_file_is_exit_3(self, tmp_path):
        config = _write(tmp_path / "c.cfg",
                        "estimand = rct\noutcome = y\ntreatment = d\n"
                        "seed = 1\n")
        assert main(["estimate", "--config", config,
                     "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")]) == 3

    def test_role_mismatch_is_exit_2(self, tmp_path):
        data = _mariel_csv(tmp_path)
        config = _write(tmp_path / "c.cfg",
                        "estimand = gate\noutcome = y\ntreatment = d\n"
                        "controls = t\nseed = 1\n")  # no group role
        assert main(["estimate", "--config", config, "--data", data,
                     "--out", str(tmp_path / "out")]) == 2

    def test_degenerate_data_is_exit_4(self, tmp_path):
        rows = ["y,d,w"] + [f"{i}.0,1.0,0.0" for i in range(12)]
        data = _write(tmp_path / "flat.csv", "\n".join(rows) + "\n")
        config = _write(tmp_path / "c.cfg",
                        "estimand = plm\noutcome = y\ntreatment = d\n"
                        "controls = w\nseed = 1\nfolds = 2\n"
                        "learner = mean\n")
        assert main(["estimate", "--config", config, "--data", data,
                     "--out", str(tmp_path / "out")]) == 4

    def test_nonbinary_treatment_is_exit_3(self, tmp_path):
        rows = ["y,d"] + ["1.0,2"] * 4
        data = _write(tmp_path / "bad.csv", "\n".join(rows) + "\n")
        config = _write(tmp_path / "c.cfg",
                        "estimand = rct\noutcome = y\ntreatment = d\n"
                        "seed = 1\n")
        assert main(["estimate", "--config", config, "--data", data,
                     "--out", str(tmp_path / "out")]) == 3


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        config = _write(tmp_path / "c.cfg",
                        "estimand = plm\noutcome = y\ntreatment = d\n"
                        "controls = w\nseed = 1\n")
        assert main(["validate-config", "--config", config]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_bad(self, tmp_path):
        config = _write(tmp_path / "c.cfg", "estimand = nothing\nseed = 1\n")
        assert main(["validate-config", "--config", config]) == 2

    def test_unknown_dgp(self, tmp_path):
        config = _write(tmp_path / "c.cfg", "dgp = mystery\nseed = 1\n")
        assert main(["validate-config", "--config", config]) == 2


class TestListDgps:
    def test_lists_registry(self, capsys):
        assert main(["list-dgps"]) == 0
        out = capsys.readouterr().out
        for name in ("example_4_3_1", "example_3_1_1", "weak_iv", "dgp1",
                     "discrete_late", "example_12_2_1"):
            assert name in out


class TestSimulateCommand:
    def _config(self, tmp_path, extra=""):
        return _write(tmp_path / "sim.cfg",
                      "dgp = example_4_3_1\nestimator = double_lasso\n"
                      "n = 40\nreplications = 3\nseed = 11\n" + extra)

    def test_single_replication_single_row(self, tmp_path):
        config = _write(tmp_path / "one.cfg",
                        "dgp = example_4_3_1\nestimator = double_lasso\n"
                        "n = 40\nreplications = 1\nseed = 3\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", config,
                     "--out", str(out)]) == 0
        lines = (out / "replications.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header plus one record

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        config = self._config(tmp_path)
        blobs = []
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            assert main(["simulate", "--config", config, "--out", str(out),
                         "--workers", str(workers)]) == 0
            blobs.append(((out / "report.json").read_bytes(),
                          (out / "replications.csv").read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_missing_dgp_key(self, tmp_path):
        config = _write(tmp_path / "c.cfg", "seed = 1\n")
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2


class TestPlaceboCommand:
    def test_identical_pre_periods_give_exact_zero(self, tmp_path):
        r = np.random.default_rng(0)
        rows = ["y2,y1,y0,d,w"]
        for i in range(20):
            pre = round(float(r.normal()), 6)
            post = round(pre + (1.0 if i % 2 else 0.0), 6)
            rows.append(f"{post},{pre},{pre},{i % 2},{round(float(r.normal()), 6)}")
        data = _write(tmp_path / "panel.csv", "\n".join(rows) + "\n")
        config = _write(tmp_path / "c.cfg",
                        "estimand = did_panel\noutcome = y2\n"
                        "outcome_pre = y1\noutcome_placebo_pre = y0\n"
                        "treatment = d\ncontrols = w\nseed = 2\nfolds = 2\n"
                        "learner_outcome = mean\nlearner_propensity = mean\n")
        out = tmp_path / "out"
        assert main(["placebo", "--config", config, "--data", data,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["flags"] == ["placebo"]
        assert report["estimates"][0]["estimate"] == 0.0
        assert not report["pretrend_detected"]

    def test_requires_placebo_column(self, tmp_path):
        data = _write(tmp_path / "p.csv", "y2,y1,d,w\n1,0,1,0\n0,0,0,0\n")
        config = _write(tmp_path / "c.cfg",
                        "estimand = did_panel\noutcome = y2\n"
                        "outcome_pre = y1\ntreatment = d\ncontrols = w\n"
                        "seed = 2\n")
        assert main(["placebo", "--config", config, "--data", data,
                     "--out", str(tmp_path / "out")]) == 2

    def test_requires_panel_estimand(self, tmp_path):
        data = _mariel_csv(tmp_path)
        config = _write(tmp_path / "c.cfg",
                        "estimand = rct\noutcome = y\ntreatment = d\n"
                        "seed = 2\n")
        assert main(["placebo", "--config", config, "--data", data,
                     "--out", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# Every estimand end to end on one generated study

CONTROLS = "w1, w2"
STUDY_KEYS = {
    "plm": {"treatment": "dc", "controls": CONTROLS},
    "ate": {"treatment": "d", "controls": CONTROLS},
    "atet": {"treatment": "d", "controls": CONTROLS},
    "gate": {"treatment": "d", "controls": CONTROLS, "group": "g"},
    "pliv": {"treatment": "dc", "instrument": "zc", "controls": CONTROLS},
    "late": {"treatment": "dl", "instrument": "z", "controls": CONTROLS},
    "did_panel": {"outcome_pre": "y_pre", "treatment": "d",
                  "controls": CONTROLS},
    "did_rcs": {"time": "t", "treatment": "d", "controls": CONTROLS},
    "did_canonical": {"treatment": "d", "time": "t"},
    "rct": {"treatment": "d", "controls": CONTROLS},
    "rdd": {"running": "r", "bandwidth": "0.6"},
    "cate-pipeline": {"treatment": "d", "controls": CONTROLS,
                      "learner_effect": "linear"},
    "sensitivity": {"treatment": "dc", "controls": CONTROLS,
                    "r2_y": "0.05", "r2_d": "0.05"},
    "weak_id": {"treatment": "dc", "instrument": "zc", "controls": CONTROLS,
                "grid_lower": "-2", "grid_upper": "3", "grid_points": "101"},
}
RESULT_KEYS = {"estimand", "provenance", "warnings", "estimates", "alpha",
               "n", "trim_count", "nuisance_rmse", "diagnostics"}
REPORT_KEYS = {
    "sensitivity": {"estimand", "provenance", "estimate", "bias_bound",
                    "bound_interval", "r2_y", "r2_d", "variance_ratio", "n",
                    "warnings"},
    "weak_id": {"estimand", "provenance", "intervals", "empty",
                "critical_value", "first_stage", "n", "alpha", "warnings"},
    "cate-pipeline": {"estimand", "provenance", "meta_learner", "ate",
                      "trim_count", "calibration", "heterogeneity_test",
                      "autoc", "autoc_se", "autoc_lower", "auqc", "n",
                      "split_sizes", "warnings"},
    "placebo": RESULT_KEYS | {"flags", "pretrend_detected"},
}


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A 400-row CSV with a column for every role; returns (path, columns)."""
    r = np.random.default_rng(4031)
    n = 400
    w1, w2 = r.standard_normal(n), r.standard_normal(n)
    zc = r.standard_normal(n)
    z = (r.uniform(size=n) < 0.5).astype(float)
    y0 = w1 + r.standard_normal(n)
    cols = {
        "w1": w1, "w2": w2, "zc": zc, "z": z, "y0": y0,
        "d": (r.uniform(size=n) < 1 / (1 + np.exp(-2 * w1))).astype(float),
        "dc": zc + w1 + r.standard_normal(n),
        "dl": (r.uniform(size=n) < 0.2 + 0.5 * z).astype(float),
        "g": r.integers(0, 3, size=n).astype(float),
        "t": r.integers(1, 3, size=n).astype(float),
        "r": r.uniform(-1, 1, size=n),
        "y_pre": y0 + w2 + r.standard_normal(n),
    }
    cols["y"] = (cols["y_pre"] + cols["d"] + 0.5 * cols["dc"]
                 + (cols["r"] >= 0) + r.standard_normal(n))
    cols = {k: np.round(v, 6) for k, v in cols.items()}
    lines = [",".join(cols)]
    lines += [",".join(repr(float(v[i])) for v in cols.values())
              for i in range(n)]
    path = tmp_path_factory.mktemp("study") / "study.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path), cols


def _run_study(study, tmp_path, command, estimand, **keys):
    keys = {"estimand": estimand, "seed": "3", "outcome": "y", **keys}
    tmp_path.mkdir(exist_ok=True)
    config = _write(tmp_path / "run.cfg",
                    "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "out"
    code = main([command, "--config", config, "--data", study[0],
                 "--out", str(out)])
    report = json.loads((out / "report.json").read_text()) if code == 0 \
        else None
    return code, report


def test_study_covers_every_estimand():
    assert set(STUDY_KEYS) == set(ESTIMANDS)


@pytest.mark.parametrize("estimand", [*ESTIMANDS, "placebo"])
def test_every_estimand_runs(study, tmp_path, estimand):
    if estimand == "placebo":
        code, report = _run_study(study, tmp_path, "placebo", "did_panel",
                                  outcome_placebo_pre="y0",
                                  **STUDY_KEYS["did_panel"])
    else:
        code, report = _run_study(study, tmp_path, "estimate", estimand,
                                  **STUDY_KEYS[estimand])
    assert code == 0
    assert set(report) == REPORT_KEYS.get(estimand, RESULT_KEYS)
    if estimand == "sensitivity":
        lo, hi = report["bound_interval"]
        assert lo <= report["estimate"] <= hi
    elif estimand == "weak_id":
        assert report["intervals"] and not report["empty"]
        for iv in report["intervals"]:
            assert -2 < iv["lower"] <= iv["upper"] < 3
    elif estimand == "cate-pipeline":
        assert np.isfinite(report["ate"])
        assert report["autoc_lower"] <= report["autoc"]
    else:
        for row in report["estimates"]:
            assert np.isfinite(row["estimate"])
            assert row["ci_lower"] <= row["estimate"] <= row["ci_upper"]


def test_trim_reaches_the_estimator(study, tmp_path):
    keys = STUDY_KEYS["ate"]
    _, default = _run_study(study, tmp_path / "a", "estimate", "ate", **keys)
    _, trimmed = _run_study(study, tmp_path / "b", "estimate", "ate",
                            trim="0.2", **keys)
    assert trimmed["trim_count"] > default["trim_count"]


def test_pliv_fits_treatment_learner_to_treatment(study, tmp_path):
    _, report = _run_study(study, tmp_path, "estimate", "pliv",
                           learner_treatment="zero", **STUDY_KEYS["pliv"])
    d = study[1]["dc"]
    assert report["nuisance_rmse"]["rmse_d"] == float(np.sqrt(np.mean(d**2)))


def test_unread_key_is_exit_2(study, tmp_path, capsys):
    code, _ = _run_study(study, tmp_path, "estimate", "plm",
                         learner_outcom="forest", **STUDY_KEYS["plm"])
    assert code == 2
    assert "learner_outcom" in capsys.readouterr().err


def test_sensitivity_rejects_alpha(study, tmp_path, capsys):
    # The bounds have no confidence level, so an alpha would change only
    # the config digest.
    code, _ = _run_study(study, tmp_path, "estimate", "sensitivity",
                         alpha="0.2", **STUDY_KEYS["sensitivity"])
    assert code == 2
    assert "'alpha'" in capsys.readouterr().err


def test_trim_on_plm_is_rejected():
    with pytest.raises(ConfigError, match="'trim'"):
        validate_config(_cfg(estimand="plm", trim="0.1"))


@pytest.mark.parametrize("command", ["estimate", "placebo"])
def test_did_panel_without_controls(study, tmp_path, command):
    code, report = _run_study(study, tmp_path, command, "did_panel",
                              outcome_pre="y_pre", treatment="d",
                              outcome_placebo_pre="y0")
    assert code == 0
    (row,) = report["estimates"]
    assert np.isfinite(row["estimate"]) and row["std_error"] > 0
    assert row["ci_lower"] <= row["estimate"] <= row["ci_upper"]


TRIMMED = [name for name, spec in ESTIMANDS.items() if spec.trim]


@pytest.mark.parametrize("estimand", [*TRIMMED, "placebo"])
def test_every_trim_is_counted(study, tmp_path, estimand):
    # late trims the instrument's propensity; the study's instrument is a
    # fair coin, so only a trim near 0.5 clips it.
    trim = "0.45" if estimand == "late" else "0.2"
    if estimand == "placebo":
        command, estimand = "placebo", "did_panel"
        keys = {**STUDY_KEYS[estimand], "outcome_placebo_pre": "y0"}
    else:
        command, keys = "estimate", STUDY_KEYS[estimand]
    _, default = _run_study(study, tmp_path / "a", command, estimand, **keys)
    _, trimmed = _run_study(study, tmp_path / "b", command, estimand,
                            trim=trim, **keys)
    assert trimmed["trim_count"] > default["trim_count"]


def test_cate_pipeline_default_learners_run(study, tmp_path):
    # The default effect learner is a depth-3 tree, whose few distinct
    # predictions tie the calibration cut points.
    code, report = _run_study(study, tmp_path, "estimate", "cate-pipeline",
                              treatment="d", controls=CONTROLS)
    assert code == 0
    assert sum(report["calibration"]["counts"]) == report["split_sizes"][2]


def test_cate_pipeline_with_tree_learners_reports_an_empty_top_group(
        study, tmp_path):
    # The effect tree's top leaf holds validation rows but no test row,
    # so the q = 0.05 threshold leaves no test row in the top group.
    code, report = _run_study(study, tmp_path, "estimate", "cate-pipeline",
                              treatment="d", controls=CONTROLS,
                              learner="tree")
    assert code == 0
    assert [w for w in report["warnings"] if w.startswith("uplift")] == [
        "uplift top group at q = 0.05 was empty on the test split; used "
        "the test rows tied at the highest prediction"]


def test_python_and_numpy_bools_render_as_json_bools():
    # A Python bool is an int, so it must be recognised as a bool first.
    text = render_report({"a": True, "b": np.bool_(True), "n": 1})
    assert '"a": true' in text and '"b": true' in text and '"n": 1' in text


def test_weak_id_region_table_writes_acceptance_as_0_1(study, tmp_path):
    code, _ = _run_study(study, tmp_path, "estimate", "weak_id",
                         **STUDY_KEYS["weak_id"])
    assert code == 0
    table = ingest_csv(str(tmp_path / "out" / "region.csv"), ["accepted"],
                       binary=["accepted"])
    assert table["accepted"].size == 101


def test_cate_pipeline_warns_of_the_meta_learners_own_trim(study, tmp_path):
    # trim_count is the DR signal's; the meta-learner fits its own
    # propensity on the training split and its trimming is a warning.
    code, report = _run_study(study, tmp_path, "estimate", "cate-pipeline",
                              trim="0.4", **STUDY_KEYS["cate-pipeline"])
    assert code == 0
    (warning,) = [w for w in report["warnings"]
                  if w.startswith("meta-learner trimmed")]
    count = int(warning.split()[2])
    assert 0 < count <= report["split_sizes"][0]


def test_cate_pipeline_reports_a_skipped_heterogeneity_test(study, tmp_path):
    # A constant effect model leaves the BLP slope unidentified: the
    # placeholder is reported together with a warning.
    keys = {**STUDY_KEYS["cate-pipeline"], "learner_effect": "mean"}
    code, report = _run_study(study, tmp_path, "estimate", "cate-pipeline",
                              **keys)
    assert code == 0
    assert report["heterogeneity_test"] == {"slope": 0.0, "p_value": 1.0,
                                            "reject": False}
    assert ("heterogeneity test skipped: constant effect predictions"
            in report["warnings"])


def test_simulate_defaults_to_the_first_listed_estimator(tmp_path):
    assert "default_estimator" not in Dgp.__dataclass_fields__
    config = _write(tmp_path / "sim.cfg",
                    "dgp = weak_iv\nn = 60\nreplications = 2\nseed = 4\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["estimator"] == next(iter(REGISTRY["weak_iv"].estimators))
    assert report["estimator"] == "score_inversion"


@pytest.mark.parametrize("seed, n", [(0, 60), (1, 300), (2, 400)])
def test_library_and_cli_write_the_same_table_bytes(tmp_path, seed, n):
    r = np.random.default_rng(seed)
    tau, s = r.standard_normal(n), r.standard_normal(n)
    # Ranking the test sample by itself (n = 300, 400) leaves rounding
    # dust in TOC(1); the two writers must still agree on its digits.
    for name, ref in (("other", r.standard_normal(n)), ("self", tau)):
        curves = toc_qini(tau, s, ref, seed=seed)
        curves.write_csv(tmp_path / f"lib_{name}.csv")
        write_table(curves.rows(), tmp_path / f"cli_{name}.csv")
    X = r.standard_normal((n, 2))
    d = X[:, 0] + r.standard_normal(n)
    y = 0.5 * d + X[:, 1] + r.standard_normal(n)
    bound = ovb_from_data(y, d, X, LinearLearner(), LinearLearner(),
                          make_folds(n, 5, seed), r2_y=0.1, r2_d=0.05)
    bound.write_contour_csv(tmp_path / "lib_contour.csv")
    write_table(bound.contour_rows(), tmp_path / "cli_contour.csv")
    for name in ("other", "self", "contour"):
        lib = (tmp_path / f"lib_{name}.csv").read_bytes()
        assert lib == (tmp_path / f"cli_{name}.csv").read_bytes()
        assert lib.count(b"\n") > 2


def test_write_table_leaves_non_finite_and_none_cells_empty(tmp_path):
    rows = [{"a": 0.1, "b": float("nan"), "c": 3},
            {"a": float("inf"), "b": None, "c": -float("inf")}]
    write_table(rows, tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines == ["a,b,c", "0.1,,3", ",,"]


def _write_columns(path, cols):
    """Named columns, rounded to 6 decimals, as a CSV; returns
    (path, columns) as the ``study`` fixture does."""
    cols = {k: np.round(v, 6) for k, v in cols.items()}
    lines = [",".join(cols)]
    lines += [",".join(repr(float(v[i])) for v in cols.values())
              for i in range(len(cols["y"]))]
    path.write_text("\n".join(lines) + "\n")
    return str(path), cols


def test_gate_one_row_group_writes_empty_cells(study, tmp_path):
    # Row 0 alone in group 9: its GATE has no standard error, which the
    # report writes as null and the table as an empty cell.
    cols = dict(study[1], g=np.where(np.arange(400) == 0, 9.0, study[1]["g"]))
    data = _write_columns(tmp_path / "gate.csv", cols)
    code, report = _run_study(data, tmp_path, "estimate", "gate",
                              **STUDY_KEYS["gate"])
    assert code == 0
    (single,) = [row for row in report["estimates"] if row["label"] == "9.0"]
    assert single["std_error"] is None and single["ci_lower"] is None
    assert single["ci_upper"] is None and np.isfinite(single["estimate"])
    lines = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
    assert lines[0] == "label,estimate,std_error,ci_lower,ci_upper"
    (line,) = [line for line in lines if line.startswith("9.0,")]
    assert line == f"9.0,{single['estimate']!r},,,"


@pytest.fixture(scope="module")
def irrelevant_instrument(tmp_path_factory):
    """A 200-row CSV whose instrument z is drawn independently of the
    treatment d. At this draw the score-inversion region over a wide grid
    is two rays, with the gap between them around [-4.5, 0.75]."""
    r = np.random.default_rng(17)
    n = 200
    w1, w2 = r.standard_normal(n), r.standard_normal(n)
    z = r.standard_normal(n)
    d = w1 + r.standard_normal(n)
    y = 0.5 * d + w2 + r.standard_normal(n)
    path = tmp_path_factory.mktemp("weak") / "weak.csv"
    return _write_columns(path, {"y": y, "d": d, "z": z, "w1": w1, "w2": w2})


def _run_weak_id(data, tmp_path, lower, upper, points):
    return _run_study(data, tmp_path, "estimate", "weak_id", treatment="d",
                      instrument="z", controls=CONTROLS, grid_lower=lower,
                      grid_upper=upper, grid_points=points)


def test_weak_id_warns_of_a_weak_disconnected_unbounded_region(
        irrelevant_instrument, tmp_path, capsys):
    code, report = _run_weak_id(irrelevant_instrument, tmp_path, "-50", "50",
                                "401")
    assert code == 0
    warnings = ["weak_first_stage", "disconnected_region",
                "unbounded at grid edge"]
    assert report["warnings"] == warnings
    err = capsys.readouterr().err
    assert all(f"warning: {w}\n" in err for w in warnings)
    assert not report["first_stage"]["strong"]
    first, second = report["intervals"]
    assert first["open_lower"] and first["lower"] == -50.0
    assert second["open_upper"] and second["upper"] == 50.0
    assert first["upper"] < second["lower"]
    assert not report["empty"]


def test_weak_id_narrow_grid_in_the_gap_is_empty(irrelevant_instrument,
                                                  tmp_path):
    code, report = _run_weak_id(irrelevant_instrument, tmp_path, "-3", "-1",
                                "21")
    assert code == 0
    assert report["empty"] is True and report["intervals"] == []
    assert report["warnings"] == ["weak_first_stage"]
