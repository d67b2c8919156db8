"""The benchmark's three fixed workloads.

Each workload is a ``dmlkit`` config, an optional generated CSV, a check
of the written report against the generator's known truth, and the
call counts its config implies for the traced run. Inputs depend only on
the seed; sizes are fixed here and are not tuned to the machine.
"""

from __future__ import annotations

import json
import math
import zlib
from pathlib import Path

import numpy as np

# Estimates must lie within this many standard errors of the truth.
MAX_SES = 5.0
FOLDS = 5


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _write_csv(path: Path, columns: dict) -> None:
    names = list(columns)
    rows = np.column_stack([columns[c] for c in names])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def _config_text(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _read_report(out_dir: Path) -> dict:
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


class Workload:
    name: str
    command: str  # "estimate" or "simulate"
    # Exact call counts the config implies, checked on the traced run.
    expected_calls: dict[str, int] = {}

    def prepare(self, seed: int, work: Path) -> list[dict]:
        """Write the inputs under ``work``. Returns one entry per input,
        with the ``config`` and ``data`` paths and the generator's
        ``truth`` for ``check``; each pass runs every input once."""
        raise NotImplementedError

    def check(self, out_dir: Path, truth: dict) -> list[str]:
        """Problems with the written report; empty when it is correct."""
        raise NotImplementedError


class ForestPlm(Workload):
    """Cross-fitted PLM with forest nuisances on a smooth g(X)."""

    name = "forest_plm"
    command = "estimate"
    n, p, trees, theta = 2000, 10, 10, 0.5
    # 2 nuisances x 5 folds x 10 trees.
    expected_calls = {
        "learners.tree_fit": 2 * FOLDS * trees,
        "learners.forest_fit": 2 * FOLDS,
        "learners.cross_fit_predict": 2,
        "penalized.lasso_fit": 0,
        "learners.logistic_fit": 0,
        "cli.ingest_csv": 1,
    }

    def prepare(self, seed, work):
        rng = _rng(seed, self.name)
        X = rng.standard_normal((self.n, self.p))
        g = _sigmoid(X[:, 0])
        d = g + rng.standard_normal(self.n)
        y = self.theta * d + g + rng.standard_normal(self.n)
        controls = [f"x{j}" for j in range(self.p)]
        _write_csv(work / "data.csv",
                   {"y": y, "d": d, **{c: X[:, j]
                                       for j, c in enumerate(controls)}})
        (work / "run.cfg").write_text(_config_text({
            "estimand": "plm", "seed": seed, "outcome": "y",
            "treatment": "d", "controls": ", ".join(controls),
            "learner": f"forest(trees={self.trees})", "folds": FOLDS,
        }))
        return [{"config": str(work / "run.cfg"),
                 "data": str(work / "data.csv"),
                 "truth": {"theta": self.theta}}]

    def check(self, out_dir, truth):
        row = _read_report(out_dir)["estimates"][0]
        est, se = row["estimate"], row["std_error"]
        lo, hi = row["ci_lower"], row["ci_upper"]
        if not _finite(est, se, lo, hi) or se <= 0:
            return [f"non-finite estimate or SE: {row}"]
        problems = []
        if not lo <= est <= hi:
            problems.append(f"CI [{lo}, {hi}] does not bracket {est}")
        if abs(est - truth["theta"]) > MAX_SES * se:
            problems.append(f"theta {est} is more than {MAX_SES} SEs "
                            f"({se}) from {truth['theta']}")
        return problems


class LassoCvSim(Workload):
    """Monte Carlo of CV-tuned Double Lasso on the p = n design."""

    name = "lasso_cv_sim"
    command = "simulate"
    n, replications, alpha = 200, 4, 1.0
    # Each sample runs its own study, and a run covers every study
    # equally, because a study's run time moves by up to ~60% with the
    # draw.
    studies = 4
    # Per replication: two partialling steps, each a 16-point path on
    # 5 folds plus one refit.
    expected_calls = {
        "cli.simulate_once": replications,
        "double_lasso.double_lasso": replications,
        "penalized.cv_fit": 2 * replications,
        "penalized.lasso_path": 2 * FOLDS * replications,
        "penalized.lasso_fit": 2 * (FOLDS * 16 + 1) * replications,
        "learners.tree_fit": 0,
        "cli.ingest_csv": 0,
    }

    def prepare(self, seed, work):
        inputs = []
        for i in range(self.studies):
            config = work / f"run-{i}.cfg"
            config.write_text(_config_text({
                "dgp": "example_4_3_1", "estimator": "double_lasso_cv",
                "n": self.n, "replications": self.replications,
                "workers": 1, "seed": seed * self.studies + i,
            }))
            inputs.append({"config": str(config), "data": None,
                           "truth": {"alpha": self.alpha}})
        return inputs

    def check(self, out_dir, truth):
        report = _read_report(out_dir)
        summary = report["summary"]
        est = summary["estimate"]["mean"]
        se = summary["std_error"]["mean"]
        lo, hi = summary["ci_lower"]["mean"], summary["ci_upper"]["mean"]
        error = summary["error"]["mean"]
        if not _finite(est, se, lo, hi, error) or se <= 0:
            return [f"non-finite summary: {summary}"]
        problems = []
        if report["replications"] != self.replications:
            problems.append(f"{report['replications']} replications")
        if not lo <= est <= hi:
            problems.append(f"mean CI [{lo}, {hi}] does not bracket {est}")
        if not math.isclose(error, est - truth["alpha"], abs_tol=1e-9):
            problems.append(f"mean error {error} != {est} - {truth['alpha']}")
        se_mean = se / math.sqrt(self.replications)
        if abs(error) > MAX_SES * se_mean:
            problems.append(f"mean error {error} is more than {MAX_SES} "
                            f"SEs ({se_mean}) from 0")
        return problems


class CateMixed(Workload):
    """DR-learner CATE pipeline on a tall CSV: plug-in Lasso outcomes,
    logistic propensity, boosted effect model."""

    name = "cate_mixed"
    command = "estimate"
    n, p, n_effect, rounds = 60000, 20, 4, 20
    # dr_signal on all rows and again on the training split, 5 folds
    # each; a plug-in Lasso fit per arm per fold is two lasso_fit calls.
    expected_calls = {
        "learners.logistic_fit": 2 * FOLDS,
        "learners.tree_fit": rounds,
        "learners.boost_fit": 1,
        "penalized.plugin_lambda": 2 * 2 * FOLDS,
        "penalized.lasso_fit": 2 * 2 * 2 * FOLDS,
        "cate.meta_learn": 1,
        "cli.ingest_csv": 1,
    }

    def prepare(self, seed, work):
        rng = _rng(seed, self.name)
        X = rng.standard_normal((self.n, self.p))
        m = _sigmoid(0.5 * X[:, 0] - 0.5 * X[:, 2] + 0.25 * X[:, 3])
        d = (rng.uniform(size=self.n) < m).astype(float)
        tau = _sigmoid(2.0 * X[:, 0]) + 0.25 * X[:, 1]
        mu0 = X[:, 0] + 0.5 * X[:, 2] - 0.5 * X[:, 4] + 0.5 * np.sin(X[:, 5])
        y = mu0 + d * tau + rng.standard_normal(self.n)
        controls = [f"x{j}" for j in range(self.p)]
        _write_csv(work / "data.csv",
                   {"y": y, "d": d, **{c: X[:, j]
                                       for j, c in enumerate(controls)}})
        (work / "run.cfg").write_text(_config_text({
            "estimand": "cate-pipeline", "seed": seed, "outcome": "y",
            "treatment": "d", "controls": ", ".join(controls),
            "effect_covariates": ", ".join(controls[:self.n_effect]),
            "learner_outcome": "lasso", "learner_propensity": "logistic",
            "meta_learner": "DR",
            "learner_effect": f"boost(rounds={self.rounds})",
            "folds": FOLDS,
        }))
        # Oracle influence function of the ATE: its spread gives the SE
        # against which the estimate is checked.
        phi = (tau + d * (y - mu0 - tau) / m
               - (1.0 - d) * (y - mu0) / (1.0 - m))
        return [{"config": str(work / "run.cfg"),
                 "data": str(work / "data.csv"),
                 "truth": {"ate": float(np.mean(tau)),
                           "ate_se": float(np.std(phi) / math.sqrt(self.n))}}]

    def check(self, out_dir, truth):
        report = _read_report(out_dir)
        ate = report["ate"]
        autoc, autoc_lower = report["autoc"], report["autoc_lower"]
        cal = report["calibration"]
        if not _finite(ate, autoc, report["autoc_se"], autoc_lower,
                       report["auqc"], cal["cal1"], cal["cal2"]):
            return ["non-finite headline numbers"]
        problems = []
        if not autoc_lower <= autoc:
            problems.append(f"AUTOC lower bound {autoc_lower} > {autoc}")
        if sum(report["split_sizes"]) != self.n or report["n"] != self.n:
            problems.append(f"split sizes {report['split_sizes']}")
        if sum(cal["counts"]) != report["split_sizes"][2]:
            problems.append(f"calibration counts {cal['counts']}")
        if abs(ate - truth["ate"]) > MAX_SES * truth["ate_se"]:
            problems.append(f"ATE {ate} is more than {MAX_SES} SEs "
                            f"({truth['ate_se']}) from {truth['ate']}")
        return problems


WORKLOADS = {w.name: w for w in (ForestPlm(), LassoCvSim(), CateMixed())}
