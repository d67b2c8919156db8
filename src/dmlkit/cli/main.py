"""Command-line entry point.

Subcommands: estimate, simulate, placebo, validate-config, list-dgps.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.

The CATE pipeline, sensitivity, weak-ID and the DGP registry are
imported by the handlers that run them, not with this module, so a
command loads only the subsystems its config uses.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import sys
from pathlib import Path

import numpy as np

from .. import dml
from ..dml import did_canonical, rct_estimators, rdd_sharp
from ..errors import (BadFoldCount, ConfigError, ConstantModel, DmlkitError,
                      NonBinaryTreatment, ParseError, UnknownDgp,
                      WeightsNotSupported)
from ..learners import cross_fit_residuals, make_folds
from ..rng import derive_seed
# ``_learner`` and ``make_learner`` are re-exported for callers.
from .config import (ESTIMANDS, LIST_KEYS, Estimand, RunConfig,
                     build_learner as _learner, load_config, make_learner,
                     read_value, validate_config, validate_simulation_config)
from .ingest import ingest_csv
from .reports import provenance, write_report, write_table

DATA_ERRORS = (ParseError, NonBinaryTreatment, FileNotFoundError,
               IsADirectoryError)


# ---------------------------------------------------------------------------
# Estimation dispatch


def _load_columns(config: RunConfig, data_path, roles, binary) -> dict:
    """Load the columns the config names for ``roles``; list roles
    (controls, effect covariates) come back as (n, p) matrices."""
    names = {}
    for role in roles:
        value = config.get(role)
        if value not in (None, []):
            names[role] = value if role in LIST_KEYS else [value]
    table = ingest_csv(data_path, [c for cols in names.values() for c in cols],
                       binary=[config.get(role) for role in binary])
    return {role: np.column_stack([table[c] for c in cols])
            if role in LIST_KEYS else table[cols[0]]
            for role, cols in names.items()}


def _result_rows(result) -> list[dict]:
    """One row per estimate, labelled by its group for GATEs."""
    labels = result.diagnostics.get("group_labels")
    return [{"label": str(labels[i]) if labels is not None else "theta",
             **result.row(i)} for i in range(result.estimates.size)]


def _report(config: RunConfig, n: int, warnings: list, fields: dict) -> dict:
    """An estimate report: ``fields`` plus the keys every report carries,
    the estimand, the provenance, the row count and the warnings."""
    return {"estimand": config.estimand, "provenance": provenance(config),
            **fields, "n": n, "warnings": warnings}


def _result_report(config: RunConfig, result):
    """Report and estimates table of a ``DmlResult``."""
    diag = dict(result.diagnostics)
    rmse = {k: diag.pop(k) for k in list(diag) if k.startswith("rmse_")}
    rows = _result_rows(result)
    warnings = sorted(k for k, v in diag.items() if v is True)
    report = _report(config, result.n, warnings, {
        "estimates": rows,
        "alpha": result.alpha,
        "trim_count": result.trim_count,
        "nuisance_rmse": rmse,
        "diagnostics": diag,
    })
    return report, {"estimates": rows}


def _plan(config: RunConfig, n: int, tag: str = "folds"):
    return make_folds(n, config.get("folds"), derive_seed(config.seed, tag, 0))


def _cross_fit(config: RunConfig, spec: Estimand, data: dict, learners: dict,
               alpha: float):
    """Call ``spec.estimator`` with the columns in role order (a missing
    optional role is an intercept column), the learners and the plan."""
    n = data["outcome"].size
    columns = [data[role] if role in data else np.ones((n, 1))
               for role in spec.roles + spec.optional]
    kwargs = {"trim": config.get("trim")} if spec.trim else {}
    # Looked up at call time, so a tracer that rebinds the package's
    # names sees the call.
    estimator = getattr(dml, spec.estimator)
    return estimator(*columns, *learners.values(), _plan(config, n),
                     alpha=alpha, **kwargs)


def estimate_report(config: RunConfig, data_path) -> tuple[dict, dict]:
    """Run the configured estimand; returns (report, artifact tables)."""
    learners = validate_config(config)
    estimand = config.estimand
    spec = ESTIMANDS[estimand]
    data = _load_columns(config, data_path, spec.roles + spec.optional,
                         spec.binary)
    y = data["outcome"]
    alpha = config.get("alpha")
    if spec.estimator is not None:
        result = _cross_fit(config, spec, data, learners, alpha)
    elif estimand == "did_canonical":
        result = did_canonical(y, data["treatment"], data["time"],
                               alpha=alpha)
    elif estimand == "rct":
        W = data.get("controls")
        mode = config.get("mode", "CL" if W is None else "CRA")
        result = rct_estimators(y, data["treatment"], W, mode=mode,
                                alpha=alpha)
    elif estimand == "rdd":
        result = rdd_sharp(y, data["running"],
                           cutoff=config.get("cutoff"),
                           bandwidth=config.get("bandwidth"),
                           kernel=config.get("kernel"),
                           Z=data.get("controls"), alpha=alpha)
    elif estimand == "sensitivity":
        return _sensitivity_report(config, data, learners)
    elif estimand == "weak_id":
        return _weak_id_report(config, data, learners, alpha)
    else:
        return _cate_pipeline_report(config, data, learners, alpha)
    return _result_report(config, result)


def _sensitivity_report(config, data, learners):
    from ..sensitivity import ovb_from_data
    n = data["outcome"].size
    bound = ovb_from_data(data["outcome"], data["treatment"],
                          data["controls"], *learners.values(),
                          _plan(config, n), r2_y=config.get("r2_y"),
                          r2_d=config.get("r2_d"))
    report = _report(config, n, [], {
        "estimate": bound.estimate,
        "bias_bound": bound.bias_bound,
        "bound_interval": [bound.lower, bound.upper],
        "r2_y": bound.r2_y,
        "r2_d": bound.r2_d,
        "variance_ratio": bound.s,
    })
    return report, {"contour": bound.contour_rows()}


def _weak_id_report(config, data, learners, alpha):
    from ..weak_id import GRID_POINTS, first_stage_diag, robust_region
    n = data["outcome"].size
    # The learners are the outcome's, the treatment's and the instrument's.
    ry, rd, rz = cross_fit_residuals(
        data["controls"], _plan(config, n),
        *((learner, data[role]) for role, learner in learners.items()))
    grid = np.linspace(config.get("grid_lower"), config.get("grid_upper"),
                       config.get("grid_points", GRID_POINTS))
    region = robust_region(ry, rd, rz, grid, alpha=alpha)
    stage = first_stage_diag(rd, rz)
    warnings = []
    if not stage["strong"]:
        warnings.append("weak_first_stage")
    if region.disconnected:
        warnings.append("disconnected_region")
    if region.intervals and (region.intervals[0].open_lower
                             or region.intervals[-1].open_upper):
        warnings.append("unbounded at grid edge")
    report = _report(config, n, warnings, {
        "intervals": [
            {"lower": iv.lower, "upper": iv.upper,
             "open_lower": iv.open_lower, "open_upper": iv.open_upper}
            for iv in region.intervals
        ],
        "empty": region.empty,
        "critical_value": region.critical_value,
        "first_stage": stage,
        "alpha": alpha,
    })
    # ``accepted`` is written 0/1: the table is a CSV, which has no bools.
    artifacts = {"region": [
        {"theta": float(t), "statistic": float(s), "accepted": int(a)}
        for t, s, a in zip(region.grid, region.statistic, region.accepted)
    ]}
    return report, artifacts


def _cate_pipeline_report(config, data, learners, alpha):
    from ..cate import (calibration, dr_signal, heterogeneity_blp_test,
                        meta_learn, three_way_split, toc_qini)
    y, d = data["outcome"], data["treatment"]
    Z = data["controls"]
    X_effect = data.get("effect_covariates", Z)
    n = y.size
    seed = config.seed
    trim = config.get("trim")
    learner_y, learner_prop, learner_effect = learners.values()
    signals = dr_signal(y, d, Z, learner_y, learner_prop, _plan(config, n),
                        trim=trim)
    train, valid, test = three_way_split(n, derive_seed(seed, "split", 0))
    kind = config.get("meta_learner")
    model = meta_learn(kind, y[train], d[train], Z[train], learner_y,
                       learner_prop, learner_effect,
                       _plan(config, train.size, "train-folds"),
                       X_effect=X_effect[train], trim=trim)
    tau_valid = model.predict(X_effect[valid])
    tau_test = model.predict(X_effect[test])
    s_test = signals.values[test]
    cal = calibration(tau_test, s_test, tau_valid,
                      K=config.get("bins"), alpha=alpha)
    curves = toc_qini(tau_test, s_test, tau_valid, alpha=alpha,
                      seed=derive_seed(seed, "uplift-band", 0))
    warnings = [f"uplift top group at q = {q:g} was empty on the test "
                "split; used the test rows tied at the highest prediction"
                for q in curves.grid[curves.adjusted]]
    try:
        het = heterogeneity_blp_test(tau_test, s_test, alpha=alpha)
    except ConstantModel:
        het = {"slope": 0.0, "p_value": 1.0, "reject": False}
        warnings.append("heterogeneity test skipped: constant effect "
                        "predictions")
    # trim_count is the DR signal's; the meta-learner trims on its own.
    model_trim = model.metadata.get("trim_count", 0)
    if model_trim > 0:
        warnings.append(f"meta-learner trimmed {model_trim} propensities")
    report = _report(config, n, warnings, {
        "meta_learner": kind,
        "ate": signals.ate,
        "trim_count": signals.trim_count,
        "calibration": {
            "cal1": cal.cal1,
            "cal2": cal.cal2,
            "counts": cal.counts,
            "dr_means": cal.dr_means,
            "model_means": cal.model_means,
        },
        "heterogeneity_test": {k: het[k] for k in ("slope", "p_value",
                                                   "reject")},
        "autoc": curves.autoc,
        "autoc_se": curves.autoc_se,
        "autoc_lower": curves.autoc_lower,
        "auqc": curves.auqc,
        "split_sizes": [train.size, valid.size, test.size],
    })
    return report, {"uplift": curves.rows()}


def _write_outputs(report: dict, artifacts: dict, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out / "report.json")
    for name, rows in artifacts.items():
        write_table(rows, out / f"{name}.csv")


def run_estimate(config: RunConfig, data_path, out_dir) -> dict:
    report, artifacts = estimate_report(config, data_path)
    _write_outputs(report, artifacts, out_dir)
    return report


# ---------------------------------------------------------------------------
# Placebo refutation


def run_placebo(config: RunConfig, data_path, out_dir) -> dict:
    """Rerun the panel DiD with an earlier pre-period standing in for
    the post-period; a significant estimate flags a pre-trend."""
    if config.get("estimand") != "did_panel":
        raise ConfigError("placebo requires estimand = did_panel")
    learners = validate_config(config)
    if config.get("outcome_placebo_pre") is None:
        raise ConfigError(
            "placebo requires 'outcome_placebo_pre', an earlier pre-period "
            "outcome column")
    spec = ESTIMANDS["did_panel"]
    data = _load_columns(config, data_path,
                         spec.roles + spec.optional + ("outcome_placebo_pre",),
                         spec.binary)
    # Shift both outcome periods one step back.
    data["outcome"] = data["outcome_pre"]
    data["outcome_pre"] = data["outcome_placebo_pre"]
    result = _cross_fit(config, spec, data, learners, config.get("alpha"))
    report, artifacts = _result_report(config, result)
    lo, hi = result.ci
    report["flags"] = ["placebo"]
    report["pretrend_detected"] = not (lo <= 0.0 <= hi)
    _write_outputs(report, artifacts, out_dir)
    return report


# ---------------------------------------------------------------------------
# Simulation


def _simulate_record(args):
    from . import dgps
    dgp_name, estimator, n, seed, rep = args
    return dgps.simulate_once(dgp_name, estimator, n, seed, rep)


def _summarize(records: list[dict]) -> dict:
    keys = [k for k in records[0] if k != "replication"]
    summary = {}
    for key in keys:
        values = np.array([r[key] for r in records], dtype=float)
        entry = {"mean": float(np.mean(values)),
                 "median": float(np.median(values))}
        if key == "error":
            entry["rmse"] = float(np.sqrt(np.mean(values**2)))
            entry["median_abs"] = float(np.median(np.abs(values)))
        summary[key] = entry
    return summary


def run_simulation(config: RunConfig, out_dir, workers: int | None = None) -> dict:
    dgp, estimator = validate_simulation_config(config)
    seed = config.seed
    reps = config.get("replications")
    n = config.get("n", dgp.default_n)
    if workers is None:
        workers = config.get("workers")
    else:
        read_value("workers", str(workers))
    # A pool starts all its workers up front: start no idle ones.
    workers = min(workers, reps)
    tasks = [(dgp.name, estimator, n, seed, rep) for rep in range(reps)]
    if workers == 1:
        records = [_simulate_record(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            records = list(pool.map(_simulate_record, tasks, chunksize=1))
    # Reduction is order-independent: sort by replication index.
    records.sort(key=lambda r: r["replication"])
    report = {
        "dgp": dgp.name,
        "estimator": estimator,
        "n": n,
        "replications": reps,
        "truth": dgp.truth,
        "summary": _summarize(records),
        "provenance": provenance(config),
        "warnings": [],
    }
    _write_outputs(report, {"replications": records}, out_dir)
    return report


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmlkit",
        description="Causal estimation, simulation, and refutation runs "
                    "driven by flat config files.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run a configured estimand on CSV data")
    est.add_argument("--config", required=True)
    est.add_argument("--data", required=True)
    est.add_argument("--out", required=True)

    sim = sub.add_parser("simulate", help="run a registered simulation DGP")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--workers", type=int, default=None)

    pla = sub.add_parser("placebo", help="pre-trend placebo for panel DiD")
    pla.add_argument("--config", required=True)
    pla.add_argument("--data", required=True)
    pla.add_argument("--out", required=True)

    val = sub.add_parser("validate-config", help="check a config file")
    val.add_argument("--config", required=True)

    sub.add_parser("list-dgps", help="list registered simulation DGPs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-dgps":
            from . import dgps
            for name in sorted(dgps.REGISTRY):
                print(f"{name}: {dgps.REGISTRY[name].description}")
            return 0
        config = load_config(args.config)
        if args.command == "validate-config":
            if "dgp" in config.raw:
                validate_simulation_config(config)
            else:
                validate_config(config)
            print("config ok")
            return 0
        if args.command == "estimate":
            report = run_estimate(config, args.data, args.out)
        elif args.command == "simulate":
            report = run_simulation(config, args.out, workers=args.workers)
        else:
            report = run_placebo(config, args.data, args.out)
    except (ConfigError, UnknownDgp, WeightsNotSupported,
            BadFoldCount) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (DmlkitError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    for warning in report.get("warnings", []):
        print(f"warning: {warning}", file=sys.stderr)
    print(f"report written to {args.out}/report.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
