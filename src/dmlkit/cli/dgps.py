"""Simulation DGP registry.

Each entry pairs a data-drawing function with one or more named
estimation pipelines, so ``simulate`` runs are fully declarative:
replication r of a run with master seed s always draws from the RNG
stream (s, "dgp-<name>", r), independent of worker count or execution
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..cate import dr_signal, ensemble, meta_learn
from ..dml import dml_late, dml_plm
from ..dml.engine import linear_score_result
from ..double_lasso import double_lasso, naive_single_selection
from ..errors import UnknownDgp
from ..learners import (ForestLearner, LinearLearner, LogisticLearner,
                        MeanLearner, TreeLearner, learner_select, make_folds,
                        no_crossfit_plan)
from ..linalg import ols_fit
from ..penalized import lasso_plugin, post_lasso_coefficients
from ..rng import derive_seed, stream
from ..sensitivity import ovb_bound
from ..weak_id import robust_region


@dataclass(frozen=True)
class Dgp:
    name: str
    description: str
    default_n: int
    truth: dict
    draw: Callable  # (n, rng) -> dict of column arrays
    # name -> (data, truth, seed) -> flat record; the first is the default
    estimators: dict


# ---------------------------------------------------------------------------
# Orthogonal vs naive selection


def _decay_coefficients(p: int) -> np.ndarray:
    return 1.0 / np.arange(1, p + 1) ** 2


def _draw_confounded_lasso(n, rng):
    p = n  # the experiment sets p = n
    beta = _decay_coefficients(p)
    W = rng.standard_normal((n, p))
    d = W @ beta + rng.standard_normal(n) / 4.0
    y = d + W @ beta + rng.standard_normal(n)
    return {"y": y, "d": d, "W": W}


def _est_selection(lam_rule):
    """Double Lasso with the given penalty rule, or naive single
    selection for ``lam_rule="naive"``."""
    def estimate(data, truth, seed):
        args = data["y"], data["d"], data["W"]
        res = (naive_single_selection(*args) if lam_rule == "naive"
               else double_lasso(*args, lam_rule=lam_rule, seed=seed))
        return _inference_record(res, truth["alpha"])
    return estimate


def _inference_record(result, target):
    """Record of a scalar estimate: the estimate, SE and pointwise CI of
    any ``dml.engine.InferenceResult`` (here a ``DmlResult`` or a
    ``TargetInference``), its error and whether the CI covers."""
    row = result.row()
    return {**row, "error": row["estimate"] - target,
            "covered": float(row["ci_lower"] <= target <= row["ci_upper"])}


# ---------------------------------------------------------------------------
# Sparse regression recovery


def _draw_sparse_regression(n, rng):
    p = 1000
    beta = _decay_coefficients(p)
    X = rng.standard_normal((2 * n, p))
    y = X @ beta + rng.standard_normal(2 * n)
    return {"X": X[:n], "y": y[:n],
            "X_eval": X[n:], "y_eval": y[n:]}


def _est_plugin_lasso(data, truth, seed):
    X, y = data["X"], data["y"]
    fit = lasso_plugin(X, y)
    total = float(np.mean(data["y_eval"] ** 2))
    raw_resid = data["y_eval"] - fit.predict(data["X_eval"])
    oos_r2_raw = 1.0 - float(np.mean(raw_resid**2)) / total
    # Refit OLS on the active set: the plug-in penalty is large enough to
    # shrink even the dominant coefficients visibly, and the refit removes
    # that shrinkage without changing the selection.
    intercept, beta = post_lasso_coefficients(X, y, fit)
    resid = data["y_eval"] - intercept - data["X_eval"] @ beta
    oos_r2 = 1.0 - float(np.mean(resid**2)) / total
    top2 = ols_fit(np.column_stack([np.ones(y.size), X[:, :2]]), y)
    oracle_resid = data["y_eval"] - top2.coefficients[0] \
        - data["X_eval"][:, :2] @ top2.coefficients[1:]
    oracle_r2 = 1.0 - float(np.mean(oracle_resid**2)) / total
    return {
        "active_count": float(fit.active_set.size),
        "oos_r2": oos_r2,
        "oos_r2_raw": oos_r2_raw,
        "oracle_r2": oracle_r2,
    }


# ---------------------------------------------------------------------------
# Weak instrument


def _draw_weak_iv(n, rng):
    z = rng.standard_normal(n)
    u = rng.standard_normal(n)
    eps = 0.5 * u + np.sqrt(0.75) * rng.standard_normal(n)
    d = 0.05 * z + u
    y = 1.0 * d + eps
    return {"y": y, "d": d, "z": z}


def _est_weak_iv(data, truth, seed):
    theta0 = truth["theta"]
    ry = data["y"] - np.mean(data["y"])
    rd = data["d"] - np.mean(data["d"])
    rz = data["z"] - np.mean(data["z"])
    res = linear_score_result(rz * rd, rz * ry)  # the IV slope
    wald_lo, wald_hi = res.ci
    # Acceptance of theta0 itself is exact; the full region uses a grid.
    at_truth = robust_region(ry, rd, rz, np.array([theta0]))
    return {
        "estimate": res.estimate,
        "std_error": res.std_error,
        "error": res.estimate - theta0,
        "covered_wald": float(wald_lo <= theta0 <= wald_hi),
        "covered_robust": float(at_truth.accepted[0]),
        "reject_at_truth": float(not at_truth.accepted[0]),
    }


# ---------------------------------------------------------------------------
# Partially linear model with a smooth nuisance


def _smooth_g(X):
    return np.exp(X[:, 0]) / (1.0 + np.exp(X[:, 0]))


def _draw_plm_smooth(n, rng):
    X = rng.standard_normal((n, 5))
    g = _smooth_g(X)
    d = g + rng.standard_normal(n)
    y = 0.5 * d + g + rng.standard_normal(n)
    return {"y": y, "d": d, "X": X}


def _est_plm_forest(data, truth, seed):
    n = data["y"].size
    plan = make_folds(n, 5, seed)
    forest = lambda: ForestLearner(B=20, max_depth=6, min_leaf=10, seed=seed)
    res = dml_plm(data["y"], data["d"], data["X"], forest(), forest(), plan)
    return _inference_record(res, truth["theta"])


def _est_plm_overfit_no_crossfit(data, truth, seed):
    """Deliberately overfit deep trees evaluated in-sample (K = 1)."""
    plan = no_crossfit_plan(data["y"].size)
    # min_leaf=2 keeps the in-sample residuals nonzero while still
    # overfitting badly; min_leaf=1 would interpolate the treatment
    # exactly and leave no residual variation to regress on.
    deep = lambda: TreeLearner(max_depth=30, min_leaf=2)
    res = dml_plm(data["y"], data["d"], data["X"], deep(), deep(), plan)
    return _inference_record(res, truth["theta"])


# ---------------------------------------------------------------------------
# Heterogeneous effects (uplift benchmark trio)


def _indicator_band(z):
    return ((z >= 0.6) & (z <= 0.8)).astype(float)


def _draw_uplift(n, rng, p_treat, heterogeneous):
    z = rng.uniform(size=n)
    d = (rng.uniform(size=n) < p_treat).astype(float)
    noise = rng.normal(scale=0.05, size=n)
    if heterogeneous:
        tau = 0.5 * _indicator_band(z)
        y = tau * d + 0.1 + noise
    else:
        tau = np.full(n, 0.5)
        y = 0.5 * d + 0.3 * _indicator_band(z) + noise
    return {"y": y, "d": d, "z": z, "tau": tau}


META_KINDS_RUN = ("S", "T", "X", "DR", "R")


class _AdaptiveFinalLearner:
    """Final-stage effect regression chosen by cross-validated loss.

    The candidate set spans a constant, a linear trend, and trees of two
    depths, so each meta-learner regularizes as much (or as little) as
    its own pseudo-labels support.
    """

    def __init__(self, seed, min_leaf=20):
        self.seed = seed
        self.min_leaf = min_leaf

    def fit(self, X, y, weights=None):
        candidates = [MeanLearner(), LinearLearner(),
                      TreeLearner(max_depth=2, min_leaf=self.min_leaf),
                      TreeLearner(max_depth=3, min_leaf=self.min_leaf)]
        n = np.asarray(y).size
        plan = make_folds(n, 2, self.seed)
        pick = learner_select(candidates, X, y, plan, weights=weights)
        return candidates[pick["best_index"]].fit(X, y, weights=weights)


def _est_meta_all(data, truth, seed):
    y, d, z, tau = data["y"], data["d"], data["z"], data["tau"]
    n = y.size
    half = n // 2
    fit_idx = np.arange(half)
    score_idx = np.arange(half, n)
    Z = z[:, None]
    plan_fit = make_folds(half, 5, derive_seed(seed, "fit-folds", 0))
    plan_score = make_folds(n - half, 5, derive_seed(seed, "score-folds", 0))
    learner_y = ForestLearner(B=20, max_depth=4, min_leaf=10, seed=seed)
    final_seed = derive_seed(seed, "final-select", 0)
    record = {}
    preds = []
    for kind in META_KINDS_RUN:
        # The residual-on-residual pseudo-labels divide by treatment
        # residuals, which inflates their noise, so that final stage
        # draws from a coarser tree grid than the others.
        learner_final = _AdaptiveFinalLearner(
            final_seed, min_leaf=50 if kind == "R" else 20)
        model = meta_learn(kind, y[fit_idx], d[fit_idx], Z[fit_idx],
                           learner_y, MeanLearner(), learner_final, plan_fit)
        p = model.predict(Z[score_idx])
        preds.append(p)
        record[f"rmse_{kind}"] = float(
            np.sqrt(np.mean((p - tau[score_idx]) ** 2)))
    signals = dr_signal(y[score_idx], d[score_idx], Z[score_idx],
                        learner_y, MeanLearner(), plan_score).values
    ens = ensemble(np.column_stack(preds), signals, method="qagg")
    combined = np.column_stack(preds) @ ens["weights"]
    record["rmse_qagg"] = float(
        np.sqrt(np.mean((combined - tau[score_idx]) ** 2)))
    record["weight_sum"] = float(np.sum(ens["weights"]))
    return record


# ---------------------------------------------------------------------------
# Confounded linear SEM (sensitivity benchmark)

SEM_ALPHA = 1.0
SEM_DELTA = 1.0
SEM_GAMMA = 1.0
SEM_SIGMA_D = 1.0


def sem_population() -> dict:
    """Closed-form population quantities of the confounded SEM."""
    var_dtilde = SEM_GAMMA**2 + SEM_SIGMA_D**2
    phi = SEM_DELTA * SEM_GAMMA / var_dtilde
    r2_d = SEM_GAMMA**2 / var_dtilde
    # Residual variance of Y given D (short regression), then the partial
    # R2 of the confounder with the outcome given the treatment.
    beta_short = SEM_ALPHA + phi
    var_y_given_d = SEM_DELTA**2 + 1.0 + SEM_ALPHA**2 * var_dtilde \
        + 2 * SEM_ALPHA * SEM_DELTA * SEM_GAMMA - beta_short**2 * var_dtilde
    resid_a_var = SEM_DELTA**2 * (1.0 - r2_d)
    r2_y = resid_a_var / var_y_given_d
    s = var_y_given_d / var_dtilde
    return {"phi": phi, "r2_y": r2_y, "r2_d": r2_d, "s": s,
            "beta_short": beta_short}


def _draw_sem(n, rng):
    a = rng.standard_normal(n)
    d = SEM_GAMMA * a + SEM_SIGMA_D * rng.standard_normal(n)
    y = SEM_ALPHA * d + SEM_DELTA * a + rng.standard_normal(n)
    return {"y": y, "d": d, "a": a}


def _est_ovb(data, truth, seed):
    rd = data["d"] - np.mean(data["d"])
    ry = data["y"] - np.mean(data["y"])
    res = linear_score_result(rd * rd, rd * ry)  # the short regression
    pop = sem_population()
    bound = ovb_bound(res.estimate, pop["r2_y"], pop["r2_d"], pop["s"])
    # The bound interval widens the bounds by the Wald half-width.
    half = res.ci[1] - res.estimate
    lo, hi = bound.lower - half, bound.upper + half
    return {
        "estimate": res.estimate,
        "bias_bound": bound.bias_bound,
        "covered": float(lo <= truth["alpha"] <= hi),
    }


# ---------------------------------------------------------------------------
# Discrete LATE with enumerable truth

LATE_P0 = (0.2, 0.4)  # take-up at z = 0 for x = 0, 1
LATE_P1 = (0.6, 0.8)  # take-up at z = 1; monotone in z by construction


def late_truth() -> float:
    num = sum(0.5 * (LATE_P1[x] - LATE_P0[x]) * (1.0 + x) for x in (0, 1))
    den = sum(0.5 * (LATE_P1[x] - LATE_P0[x]) for x in (0, 1))
    return num / den


def _draw_discrete_late(n, rng):
    x = (rng.uniform(size=n) < 0.5).astype(float)
    z = (rng.uniform(size=n) < 0.5).astype(float)
    v = rng.uniform(size=n)
    p = np.where(z == 1,
                 np.where(x == 1, LATE_P1[1], LATE_P1[0]),
                 np.where(x == 1, LATE_P0[1], LATE_P0[0]))
    d = (v <= p).astype(float)
    y = (1.0 + x) * d + x + rng.standard_normal(n)
    return {"y": y, "d": d, "z": z, "x": x}


def _est_discrete_late(data, truth, seed):
    n = data["y"].size
    plan = make_folds(n, 5, seed)
    res = dml_late(data["y"], data["d"], data["z"], data["x"][:, None],
                   LinearLearner(), LogisticLearner(), LogisticLearner(),
                   plan)
    return _inference_record(res, truth["theta"])


# ---------------------------------------------------------------------------
# Registry

REGISTRY: dict[str, Dgp] = {}


def _register(dgp: Dgp) -> None:
    REGISTRY[dgp.name] = dgp


_register(Dgp(
    name="example_4_3_1",
    description="Confounded high-dimensional linear model (p = n, decaying "
                "coefficients); target slope 1.",
    default_n=100,
    truth={"alpha": 1.0},
    draw=_draw_confounded_lasso,
    estimators={"double_lasso": _est_selection("plugin"),
                "double_lasso_cv": _est_selection("cv"),
                "naive": _est_selection("naive")},
))

_register(Dgp(
    name="example_3_1_1",
    description="Sparse-signal regression (p = 1000, coefficients 1/j^2) "
                "for penalized prediction checks.",
    default_n=300,
    truth={},
    draw=_draw_sparse_regression,
    estimators={"plugin_lasso": _est_plugin_lasso},
))

_register(Dgp(
    name="weak_iv",
    description="Endogenous treatment with a first-stage coefficient of "
                "0.05; target slope 1.",
    default_n=500,
    truth={"theta": 1.0},
    draw=_draw_weak_iv,
    estimators={"score_inversion": _est_weak_iv},
))

_register(Dgp(
    name="plm_smooth",
    description="Partially linear model with a logistic-shaped nuisance in "
                "five covariates; target slope 0.5.",
    default_n=500,
    truth={"theta": 0.5},
    draw=_draw_plm_smooth,
    estimators={"plm_forest": _est_plm_forest,
                "plm_overfit_nocrossfit": _est_plm_overfit_no_crossfit},
))

for _k, _p, _het in ((1, 0.05, False), (2, 0.05, True), (3, 0.95, True)):
    _register(Dgp(
        name=f"dgp{_k}",
        description=f"Uplift benchmark {_k}: treated share {_p:.0%}, "
                    + ("heterogeneous" if _het else "constant")
                    + " effect on a unit-interval feature.",
        default_n=1000,
        truth={},
        draw=(lambda n, rng, p=_p, het=_het: _draw_uplift(n, rng, p, het)),
        estimators={"meta_all": _est_meta_all},
    ))

_register(Dgp(
    name="example_12_2_1",
    description="Linear SEM with a latent confounder; closed-form bias "
                "bound parameters.",
    default_n=2000,
    truth={"alpha": SEM_ALPHA},
    draw=_draw_sem,
    estimators={"ovb": _est_ovb},
))

_register(Dgp(
    name="discrete_late",
    description="Fully discrete instrument/treatment/covariate design with "
                "monotone take-up; enumerable complier effect.",
    default_n=20000,
    truth={"theta": late_truth()},
    draw=_draw_discrete_late,
    estimators={"dml_late": _est_discrete_late},
))


def get_dgp(name: str) -> Dgp:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownDgp(f"unknown dgp {name!r}; available: {known}")
    return REGISTRY[name]


def simulate_once(dgp_name: str, estimator: str | None, n: int | None,
                  master_seed: int, rep: int) -> dict:
    """Run a single replication; fully determined by (seed, rep)."""
    dgp = get_dgp(dgp_name)
    est_name = estimator or next(iter(dgp.estimators))
    if est_name not in dgp.estimators:
        known = ", ".join(sorted(dgp.estimators))
        raise UnknownDgp(
            f"dgp {dgp_name!r} has no estimator {est_name!r}; "
            f"available: {known}")
    rng = stream(master_seed, f"dgp-{dgp_name}", rep)
    data = dgp.draw(dgp.default_n if n is None else n, rng)
    rep_seed = derive_seed(master_seed, f"est-{dgp_name}", rep)
    record = dgp.estimators[est_name](data, dgp.truth, rep_seed)
    return {"replication": rep, **record}
