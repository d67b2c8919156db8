"""Cross-fitted estimators: PLM, IRM (ATE/GATE/ATET), PLIV, and LATE."""

from __future__ import annotations

import numpy as np

from ..errors import (
    DimensionMismatch,
    ExactlyZeroCovariance,
    FoldTooSmall,
    NoCompliance,
    NoTreatedUnits,
    OneArmEmpty,
)
from ..learners import cross_fit_predict, cross_fit_residuals
from ..linalg import as_columns, as_vectors, check_rows
from .engine import DmlResult, _check_variation, linear_score_result

DEFAULT_TRIM = 0.01


def _check_binary(v, name: str) -> None:
    if not np.all(np.isin(v, (0.0, 1.0))):
        raise DimensionMismatch(f"{name} must be binary 0/1")


def _check_arms(v, name: str) -> None:
    """``_check_binary``, then ``OneArmEmpty`` unless both arms occur."""
    _check_binary(v, name)
    if not (np.any(v == 1) and np.any(v == 0)):
        raise OneArmEmpty(f"both {name} arms must be present")


def _rmse(residual) -> float:
    return float(np.sqrt(np.mean(residual**2)))


def _subset_fit(learner, X, target, plan, rows, error=OneArmEmpty):
    """Cross-fitted predictions of a model trained only on ``rows`` (an
    arm or a cell); raises ``error`` when a fold has none to train on."""
    try:
        return cross_fit_predict(learner, X, target, plan, rows=rows)[0]
    except FoldTooSmall as exc:
        raise error(f"training data lacks an arm or cell: {exc}") from exc


def _propensity(learner, X, d, plan, trim):
    """Cross-fitted propensity of ``d`` clipped into [trim, 1 - trim], and
    the number of rows at or beyond either bound. A fitted predictor that
    clips its own probabilities (the logistic one, to [clip, 1 - clip])
    puts rows on its bound, so the count uses the larger of ``trim`` and
    the predictors' ``clip``: a trim below the clip still counts them."""
    m, predictors = cross_fit_predict(learner, X, d, plan)
    bound = max([trim] + [getattr(f, "clip", 0.0) for f in predictors])
    trimmed = int(np.sum((m <= bound) | (m >= 1.0 - bound)))
    return np.clip(m, trim, 1.0 - trim), trimmed


def _plm_residuals(y, d, X, learner_l, learner_m, plan):
    """Cross-fitted residuals Y - l(X) and D - m(X) with their RMSEs."""
    y, d = as_vectors(y=y, d=d)
    X = as_columns(X, y.size)
    ry, rd = cross_fit_residuals(X, plan, (learner_l, y), (learner_m, d))
    _check_variation(float(np.mean(rd**2)), d,
                     "treatment residual variation is degenerate")
    return ry, rd, {"rmse_y": _rmse(ry), "rmse_d": _rmse(rd)}


def dml_plm(y, d, X, learner_l, learner_m, plan, alpha: float = 0.05) -> DmlResult:
    """Partially linear model: residual-on-residual slope with
    cross-fitted conditional means of Y and D given X."""
    ry, rd, diag = _plm_residuals(y, d, X, learner_l, learner_m, plan)
    return linear_score_result(psi_a=rd * rd, psi_b=rd * ry, alpha=alpha,
                               diagnostics=diag)


def irm_signals(y, d, X, learner_g, learner_m, plan,
                trim: float = DEFAULT_TRIM):
    """Per-observation doubly robust ATE signals
    g(1,X) - g(0,X) + H (Y - g(D,X)) and the trim count."""
    y, d = as_vectors(y=y, d=d)
    _check_arms(d, "treatment")
    X = as_columns(X, y.size)
    g1 = _subset_fit(learner_g, X, y, plan, d == 1.0)
    g0 = _subset_fit(learner_g, X, y, plan, d == 0.0)
    m, trimmed = _propensity(learner_m, X, d, plan, trim)
    H = d / m - (1.0 - d) / (1.0 - m)
    ry = y - np.where(d == 1.0, g1, g0)
    phi = g1 - g0 + H * ry
    return phi, trimmed, {"rmse_y": _rmse(ry), "rmse_d": _rmse(d - m)}


def dml_irm_ate(y, d, X, learner_g, learner_m, plan,
                trim: float = DEFAULT_TRIM, alpha: float = 0.05) -> DmlResult:
    """Average treatment effect in the interactive regression model."""
    phi, trimmed, diag = irm_signals(y, d, X, learner_g, learner_m, plan, trim)
    return linear_score_result(
        psi_a=np.ones(phi.size), psi_b=phi, alpha=alpha,
        trim_count=trimmed, diagnostics=diag,
    )


def dml_gate(y, d, X, groups, learner_g, learner_m, plan,
             trim: float = DEFAULT_TRIM, alpha: float = 0.05) -> DmlResult:
    """Group average treatment effects from shared IRM signals.

    ``groups`` is an (n,) label array without missing (NaN) labels; one
    estimate per distinct label. Group g's GATE solves the linear score
    with psi_a = 1{g} and psi_b = phi 1{g}, where phi is the ATE signal,
    so it is the group mean of phi, and GATEs weighted by group shares
    reproduce the ATE exactly. The SE of a one-row group is NaN.
    """
    phi, trimmed, diag = irm_signals(y, d, X, learner_g, learner_m, plan, trim)
    groups = np.asarray(groups).ravel()  # labels keep their type for reports
    check_rows(y=phi, groups=groups)
    missing = np.flatnonzero(groups != groups)
    if missing.size:
        raise DimensionMismatch(f"group label is missing in row {missing[0]}")
    labels = np.unique(groups)
    masks = groups == labels[:, None]
    fits = [linear_score_result(m, phi * m, alpha=alpha) for m in masks]
    single = masks.sum(axis=1) < 2
    variances = np.where(single, np.nan, [f.variance[0] for f in fits])
    diag = {**diag, "group_labels": labels}
    if np.any(single):
        diag["degenerate_groups"] = list(labels[single])
    return DmlResult(
        estimates=np.array([f.theta for f in fits]),
        std_errors=np.sqrt(variances / phi.size),
        influence=np.column_stack([f.influence for f in fits]),
        variance=variances, alpha=alpha, n=phi.size, trim_count=trimmed,
        diagnostics=diag,
    )


def dml_atet(y, d, X, learner_g0, learner_m, plan,
             trim: float = DEFAULT_TRIM, alpha: float = 0.05) -> DmlResult:
    """Average treatment effect on the treated.

    Uses the bounded composite weight D - (1-D) m(X)/(1-m(X)), so only
    the control-arm outcome regression g(0, X) is required.
    """
    y, d = as_vectors(y=y, d=d)
    _check_binary(d, "treatment")
    X = as_columns(X, y.size)
    if not np.any(d == 1):
        raise NoTreatedUnits("no treated observations")
    g0 = _subset_fit(learner_g0, X, y, plan, d == 0.0)
    m, trimmed = _propensity(learner_m, X, d, plan, trim)
    hm = d - (1.0 - d) * m / (1.0 - m)
    ry0 = y - g0
    return linear_score_result(
        psi_a=d,
        psi_b=hm * ry0,
        alpha=alpha,
        trim_count=trimmed,
        diagnostics={"rmse_y0": _rmse(ry0[d == 0]), "rmse_d": _rmse(d - m)},
    )


def dml_pliv(y, d, z, X, learner_l, learner_r, learner_m, plan,
             alpha: float = 0.05) -> DmlResult:
    """Partially linear IV: residualized two-stage least squares.

    learner_l predicts Y from X, learner_r predicts the instrument Z,
    and learner_m predicts the treatment D.
    """
    y, d, z = as_vectors(y=y, d=d, z=z)
    X = as_columns(X, y.size)
    ry, rz, rd = cross_fit_residuals(X, plan, (learner_l, y), (learner_r, z),
                                     (learner_m, d))
    cov_dz = float(np.mean(rd * rz))
    if cov_dz == 0.0:
        raise ExactlyZeroCovariance("instrument orthogonal to treatment residual")
    scale = float(np.sqrt(np.mean(rd**2) * np.mean(rz**2)))
    diag = {
        "rmse_y": _rmse(ry),
        "rmse_z": _rmse(rz),
        "rmse_d": _rmse(rd),
        "weak_instrument": bool(scale > 0 and abs(cov_dz) < 0.01 * scale),
    }
    return linear_score_result(psi_a=rd * rz, psi_b=ry * rz, alpha=alpha,
                               diagnostics=diag)


def dml_late(y, d, z, X, learner_mu, learner_m, learner_p, plan,
             trim: float = DEFAULT_TRIM, alpha: float = 0.05) -> DmlResult:
    """Local average treatment effect with a binary instrument.

    Ratio of two doubly robust signals: the instrument's effect on the
    outcome over its effect on treatment take-up.
    """
    y, d, z = as_vectors(y=y, d=d, z=z)
    _check_binary(d, "treatment")
    _check_arms(z, "instrument")
    X = as_columns(X, y.size)
    on, off = z == 1.0, z == 0.0
    mu1 = _subset_fit(learner_mu, X, y, plan, on)
    mu0 = _subset_fit(learner_mu, X, y, plan, off)
    m1 = _subset_fit(learner_m, X, d, plan, on)
    m0 = _subset_fit(learner_m, X, d, plan, off)
    p, trimmed = _propensity(learner_p, X, z, plan, trim)
    m1 = np.clip(m1, 0.0, 1.0)
    m0 = np.clip(m0, 0.0, 1.0)
    H = z / p - (1.0 - z) / (1.0 - p)
    ry = y - np.where(z == 1.0, mu1, mu0)
    rd = d - np.where(z == 1.0, m1, m0)
    psi_b = mu1 - mu0 + H * ry
    psi_a = m1 - m0 + H * rd
    denom = float(np.mean(psi_a))
    if abs(denom) < 1e-10:
        raise NoCompliance("instrument does not move treatment take-up")
    J = float(np.mean(m1 - m0))
    if abs(J) < 1e-10:
        raise NoCompliance("first-stage regression difference is degenerate")
    return linear_score_result(
        psi_a=psi_a,
        psi_b=psi_b,
        alpha=alpha,
        jacobian=J,
        trim_count=trimmed,
        diagnostics={"rmse_y": _rmse(ry), "rmse_d": _rmse(rd),
                     "rmse_z": _rmse(z - p), "first_stage": denom},
    )
