"""Cross-fitted estimators: PLM, IRM (ATE/GATE/ATET), PLIV, and LATE."""

from __future__ import annotations

import numpy as np

from ..errors import (
    DimensionMismatch,
    EmptyGroup,
    ExactlyZeroCovariance,
    FoldTooSmall,
    NoCompliance,
    NoTreatedUnits,
    OneArmEmpty,
    WeakResidualVariation,
)
from ..learners import cross_fit_predict
from ..linalg import as_matrix
from .engine import DmlResult, linear_score_result

DEFAULT_TRIM = 0.01
WEAK_VARIATION_RTOL = 1e-10


def _columns(X, n) -> np.ndarray:
    if X is None:
        return np.empty((n, 0))
    X = as_matrix(X)
    if X.shape[0] != n:
        raise DimensionMismatch("covariate row count mismatch")
    return X


def _check_binary(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if not np.all(np.isin(v, (0.0, 1.0))):
        raise DimensionMismatch(f"{name} must be binary 0/1")
    return v


def _rmse(target, pred) -> float:
    return float(np.sqrt(np.mean((np.asarray(target) - pred) ** 2)))


def _subset_fit(learner, X, target, plan, rows, error=OneArmEmpty):
    """Cross-fitted predictions of a model trained only on ``rows`` (an
    arm or a cell); raises ``error`` when a fold has none to train on."""
    try:
        return cross_fit_predict(learner, X, target, plan, rows=rows)[0]
    except FoldTooSmall as exc:
        raise error(f"training data lacks an arm or cell: {exc}") from exc


def _propensity(learner, X, d, plan, trim):
    """Cross-fitted propensity of ``d`` clipped into [trim, 1 - trim], and
    the number of rows at or beyond either bound (a learner's own clip,
    as the logistic one's at the default trim, puts rows on a bound)."""
    m, _ = cross_fit_predict(learner, X, d, plan)
    trimmed = int(np.sum((m <= trim) | (m >= 1.0 - trim)))
    return np.clip(m, trim, 1.0 - trim), trimmed


def _plm_residuals(y, d, X, learner_l, learner_m, plan):
    """Cross-fitted residuals Y - l(X) and D - m(X) with their RMSEs."""
    X = _columns(X, y.size)
    ell_hat, _ = cross_fit_predict(learner_l, X, y, plan)
    m_hat, _ = cross_fit_predict(learner_m, X, d, plan)
    rd = d - m_hat
    if float(np.mean(rd**2)) < WEAK_VARIATION_RTOL * float(np.mean(d**2)):
        raise WeakResidualVariation("treatment residual variation is degenerate")
    return y - ell_hat, rd, {"rmse_y": _rmse(y, ell_hat),
                             "rmse_d": _rmse(d, m_hat)}


def dml_plm(y, d, X, learner_l, learner_m, plan, alpha: float = 0.05) -> DmlResult:
    """Partially linear model: residual-on-residual slope with
    cross-fitted conditional means of Y and D given X."""
    y = np.asarray(y, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    ry, rd, diag = _plm_residuals(y, d, X, learner_l, learner_m, plan)
    return linear_score_result(psi_a=rd * rd, psi_b=rd * ry, alpha=alpha,
                               diagnostics=diag)


def irm_signals(y, d, X, learner_g, learner_m, plan,
                trim: float = DEFAULT_TRIM):
    """Per-observation doubly robust ATE signals
    g(1,X) - g(0,X) + H (Y - g(D,X)) and the trim count."""
    y = np.asarray(y, dtype=float).ravel()
    d = _check_binary(d, "treatment")
    X = _columns(X, y.size)
    if not (np.any(d == 1) and np.any(d == 0)):
        raise OneArmEmpty("both treatment arms must be present")
    g1 = _subset_fit(learner_g, X, y, plan, d == 1.0)
    g0 = _subset_fit(learner_g, X, y, plan, d == 0.0)
    m, trimmed = _propensity(learner_m, X, d, plan, trim)
    H = d / m - (1.0 - d) / (1.0 - m)
    gd = np.where(d == 1.0, g1, g0)
    phi = g1 - g0 + H * (y - gd)
    diag = {
        "rmse_y": _rmse(y, gd),
        "rmse_d": _rmse(d, m),
    }
    return phi, trimmed, diag


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

    ``groups`` is an (n,) integer label array; one estimate per distinct
    label. Each GATE is the group mean of the ATE signal, so GATEs
    weighted by group shares reproduce the ATE exactly.
    """
    phi, trimmed, diag = irm_signals(y, d, X, learner_g, learner_m, plan, trim)
    groups = np.asarray(groups).ravel()
    labels = np.unique(groups)
    n = phi.size
    q = labels.size
    estimates = np.empty(q)
    variances = np.empty(q)
    influence = np.zeros((n, q))
    degenerate = []
    for j, lab in enumerate(labels):
        mask = groups == lab
        share = float(np.mean(mask))
        if share == 0.0:
            raise EmptyGroup(f"group {lab!r} is empty")
        theta_g = float(np.mean(phi[mask]))
        estimates[j] = theta_g
        influence[mask, j] = (phi[mask] - theta_g) / share
        variances[j] = float(np.mean(influence[:, j] ** 2))
        if np.sum(mask) < 2:
            degenerate.append(lab)
            variances[j] = np.nan
    se = np.sqrt(variances / n)
    diag = dict(diag)
    diag["group_labels"] = labels
    if degenerate:
        diag["degenerate_groups"] = degenerate
    return DmlResult(
        estimates=estimates,
        std_errors=se,
        influence=influence,
        variance=variances,
        alpha=alpha,
        n=n,
        trim_count=trimmed,
        diagnostics=diag,
    )


def dml_atet(y, d, X, learner_g0, learner_m, plan,
             trim: float = DEFAULT_TRIM, alpha: float = 0.05) -> DmlResult:
    """Average treatment effect on the treated.

    Uses the bounded composite weight D - (1-D) m(X)/(1-m(X)), so only
    the control-arm outcome regression g(0, X) is required.
    """
    y = np.asarray(y, dtype=float).ravel()
    d = _check_binary(d, "treatment")
    X = _columns(X, y.size)
    if not np.any(d == 1):
        raise NoTreatedUnits("no treated observations")
    g0 = _subset_fit(learner_g0, X, y, plan, d == 0.0)
    m, trimmed = _propensity(learner_m, X, d, plan, trim)
    hm = d - (1.0 - d) * m / (1.0 - m)
    return linear_score_result(
        psi_a=d,
        psi_b=hm * (y - g0),
        alpha=alpha,
        trim_count=trimmed,
        diagnostics={"rmse_y0": _rmse(y[d == 0], g0[d == 0]),
                     "rmse_d": _rmse(d, m)},
    )


def dml_pliv(y, d, z, X, learner_l, learner_r, learner_m, plan,
             alpha: float = 0.05) -> DmlResult:
    """Partially linear IV: residualized two-stage least squares.

    learner_l predicts Y from X, learner_r predicts the instrument Z,
    and learner_m predicts the treatment D.
    """
    y = np.asarray(y, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    X = _columns(X, y.size)
    ell_hat, _ = cross_fit_predict(learner_l, X, y, plan)
    r_hat, _ = cross_fit_predict(learner_r, X, z, plan)
    m_hat, _ = cross_fit_predict(learner_m, X, d, plan)
    ry, rz, rd = y - ell_hat, z - r_hat, d - m_hat
    cov_dz = float(np.mean(rd * rz))
    if cov_dz == 0.0:
        raise ExactlyZeroCovariance("instrument orthogonal to treatment residual")
    scale = float(np.sqrt(np.mean(rd**2) * np.mean(rz**2)))
    diag = {
        "rmse_y": _rmse(y, ell_hat),
        "rmse_z": _rmse(z, r_hat),
        "rmse_d": _rmse(d, m_hat),
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
    y = np.asarray(y, dtype=float).ravel()
    d = _check_binary(d, "treatment")
    z = _check_binary(z, "instrument")
    X = _columns(X, y.size)
    if not (np.any(z == 1) and np.any(z == 0)):
        raise OneArmEmpty("both instrument arms must be present")
    on, off = z == 1.0, z == 0.0
    mu1 = _subset_fit(learner_mu, X, y, plan, on)
    mu0 = _subset_fit(learner_mu, X, y, plan, off)
    m1 = _subset_fit(learner_m, X, d, plan, on)
    m0 = _subset_fit(learner_m, X, d, plan, off)
    p, trimmed = _propensity(learner_p, X, z, plan, trim)
    m1 = np.clip(m1, 0.0, 1.0)
    m0 = np.clip(m0, 0.0, 1.0)
    H = z / p - (1.0 - z) / (1.0 - p)
    mu_z = np.where(z == 1.0, mu1, mu0)
    m_z = np.where(z == 1.0, m1, m0)
    psi_b = mu1 - mu0 + H * (y - mu_z)
    psi_a = m1 - m0 + H * (d - m_z)
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
        diagnostics={"rmse_y": _rmse(y, mu_z), "rmse_d": _rmse(d, m_z),
                     "rmse_z": _rmse(z, p), "first_stage": denom},
    )
