"""Inference on projections of the CATE: best linear predictor
coefficients with uniform bands, and the heterogeneity regression test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dist import normal_p_value
from ..dml.engine import InferenceResult, normal_interval
from ..double_lasso import band_critical_value
from ..errors import ConstantModel, DimensionMismatch
from ..linalg import as_matrix, as_vectors, ols_fit, robust_variance

CONSTANT_RTOL = 1e-12


@dataclass(kw_only=True)
class BlpResult(InferenceResult):
    """BLP coefficients (``estimates``, also read as ``coefficients``)
    and, with an evaluation basis, the fitted projection's bands."""

    covariance: np.ndarray  # sampling covariance of the coefficients
    grid_fit: np.ndarray | None = None
    grid_pointwise: tuple[np.ndarray, np.ndarray] | None = None
    grid_uniform: tuple[np.ndarray, np.ndarray] | None = None
    uniform_critical_value: float | None = None

    @property
    def coefficients(self) -> np.ndarray:
        return self.estimates


def blp_cate(signals, basis, alpha: float = 0.05, eval_basis=None,
             seed: int = 0) -> BlpResult:
    """Best linear predictor of the CATE in a user-supplied basis.

    Regresses the DR signals on the basis columns with the HC0 sandwich
    covariance. When an evaluation basis is supplied, pointwise and
    uniform bands for the fitted projection over those rows are computed,
    the latter via the Gaussian sup-norm Monte Carlo; its columns must
    match the basis's.
    """
    basis = as_matrix(basis)
    fit = ols_fit(basis, signals)
    cov = robust_variance(fit, "HC0").matrix
    out = BlpResult(
        estimates=fit.coefficients,
        covariance=cov,
        std_errors=np.sqrt(np.diag(cov)),
        alpha=alpha,
        n=fit.n,
    )
    if eval_basis is not None:
        G = as_matrix(eval_basis)
        if G.shape[1] != basis.shape[1]:
            raise DimensionMismatch(
                f"eval_basis has {G.shape[1]} columns, basis has "
                f"{basis.shape[1]}")
        fitted = G @ fit.coefficients
        point_cov = G @ cov @ G.T
        point_se = np.sqrt(np.clip(np.diag(point_cov), 0.0, None))
        c = band_critical_value(point_cov, alpha, seed=seed)
        out.grid_fit = fitted
        out.grid_pointwise = normal_interval(fitted, point_se, alpha)
        out.grid_uniform = normal_interval(fitted, point_se, alpha,
                                           critical_value=c)
        out.uniform_critical_value = c
    return out


def heterogeneity_blp_test(tau_values, signals, alpha: float = 0.05) -> dict:
    """Regress signals on the centered model predictions.

    The slope estimates Cov(true CATE, model) / Var(model); a
    significantly nonzero slope certifies detected heterogeneity, and
    the intercept estimates the ATE. The predictions count as constant
    when their variance is at or below CONSTANT_RTOL times E_n[tau^2],
    so the check does not depend on units.
    """
    tau, signals = as_vectors(tau_values=tau_values, signals=signals)
    if float(np.var(tau)) <= CONSTANT_RTOL * float(np.mean(tau**2)):
        raise ConstantModel("model predictions have no variation")
    blp = blp_cate(signals, np.column_stack([np.ones(tau.size),
                                             tau - np.mean(tau)]), alpha)
    pval = normal_p_value(blp.estimates[1], blp.std_errors[1])
    return {
        "intercept": float(blp.estimates[0]),
        "slope": float(blp.estimates[1]),
        "se": blp.std_errors,
        "p_value": float(pval),
        "ci_slope": (blp.ci_lower[1], blp.ci_upper[1]),
        "reject": pval < alpha,
    }
