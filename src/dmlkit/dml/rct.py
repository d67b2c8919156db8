"""Estimators for randomized experiments.

Three classical estimators of the ATE under random assignment, each the
OLS slope on the treatment indicator: the unadjusted two-means contrast
(CL, the regression on (1, D) alone), the classical additive regression
adjustment (CRA), and the interactive adjustment with treatment-by-
covariate terms (IRA). All center covariates internally and report the
relative ATE by the delta method.
"""

from __future__ import annotations

import numpy as np

from ..linalg import as_columns, as_vectors, constant_columns, ols_fit
from .engine import (DmlResult, influence_covariance, linear_score_result,
                     normal_interval)
from .estimators import _check_arms

# The estimators that ``mode`` names; the value is read case-insensitively.
MODES = ("CL", "CRA", "IRA")


def rct_estimators(y, d, W=None, mode: str = "CL",
                   alpha: float = 0.05) -> DmlResult:
    """ATE and relative ATE in a randomized experiment.

    Each mode is one OLS fit: "CL" regresses y on (1, d), whose slope is
    the difference of arm means, "CRA" adds the covariates W, and "IRA"
    also the d*W interactions so each arm gets its own linear
    adjustment. The relative ATE is ate / E[Y(0)]; its negative is the
    conventional efficacy measure for adverse outcomes.

    The ATE solves the linear score psi_a = 1, psi_b = ate + its
    influence values, so its SE is the HC0 one ``linear_score_result``
    takes from them. The relative ATE's SE is the delta method on the
    covariance of the stacked (ATE, control-mean) influence values.
    """
    y, d = as_vectors(y=y, d=d)
    _check_arms(d, "treatment")
    n = y.size
    W = as_columns(W, n)
    # Constant covariates carry no adjustment information and would make
    # the regression designs singular; drop them up front.
    Wc = W - W.mean(axis=0)
    Wc = Wc[:, ~constant_columns(Wc)]

    mode = mode.upper()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    adjustment = {"CL": [], "CRA": [Wc], "IRA": [Wc, d[:, None] * Wc]}[mode]
    fit = ols_fit(np.column_stack([np.ones(n), d, *adjustment]), y)
    ate = float(fit.coefficients[1])
    mu0 = float(fit.coefficients[0])
    eps = fit.residuals

    # Influence values of the ATE and of the control mean, from their
    # partialled-out representations: D - E_n[D] for the treatment
    # contrast and 1 - D for the control mean (mean-zero by the normal
    # equations).
    dt = d - np.mean(d)
    ot = 1.0 - d
    influence = np.column_stack([eps * dt / np.mean(dt**2),
                                 eps * ot / np.mean(ot**2)])
    cov = influence_covariance(influence) / n
    rel = ate / mu0 if mu0 != 0.0 else np.nan
    if mu0 != 0.0:
        grad = np.array([1.0 / mu0, -ate / mu0**2])
        rel_se = float(np.sqrt(grad @ cov @ grad))
    else:
        rel_se = np.nan
    rel_ci = normal_interval(rel, rel_se, alpha)
    return linear_score_result(
        np.ones(n), ate + influence[:, 0], alpha=alpha,
        diagnostics={
            "mode": mode,
            "mean_control": mu0,
            "relative_ate": rel,
            "relative_ate_se": rel_se,
            "relative_ate_ci": rel_ci,
            "efficacy": -rel,
            "efficacy_ci": (-rel_ci[1], -rel_ci[0]),
        },
    )
