"""Difference-in-differences estimators.

Covers the canonical 2x2 four-means estimator and its cross-fitted
doubly robust generalizations for panel data and repeated cross
sections. With a panel, conditional parallel trends make the ATET the
ATET of the first-differenced outcome, so the panel estimator is
``dml_atet`` on Y2 - Y1; only repeated cross sections need a score of
their own.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyCell, NoTreatedUnits
from ..linalg import as_columns, as_vectors
from .engine import DmlResult, linear_score_result
from .estimators import (DEFAULT_TRIM, _check_binary, _propensity, _rmse,
                         _subset_fit, dml_atet)


def did_canonical(y, d, t, alpha: float = 0.05) -> DmlResult:
    """Canonical 2x2 difference in differences from four cell means.

    d marks the treated group, t in {1, 2} the period. The standard
    error treats the four cells as independent samples.
    """
    y, d, t = as_vectors(y=y, d=d, t=t)
    _check_binary(d, "group")
    if not np.all(np.isin(t, (1.0, 2.0))):
        raise EmptyCell("period indicator must take values 1 and 2")
    n = y.size
    influence = np.zeros(n)
    means = {}
    for dd in (0.0, 1.0):
        for tt in (1.0, 2.0):
            mask = (d == dd) & (t == tt)
            size = int(np.sum(mask))
            if size == 0:
                raise EmptyCell(f"cell (d={int(dd)}, t={int(tt)}) is empty")
            mu = float(np.mean(y[mask]))
            means[(dd, tt)] = mu
            sign = 1.0 if (tt == 2.0) == (dd == 1.0) else -1.0
            influence[mask] = sign * (y[mask] - mu) * n / size
    estimate = (means[(1.0, 2.0)] - means[(1.0, 1.0)]) - (
        means[(0.0, 2.0)] - means[(0.0, 1.0)]
    )
    psi_a = np.ones(n)
    psi_b = influence + estimate
    out = linear_score_result(psi_a, psi_b, alpha=alpha,
                              diagnostics={"cell_means": means})
    return out


def dml_did_panel(y1, y2, d, X, learner_g, learner_m, plan,
                  trim: float = DEFAULT_TRIM, alpha: float = 0.05) -> DmlResult:
    """ATET for panel data: under conditional parallel trends it is the
    ATET of the outcome change Y2 - Y1, so this is ``dml_atet`` on that
    change. learner_g models E[Y2 - Y1 | X] among controls and learner_m
    the treatment propensity."""
    y1, y2, d = as_vectors(y1=y1, y2=y2, d=d)
    out = dml_atet(y2 - y1, d, X, learner_g, learner_m, plan, trim=trim,
                   alpha=alpha)
    out.diagnostics["rmse_dy0"] = out.diagnostics.pop("rmse_y0")
    return out


def dml_did_rcs(y, t, d, X, learner_g, learner_m, plan,
                trim: float = DEFAULT_TRIM, alpha: float = 0.05) -> DmlResult:
    """ATET for repeated cross sections.

    Nuisances: treated share p, post-period share lambda, propensity
    m(X), and per-cell outcome regressions g(d, t, X). The score
    reweights each (d, t) cell and subtracts the model-based trend among
    the treated.
    """
    y, t, d = as_vectors(y=y, t=t, d=d)
    _check_binary(d, "treatment")
    if not np.all(np.isin(t, (1.0, 2.0))):
        raise EmptyCell("period indicator must take values 1 and 2")
    post = (t == 2.0).astype(float)
    X = as_columns(X, y.size)
    p_hat = float(np.mean(d))
    lam = float(np.mean(post))
    if p_hat == 0.0:
        raise NoTreatedUnits("no treated observations")
    if lam in (0.0, 1.0):
        raise EmptyCell("both periods must be present")

    cells = {}
    for dd in (0.0, 1.0):
        for tt in (0.0, 1.0):
            cells[(dd, tt)] = (d == dd) & (post == tt)
            if not np.any(cells[(dd, tt)]):
                raise EmptyCell(f"cell (d={int(dd)}, t={int(tt) + 1}) is empty")
    degenerate_lambda = any(np.sum(rows) < 2 for rows in cells.values())

    g = {key: _subset_fit(learner_g, X, y, plan, rows, error=EmptyCell)
         for key, rows in cells.items()}
    m, trimmed = _propensity(learner_m, X, d, plan, trim)

    w = m * (1.0 - d) / (1.0 - m)
    psi_b = (
        d * post / (p_hat * lam) * (y - g[(1.0, 1.0)])
        - d * (1.0 - post) / (p_hat * (1.0 - lam)) * (y - g[(1.0, 0.0)])
        - w * post / (p_hat * lam) * (y - g[(0.0, 1.0)])
        + w * (1.0 - post) / (p_hat * (1.0 - lam)) * (y - g[(0.0, 0.0)])
        + d / p_hat * (g[(1.0, 1.0)] - g[(1.0, 0.0)])
        - d / p_hat * (g[(0.0, 1.0)] - g[(0.0, 0.0)])
    )
    diag = {"p_hat": p_hat, "lambda_hat": lam, "rmse_d": _rmse(d - m)}
    if degenerate_lambda:
        diag["degenerate_lambda"] = True
    return linear_score_result(
        psi_a=d / p_hat,
        psi_b=psi_b,
        alpha=alpha,
        trim_count=trimmed,
        diagnostics=diag,
    )
