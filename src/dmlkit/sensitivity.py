"""Diagnostics for unobserved confounding.

Partial-R-squared omitted-variable bounds, identification through
discrete or linear proxy controls, and the covariate balance check for
Horvitz-Thompson transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dml.engine import (influence_covariance, linear_score_result,
                         normal_interval)
from .dist import chi2_sf
from .dml.estimators import _plm_residuals
from .errors import BadR2, NotADistribution, SingularProxyMatrix
from .learners import cross_fit_residuals
from .linalg import (as_matrix, as_vectors, constant_columns, ols_fit,
                     robust_variance)
from .weak_id import first_stage_diag

CONTOUR_POINTS = 50
CONTOUR_R_MAX = 0.5  # the contour spans partial R-squares in [0, this]
PROXY_MAX_CONDITION = 1e10
CONTOUR_COLUMNS = ("r2_y", "r2_d", "phi_bound")


@dataclass
class OvbBound:
    """Omitted-variable bias bound from sensitivity parameters.

    r2_y is the partial R-squared of the confounder with the outcome
    (given the treatment), r2_d its R-squared with the treatment, and
    s the residual variance ratio E_n[(y_res - b d_res)^2] / E_n[d_res^2].
    """

    estimate: float
    r2_y: float
    r2_d: float
    s: float
    bias_bound: float
    lower: float
    upper: float
    contour: list[tuple[float, float, float]] = field(default_factory=list)

    def contour_rows(self) -> list[dict]:
        """The contour table: one row per (r2_y, r2_d) grid point."""
        return [dict(zip(CONTOUR_COLUMNS, point)) for point in self.contour]

    def write_contour_csv(self, path) -> None:
        from .cli.reports import write_table
        write_table(self.contour_rows(), path)


def _bias(r2_y, r2_d, s) -> float:
    return float(np.sqrt(r2_y * r2_d / (1.0 - r2_d) * s))


def ovb_bound(estimate: float, r2_y: float, r2_d: float, s: float) -> OvbBound:
    """Bound |bias| = sqrt(r2_y * r2_d / (1 - r2_d) * s) around the
    estimate."""
    for name, val in (("r2_y", r2_y), ("r2_d", r2_d)):
        if not 0.0 <= val < 1.0:
            raise BadR2(f"{name} must lie in [0, 1), got {val}")
    if s <= 0.0:
        raise BadR2("variance ratio s must be positive")
    phi = _bias(r2_y, r2_d, s)
    return OvbBound(
        estimate=float(estimate),
        r2_y=float(r2_y),
        r2_d=float(r2_d),
        s=float(s),
        bias_bound=phi,
        lower=float(estimate) - phi,
        upper=float(estimate) + phi,
    )


def ovb_from_data(y, d, X, learner_l, learner_m, plan, r2_y: float,
                  r2_d: float, contour_points: int = CONTOUR_POINTS) -> OvbBound:
    """Data-driven bound: estimate the partialled slope and variance
    ratio by cross-fitted residualization (the one dml_plm uses, each
    nuisance fit once per fold), then apply ovb_bound.

    Also fills a contour grid of the bias bound over
    [0, CONTOUR_R_MAX]^2 for plotting.
    """
    ry, rd, _ = _plm_residuals(y, d, X, learner_l, learner_m, plan)
    beta = linear_score_result(psi_a=rd * rd, psi_b=rd * ry).theta
    s = float(np.mean((ry - beta * rd) ** 2) / np.mean(rd**2))
    out = ovb_bound(beta, r2_y, r2_d, s)
    axis = np.linspace(0.0, CONTOUR_R_MAX, contour_points)
    out.contour = [
        (float(a), float(b), _bias(a, b, s))
        for a in axis
        for b in axis
    ]
    return out


def _check_distribution(vec, name) -> np.ndarray:
    vec = as_vectors(vec=vec)
    if np.any(vec < -1e-12) or abs(vec.sum() - 1.0) > 1e-8:
        raise NotADistribution(f"{name} must be a probability vector")
    return vec


def proxy_discrete(pi_y_dq, pi_s_qd, pi_s):
    """Interventional distribution from discrete proxy controls.

    For each treatment level d: p(y : do(d)) = pi(y|d, Q) @ pi(S|Q, d)^-1
    @ pi(S). ``pi_y_dq`` maps d to a (n_y, n_q) matrix of p(y|d, q),
    ``pi_s_qd`` maps d to the (n_s, n_q) matrix of p(s|q, d) (columns are
    distributions over s), and ``pi_s`` is the marginal of the proxy S.
    """
    pi_s = _check_distribution(pi_s, "pi_s")
    out = {}
    for dlev, y_mat in pi_y_dq.items():
        y_mat = np.asarray(y_mat, dtype=float)
        s_mat = np.asarray(pi_s_qd[dlev], dtype=float)
        if s_mat.shape[0] != s_mat.shape[1]:
            raise SingularProxyMatrix("proxy matrix must be square")
        for col in range(s_mat.shape[1]):
            _check_distribution(s_mat[:, col], f"pi_s_qd[{dlev}][:, {col}]")
        for col in range(y_mat.shape[1]):
            _check_distribution(y_mat[:, col], f"pi_y_dq[{dlev}][:, {col}]")
        if np.linalg.cond(s_mat) > PROXY_MAX_CONDITION:
            raise SingularProxyMatrix(
                f"proxy matrix for d={dlev} is numerically singular"
            )
        weights = np.linalg.solve(s_mat, pi_s)
        out[dlev] = y_mat @ weights
    return out


def proxy_linear_iv(y, d, s, q, X, learner, plan, alpha: float = 0.05):
    """Treatment effect with a latent confounder measured by two proxies.

    Residualize everything on X, then run IV of the outcome residual on
    (treatment, outcome-side proxy S) residuals using (treatment,
    instrument-side proxy Q) residuals as instruments. Returns the
    TargetInference-style summary for the treatment coefficient.
    """
    ry, rd, rs, rq = cross_fit_residuals(
        X, plan, *((learner, v) for v in as_vectors(y=y, d=d, s=s, q=q)))
    n = ry.size

    diag = first_stage_diag(rs, rq)
    Zmat = np.column_stack([rd, rq])
    Xmat = np.column_stack([rd, rs])
    A = Zmat.T @ Xmat / n
    if np.linalg.cond(A) > PROXY_MAX_CONDITION:
        raise SingularProxyMatrix("IV moment matrix is numerically singular")
    b = Zmat.T @ ry / n
    coef = np.linalg.solve(A, b)
    eps = ry - Xmat @ coef
    meat = influence_covariance(Zmat * eps[:, None])  # E_n[Z eps] = 0
    Ainv = np.linalg.inv(A)
    V = Ainv @ meat @ Ainv.T
    se = float(np.sqrt(V[0, 0] / n))
    est = float(coef[0])
    return {
        "estimate": est,
        "std_error": se,
        "ci": normal_interval(est, se, alpha),
        "proxy_loading": float(coef[1]),
        "first_stage": diag,
    }


def balance_check(H, W, alpha: float = 0.05) -> dict:
    """Regress the Horvitz-Thompson transform on covariates and test
    that every slope is zero (robust Wald). Under correct propensities
    the transform is mean-independent of W."""
    H = as_vectors(H=H)
    W = as_matrix(W)
    n = W.shape[0]
    keep = np.flatnonzero(~constant_columns(W))
    if not keep.size:
        return {"r2": 0.0, "wald": np.nan, "p_value": np.nan,
                "t_stats": np.array([]), "vacuous": True}
    Wk = W[:, keep]
    design = np.column_stack([np.ones(n), Wk])
    fit = ols_fit(design, H)
    var = robust_variance(fit, "HC0")
    slopes = fit.coefficients[1:]
    cov = var.matrix[1:, 1:]
    wald = float(slopes @ np.linalg.solve(cov, slopes))
    dof = len(keep)
    pval = float(chi2_sf(wald, dof))
    tstats = slopes / var.std_errors[1:]
    denom = float(np.mean((H - np.mean(H)) ** 2))
    r2 = 1.0 - fit.mse_sample / denom if denom > 0 else 0.0
    return {"r2": r2, "wald": wald, "p_value": pval, "t_stats": tstats,
            "dof": dof, "vacuous": False, "reject": pval < alpha}
