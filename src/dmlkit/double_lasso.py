"""Inference on target coefficients in high-dimensional linear models.

The workhorse is the partialling-out Double Lasso: residualize the
outcome and the target on the controls with plug-in Lasso, then regress
residual on residual. Variants with the same interface cover several
targets at once (with a simultaneous band), double selection, the
desparsified Lasso, and, for demonstrations, invalid single selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dist import normal_p_value, normal_quantile
from .dml.engine import InferenceResult, normal_interval
from .dml.estimators import _columns
from .errors import DimensionMismatch, WeakResidualVariation
from .linalg import as_matrix, ols_fit, robust_variance
from .penalized import _lambda_max, cv_fit, lasso_fit, lasso_plugin
from .rng import stream

SIMULTANEOUS_DRAWS = 100_000
SIMULTANEOUS_BLOCK = 8192
WEAK_VARIATION_RTOL = 1e-10


@dataclass(kw_only=True)
class TargetInference(InferenceResult):
    """Per-target estimates with pointwise and simultaneous intervals.

    ``band_lower``/``band_upper`` are derived from ``critical_value``
    (by default the normal quantile, so the band is the pointwise
    interval), and ``p_values`` are the marginal normal-based ones.
    """

    joint_variance: np.ndarray  # V_hat, per-sqrt(n) scale
    critical_value: float | None = None
    residual_outcome: np.ndarray | None = None
    residual_targets: np.ndarray | None = None
    warning: str | None = None
    band_lower: np.ndarray = field(init=False)
    band_upper: np.ndarray = field(init=False)
    p_values: np.ndarray = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        if self.critical_value is None:
            self.critical_value = float(normal_quantile(1.0 - self.alpha / 2.0))
        self.band_lower, self.band_upper = normal_interval(
            self.estimates, self.std_errors, self.alpha, self.critical_value)
        self.p_values = normal_p_value(self.estimates, self.std_errors)


def _lasso_residual(y, W, lam_rule: str, seed: int = 0):
    """Partial a vector out of high-dimensional controls via Lasso.

    The selected columns are refit by least squares before residualizing,
    which removes the shrinkage that the penalty leaves in the fitted
    values.
    """
    y = np.asarray(y, dtype=float).ravel()
    if W is None or W.shape[1] == 0:
        return y - np.mean(y)
    active = np.flatnonzero(_rule_fit(y, W, lam_rule, seed).coefficients)
    if active.size == 0 or active.size >= y.size:
        return y - np.mean(y)
    Z = np.column_stack([np.ones(y.size), W[:, active]])
    coef, *_ = np.linalg.lstsq(Z, y, rcond=None)
    return y - Z @ coef


def _rule_fit(y, W, lam_rule: str, seed: int = 0):
    """Lasso of y on W with the penalty picked by the named rule."""
    if lam_rule == "plugin":
        return lasso_plugin(W, y)
    if lam_rule == "zero":
        return lasso_fit(W, y, lam=0.0)
    if lam_rule != "cv":
        raise ValueError(f"unknown lambda rule {lam_rule!r}")
    from .learners import make_folds

    grid = _lambda_max(W, y) * np.geomspace(0.01, 1.0, 16)
    return cv_fit("lasso", W, y, grid, make_folds(y.size, 5, seed)).refit


def _inputs(y, d, W):
    """The outcome as a float vector, the target(s) ``d`` as given by the
    caller (a vector, or a matrix of target columns) and the controls as
    a matrix, n x 0 for None, all with the outcome's row count n."""
    y = np.asarray(y, dtype=float).ravel()
    d = np.asarray(d, dtype=float)
    if len(d) != y.size:
        raise DimensionMismatch("y and d have different row counts")
    return y, d, _columns(W, y.size)


def _single_target_inference(estimate, variance, n, alpha, resid_y=None,
                             resid_d=None, warning=None) -> TargetInference:
    # With one target the simultaneous band is the pointwise interval.
    return TargetInference(
        estimates=np.array([estimate]),
        std_errors=np.array([np.sqrt(variance / n)]),
        joint_variance=np.array([[variance]]),
        residual_outcome=resid_y,
        residual_targets=None if resid_d is None else np.asarray(resid_d)[:, None],
        warning=warning,
        alpha=alpha,
        n=n,
    )


def double_lasso(y, d, W, lam_rule: str = "plugin",
                 alpha: float = 0.05) -> TargetInference:
    """Double Lasso for a single target coefficient.

    Both the outcome and the target are partialled out of the controls by
    Lasso; the estimate is the slope of the residualized regression with a
    heteroskedasticity-robust standard error. Each partialling step
    refits the selected controls by least squares before taking
    residuals.
    """
    y, d, W = _inputs(y, np.ravel(d), W)
    n = y.size
    if n <= 2:
        raise DimensionMismatch("double_lasso needs n > 2 rows")

    ry = _lasso_residual(y, W, lam_rule)
    rd = _lasso_residual(d, W, lam_rule)
    denom = float(np.mean(rd**2))
    if denom < WEAK_VARIATION_RTOL * float(np.mean(d**2)):
        raise WeakResidualVariation(
            "target has no residual variation after partialling out"
        )
    estimate = float(np.mean(rd * ry) / denom)
    eps = ry - estimate * rd
    variance = float(np.mean(rd**2 * eps**2)) / denom**2
    return _single_target_inference(estimate, variance, n, alpha, ry, rd)


def simultaneous_critical_value(correlation: np.ndarray, alpha,
                                seed: int = 0,
                                draws: int = SIMULTANEOUS_DRAWS):
    """(1-alpha)-quantile of the sup-norm of a N(0, correlation) draw.

    ``alpha`` may be a sequence of levels: one set of draws then gives
    an array with one quantile per level.
    """
    correlation = np.atleast_2d(np.asarray(correlation, dtype=float))
    alpha = np.asarray(alpha, dtype=float)
    p = correlation.shape[0]
    if p == 1:
        c = normal_quantile(1.0 - alpha / 2.0)
        return float(c) if c.ndim == 0 else c
    # Factor via eigendecomposition so rank-deficient (perfectly
    # correlated) cases are handled without jitter.
    vals, vecs = np.linalg.eigh(correlation)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    # Drawn and reduced block by block, so the working memory is a few
    # MiB rather than three (draws, p) arrays. The generator yields the
    # same stream in blocks, and with power-of-two blocks every row's
    # product is bit-identical to that of one product over all draws.
    gen = stream(seed, "simultaneous-band")
    sup = np.empty(draws)
    for start in range(0, draws, SIMULTANEOUS_BLOCK):
        z = gen.standard_normal((min(SIMULTANEOUS_BLOCK, draws - start), p))
        sup[start:start + len(z)] = np.max(np.abs(z @ root.T), axis=1)
    c = np.quantile(sup, 1.0 - alpha)
    return float(c) if c.ndim == 0 else c


def band_critical_value(covariance: np.ndarray, alpha, seed: int = 0):
    """Sup-t critical value for estimates with joint ``covariance``.

    The covariance is scaled to a correlation; an estimate with zero
    variance is exact, so its row and column are zero and it adds
    nothing to the supremum. ``alpha`` may be a sequence of levels,
    all read off one set of draws.
    """
    scale = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    safe = np.where(scale > 0, scale, 1.0)
    correlation = covariance / safe[:, None] / safe[None, :]
    return simultaneous_critical_value(correlation, alpha, seed=seed)


def many_targets(y, D, W, alpha: float = 0.05, lam_rule: str = "plugin",
                 seed: int = 0) -> TargetInference:
    """One-by-one Double Lasso over the columns of D with a joint band.

    Target ell is partialled out of the other targets stacked with the
    shared controls. The joint variance uses cross residual products and
    the simultaneous critical value comes from a Gaussian sup-norm
    Monte Carlo on the implied correlation matrix.
    """
    y, D, W = _inputs(y, as_matrix(D), W)
    n, p1 = D.shape

    ry_all = np.empty((n, p1))
    rd_all = np.empty((n, p1))
    estimates = np.empty(p1)
    for ell in range(p1):
        others = np.delete(D, ell, axis=1)
        controls = np.column_stack([others, W]) if others.size or W.size else W
        ry = _lasso_residual(y, controls, lam_rule)
        rd = _lasso_residual(D[:, ell], controls, lam_rule)
        denom = float(np.mean(rd**2))
        if denom < WEAK_VARIATION_RTOL * float(np.mean(D[:, ell] ** 2)):
            raise WeakResidualVariation(f"target {ell} has no residual variation")
        estimates[ell] = np.mean(rd * ry) / denom
        ry_all[:, ell] = ry
        rd_all[:, ell] = rd

    eps = ry_all - rd_all * estimates[None, :]
    denoms = np.mean(rd_all**2, axis=0)
    # V_lk = (E[rd_l^2])^-1 E[rd_l rd_k eps_l eps_k] (E[rd_k^2])^-1
    cross = (rd_all * eps).T @ (rd_all * eps) / n
    V = cross / denoms[:, None] / denoms[None, :]
    V = 0.5 * (V + V.T)
    return TargetInference(
        estimates=estimates,
        std_errors=np.sqrt(np.diag(V) / n),
        joint_variance=V,
        critical_value=band_critical_value(V, alpha, seed=seed),
        residual_targets=rd_all,
        alpha=alpha,
        n=n,
    )


def double_selection(y, d, W, lam_rule: str = "plugin",
                     alpha: float = 0.05) -> TargetInference:
    """Refit OLS of y on d plus the union of Lasso-selected controls."""
    y, d, W = _inputs(y, np.ravel(d), W)
    n = y.size

    selected: set[int] = set()
    if W.shape[1]:
        for target in (y, d):
            fit = _rule_fit(target, W, lam_rule)
            selected.update(int(j) for j in fit.active_set)
    keep = sorted(selected)
    design = np.column_stack([np.ones(n), d, W[:, keep]])
    fit = ols_fit(design, y)
    var = robust_variance(fit, "HC0")
    estimate = float(fit.coefficients[1])
    variance = float(var.matrix[1, 1] * n)
    return _single_target_inference(estimate, variance, n, alpha)


def desparsified_lasso(y, d, W, lam_rule: str = "plugin",
                       alpha: float = 0.05) -> TargetInference:
    """Debias the Lasso coefficient of d using the residualized target
    as the instrument; both Lasso fits take the penalty ``lam_rule``
    picks."""
    y, d, W = _inputs(y, np.ravel(d), W)
    n = y.size

    joint = _rule_fit(y, np.column_stack([d, W]), lam_rule)
    if W.shape[1]:
        rd = d - _rule_fit(d, W, lam_rule).predict(W)
    else:
        rd = d - np.mean(d)
    denom = float(np.mean(d * rd))
    if abs(denom) < WEAK_VARIATION_RTOL * max(float(np.mean(d**2)), 1e-300):
        raise WeakResidualVariation("instrumenting residual is degenerate")
    partial_y = y - joint.intercept - W @ joint.coefficients[1:]
    estimate = float(np.mean(partial_y * rd) / denom)
    eps = partial_y - estimate * d
    variance = float(np.mean(rd**2 * eps**2)) / denom**2
    return _single_target_inference(estimate, variance, n, alpha)


def naive_single_selection(y, d, W, alpha: float = 0.05) -> TargetInference:
    """Single-selection refit. Invalid for inference; kept for demos and
    the result carries a warning tag saying so."""
    y, d, W = _inputs(y, np.ravel(d), W)
    n = y.size

    full = np.column_stack([d, W])
    fit = lasso_plugin(full, y)
    keep = sorted(int(j) - 1 for j in fit.active_set if j >= 1)
    design = np.column_stack([np.ones(n), d, W[:, keep]])
    ofit = ols_fit(design, y)
    var = robust_variance(ofit, "HC0")
    estimate = float(ofit.coefficients[1])
    variance = float(var.matrix[1, 1] * n)
    return _single_target_inference(
        estimate, variance, n, alpha,
        warning="single selection is not Neyman orthogonal; inference invalid")
