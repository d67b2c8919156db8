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
from .dml.engine import (InferenceResult, _check_variation, check_level,
                         influence_covariance, linear_score_result,
                         normal_interval)
from .errors import DimensionMismatch
from .linalg import as_columns, as_matrix, as_vectors, check_rows, partial_out
from .penalized import (_design, _lambda_max, _prepare, cv_fit, lasso_fit,
                        lasso_plugin, post_lasso)
from .rng import derive_seed, stream

SIMULTANEOUS_DRAWS = 100_000
SIMULTANEOUS_BLOCK = 8192


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

    The selected columns are refit by least squares (``post_lasso``)
    before residualizing, which removes the shrinkage that the penalty
    leaves in the fitted values. A selection of n or more columns leaves
    no residual to take and raises ``RankDeficient``.
    """
    y = as_vectors(y=y)
    if W.shape[1] == 0:
        return y - np.mean(y)
    return post_lasso(W, y, _rule_fit(y, W, lam_rule, seed)).residuals


def _rule_fit(y, W, lam_rule: str, seed: int = 0):
    """Lasso of y on W with the penalty picked by the named rule."""
    if lam_rule == "plugin":
        return lasso_plugin(W, y)
    if lam_rule == "zero":
        return lasso_fit(W, y, lam=0.0)
    if lam_rule != "cv":
        raise ValueError(f"unknown lambda rule {lam_rule!r}")
    from .learners import make_folds

    # One standardized design serves the grid's top and the final refit.
    design = _design(*_prepare(W, y))
    grid = (_lambda_max(W, y, _prepared=design)
            * np.geomspace(0.01, 1.0, 16))
    return cv_fit("lasso", W, y, grid, make_folds(y.size, 5, seed),
                  _prepared=design).refit


def _inputs(y, d, W):
    """The outcome as a float vector, the target(s) ``d`` as shaped by
    the caller (a float vector, or a matrix of target columns) and the
    controls as a matrix, n x 0 for None, all with the outcome's row
    count n. Raises ``DimensionMismatch`` unless n > 2: two rows leave
    no residual variation to take a standard error from."""
    y = as_vectors(y=y)
    check_rows(y=y, d=d)
    if y.size <= 2:
        raise DimensionMismatch("Double Lasso inference needs n > 2 rows")
    return y, d, as_columns(W, y.size)


def _residual_slope(ry, rd, target, alpha, name="target"):
    """Slope of the residual outcome ry on the residual target rd: the
    linear score psi_a = rd^2, psi_b = rd ry."""
    _check_variation(float(np.mean(rd**2)), target,
                     f"{name} has no residual variation after partialling out")
    return linear_score_result(rd * rd, rd * ry, alpha=alpha)


def _partialled_slopes(y, D, W, lam_rule, alpha, seed):
    """Partial y and each column of D out of the other columns stacked
    with the controls W by Lasso, and take each target's residual slope.
    Both Lasso fits of target ell draw their CV folds (``lam_rule="cv"``)
    from ``derive_seed(seed, "lasso-cv", ell)``. Returns the fits and the
    (n, p1) residual outcomes and targets."""
    p1 = D.shape[1]
    fits, ry_all, rd_all = [], [], []
    for ell in range(p1):
        controls = (np.column_stack([np.delete(D, ell, axis=1), W])
                    if p1 > 1 else W)
        fold_seed = derive_seed(seed, "lasso-cv", ell)
        ry = _lasso_residual(y, controls, lam_rule, fold_seed)
        rd = _lasso_residual(D[:, ell], controls, lam_rule, fold_seed)
        fits.append(_residual_slope(ry, rd, D[:, ell], alpha,
                                    f"target {ell}"))
        ry_all.append(ry)
        rd_all.append(rd)
    return fits, np.column_stack(ry_all), np.column_stack(rd_all)


def _stack(fits, alpha, seed: int = 0, **fields) -> TargetInference:
    """The per-target linear-score fits as one ``TargetInference``.

    The joint variance is the covariance of the stacked influence
    values. With more than one target the band takes the sup-t critical
    value drawn from ``seed``; with one it is the pointwise interval.
    """
    influence = np.column_stack([f.influence for f in fits])
    V = influence_covariance(influence)
    return TargetInference(
        estimates=np.concatenate([f.estimates for f in fits]),
        std_errors=np.concatenate([f.std_errors for f in fits]),
        joint_variance=V,
        critical_value=(band_critical_value(V, alpha, seed=seed)
                        if len(fits) > 1 else None),
        alpha=alpha, n=len(influence), **fields,
    )


def double_lasso(y, d, W, lam_rule: str = "plugin", alpha: float = 0.05,
                 seed: int = 0) -> TargetInference:
    """Double Lasso for a single target coefficient.

    Both the outcome and the target are partialled out of the controls by
    Lasso; the estimate is the slope of the residualized regression, the
    linear score psi_a = rd^2, psi_b = rd ry, with the HC0 standard error
    of its influence values. Each partialling step refits the selected
    controls by least squares before taking residuals. ``seed`` drives
    the CV folds of ``lam_rule="cv"``; with one target the band is the
    pointwise interval, so nothing else is drawn.
    """
    y, d, W = _inputs(y, as_vectors(d=d), W)
    fits, ry, rd = _partialled_slopes(y, d[:, None], W, lam_rule, alpha,
                                      seed)
    return _stack(fits, alpha, residual_outcome=ry[:, 0], residual_targets=rd)


def simultaneous_critical_value(correlation: np.ndarray, alpha,
                                seed: int = 0,
                                draws: int = SIMULTANEOUS_DRAWS):
    """(1-alpha)-quantile of the sup-norm of a N(0, correlation) draw.

    ``alpha`` may be a sequence of levels: one set of draws then gives
    an array with one quantile per level. ``correlation`` may also be a
    stack of k matrices of one size: the same draws then serve each, and
    the result gains a leading axis of length k. Raises ``BadLevel``
    unless each level lies in (0, 1).
    """
    check_level(alpha)
    correlation = np.asarray(correlation, dtype=float)
    stacked = correlation.ndim == 3
    if not stacked:
        correlation = np.atleast_2d(correlation)[None]
    alpha = np.asarray(alpha, dtype=float)
    p = correlation.shape[-1]
    if p == 1:
        c = np.array([normal_quantile(1.0 - alpha / 2.0)] * len(correlation))
    else:
        # Factor via eigendecomposition so rank-deficient (perfectly
        # correlated) cases are handled without jitter.
        roots = []
        for corr in correlation:
            vals, vecs = np.linalg.eigh(corr)
            roots.append(vecs * np.sqrt(np.clip(vals, 0.0, None)))
        # Drawn and reduced block by block, so the working memory is a
        # few MiB rather than three (draws, p) arrays. The generator
        # yields the same stream in blocks, and with power-of-two blocks
        # every row's product is bit-identical to that of one product
        # over all draws.
        gen = stream(seed, "simultaneous-band")
        sup = np.empty((len(roots), draws))
        for start in range(0, draws, SIMULTANEOUS_BLOCK):
            z = gen.standard_normal((min(SIMULTANEOUS_BLOCK, draws - start),
                                     p))
            for sup_k, root in zip(sup, roots):
                sup_k[start:start + len(z)] = np.max(np.abs(z @ root.T),
                                                     axis=1)
        c = np.array([np.quantile(sup_k, 1.0 - alpha) for sup_k in sup])
    if stacked:
        return c
    return float(c[0]) if c[0].ndim == 0 else c[0]


def band_critical_value(covariance: np.ndarray, alpha, seed: int = 0):
    """Sup-t critical value for estimates with joint ``covariance``.

    The covariance is scaled to a correlation; an estimate with zero
    variance is exact, so its row and column are zero and it adds
    nothing to the supremum. ``alpha`` may be a sequence of levels,
    all read off one set of draws. ``covariance`` may be a stack of
    matrices of one size, all likewise read off one set of draws (see
    ``simultaneous_critical_value``).
    """
    covariance = np.asarray(covariance, dtype=float)
    scale = np.sqrt(np.clip(np.diagonal(covariance, axis1=-2, axis2=-1),
                            0.0, None))
    safe = np.where(scale > 0, scale, 1.0)
    correlation = covariance / safe[..., :, None] / safe[..., None, :]
    return simultaneous_critical_value(correlation, alpha, seed=seed)


def many_targets(y, D, W, alpha: float = 0.05, lam_rule: str = "plugin",
                 seed: int = 0) -> TargetInference:
    """One-by-one Double Lasso over the columns of D with a joint band.

    Target ell is partialled out of the other targets stacked with the
    shared controls, and its slope solves the linear score with
    psi_a = rd^2 and psi_b = rd ry. The joint variance is the covariance
    of the targets' stacked influence values, and the simultaneous
    critical value comes from a Gaussian sup-norm Monte Carlo on the
    implied correlation matrix. ``seed`` drives both the CV folds of
    ``lam_rule="cv"`` (one plan per target) and the band's draws.
    """
    y, D, W = _inputs(y, as_matrix(D), W)
    fits, _, rd = _partialled_slopes(y, D, W, lam_rule, alpha, seed)
    return _stack(fits, alpha, seed, residual_targets=rd)


def _support_refit(y, d, W, keep, alpha, warning=None) -> TargetInference:
    """d's coefficient in the OLS of y on (1, d, W[:, keep]) with its HC0
    variance, by Frisch-Waugh-Lovell: the residual slope of y on d, both
    partialled out of (1, W[:, keep])."""
    controls = np.column_stack([np.ones(y.size), W[:, keep]])
    rd, ry = partial_out(np.column_stack([d, y]), controls).T
    return _stack([_residual_slope(ry, rd, d, alpha)], alpha, warning=warning)


def double_selection(y, d, W, lam_rule: str = "plugin",
                     alpha: float = 0.05) -> TargetInference:
    """Refit OLS of y on d plus the union of Lasso-selected controls."""
    y, d, W = _inputs(y, as_vectors(d=d), W)
    selected: set[int] = set()
    if W.shape[1]:
        for target in (y, d):
            fit = _rule_fit(target, W, lam_rule)
            selected.update(int(j) for j in fit.active_set)
    return _support_refit(y, d, W, sorted(selected), alpha)


def desparsified_lasso(y, d, W, lam_rule: str = "plugin",
                       alpha: float = 0.05) -> TargetInference:
    """Debias the Lasso coefficient of d using the residualized target
    as the instrument; both Lasso fits take the penalty ``lam_rule``
    picks. The estimate solves the linear score with psi_a = d rd and
    psi_b = partial_y rd, where partial_y is y less the joint Lasso's
    intercept and control part."""
    y, d, W = _inputs(y, as_vectors(d=d), W)
    joint = _rule_fit(y, np.column_stack([d, W]), lam_rule)
    if W.shape[1]:
        rd = d - _rule_fit(d, W, lam_rule).predict(W)
    else:
        rd = d - np.mean(d)
    _check_variation(float(np.mean(d * rd)), d,
                     "instrumenting residual is degenerate")
    partial_y = y - joint.intercept - W @ joint.coefficients[1:]
    return _stack([linear_score_result(d * rd, partial_y * rd, alpha=alpha)],
                  alpha)


def naive_single_selection(y, d, W, alpha: float = 0.05) -> TargetInference:
    """Single-selection refit. Invalid for inference; kept for demos and
    the result carries a warning tag saying so."""
    y, d, W = _inputs(y, as_vectors(d=d), W)
    fit = lasso_plugin(np.column_stack([d, W]), y)
    keep = sorted(int(j) - 1 for j in fit.active_set if j >= 1)
    return _support_refit(
        y, d, W, keep, alpha,
        warning="single selection is not Neyman orthogonal; inference invalid")
