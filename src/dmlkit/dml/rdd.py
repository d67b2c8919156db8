"""Sharp regression discontinuity estimation."""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch, OneSideEmpty
from ..linalg import as_columns, as_vectors, ols_fit
from .engine import DmlResult, linear_score_result

# Kernel weights of the scaled running variable u = (x - cutoff) / h.
KERNELS = {
    "triangular": lambda u: np.clip(1.0 - np.abs(u), 0.0, None),
    "uniform": lambda u: (np.abs(u) <= 1.0).astype(float),
}


def rdd_sharp(y, x, cutoff: float, bandwidth: float,
              kernel: str = "triangular", Z=None,
              alpha: float = 0.05) -> DmlResult:
    """Local linear jump estimate at the cutoff.

    Kernel-weighted OLS of y on an intercept, the treatment indicator
    D = 1(x >= cutoff), the scaled running variable, and its interaction
    with D; optional covariates Z enter linearly. The jump solves the
    linear score psi_a = 1, psi_b = tau + its HC0 influence values under
    the kernel weights (``influence``, one per used row), so the
    standard error ``linear_score_result`` takes from them is the HC0
    weighted-least-squares sandwich.
    """
    y, x = as_vectors(y=y, x=x)
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    if not 0.0 < bandwidth < np.inf:
        raise DimensionMismatch("bandwidth must be positive and finite")
    u = (x - cutoff) / bandwidth
    w = KERNELS[kernel](u)
    keep = w > 0.0
    treat = (x >= cutoff).astype(float)
    if not np.any(keep & (treat == 1.0)) or not np.any(keep & (treat == 0.0)):
        raise OneSideEmpty("need observations on both sides of the cutoff "
                           "within the bandwidth")
    Z = as_columns(Z, y.size)
    design = np.column_stack(
        [np.ones(y.size), treat, u, treat * u] + ([Z] if Z.shape[1] else [])
    )
    fit = ols_fit(design[keep], y[keep], weights=w[keep])
    n_used = int(np.sum(keep))
    # HC0 influence of the jump under the kernel weights,
    # n w_i e_i [(X'WX)^{-1} x_i]_jump, mean-zero by the WLS normal
    # equations: its mean square is the WLS sandwich variance.
    jump_row = np.linalg.inv(fit.second_moment)[1] @ fit.X.T
    influence = (n_used * fit.weights / np.sum(fit.weights)
                 * fit.residuals * jump_row)
    return linear_score_result(
        np.ones(n_used), float(fit.coefficients[1]) + influence, alpha=alpha,
        diagnostics={"bandwidth": bandwidth, "kernel": kernel,
                     "n_left": int(np.sum(keep & (treat == 0.0))),
                     "n_right": int(np.sum(keep & (treat == 1.0)))},
    )
