"""Weak-identification-robust inference.

The score statistic C(theta) needs no first-stage strength to be valid:
it is chi-squared under the null regardless, so inverting it over a grid
of candidate values gives confidence regions with correct coverage even
when instruments are nearly irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from .dist import chi2_quantile
from .dml.engine import influence_covariance
from .errors import DegenerateVariance, DimensionMismatch
from .linalg import as_columns, as_matrix, as_vectors, ols_fit, robust_variance

GRID_POINTS = 401
CHOLESKY_JITTER = 1e-12


@dataclass
class Interval:
    lower: float
    upper: float
    open_lower: bool = False  # accepted set touches the grid edge
    open_upper: bool = False


@dataclass
class ConfidenceRegion:
    grid: np.ndarray
    statistic: np.ndarray
    accepted: np.ndarray
    intervals: list[Interval]
    alpha: float
    dof: int
    critical_value: float
    empty: bool = False
    disconnected: bool = False
    jitter_used: bool = False

    def contains(self, theta: float) -> bool:
        return any(iv.lower <= theta <= iv.upper for iv in self.intervals)


def _moment_matrix(ry, rd, rz, theta):
    """Per-observation moments (y_res - theta d_res) * z_res, (n, m)."""
    return (ry - theta * rd)[:, None] * rz


def _score_statistic(moments):
    """n M' V^{-1} M for per-observation moment rows; also reports
    whether the covariance needed a diagonal jitter."""
    n, m = moments.shape
    if n < 2:
        raise DimensionMismatch("need n >= 2 observations")
    mbar = moments.mean(axis=0)
    V = influence_covariance(moments)
    jitter = False
    try:
        L = sla.cholesky(V, lower=True)
    except sla.LinAlgError:
        jitter = True
        try:
            L = sla.cholesky(V + CHOLESKY_JITTER * np.eye(m), lower=True)
        except sla.LinAlgError as exc:
            raise DegenerateVariance(
                "moment covariance is singular even after jitter"
            ) from exc
    half = sla.solve_triangular(L, mbar, lower=True)
    return float(n * half @ half), jitter


def c_statistic(ry, rd, rz, theta: float) -> float:
    """Score statistic C(theta) for the residualized IV moments."""
    ry, rd = as_vectors(ry=ry, rd=rd)
    rz = as_columns(rz, ry.size)
    stat, _ = _score_statistic(_moment_matrix(ry, rd, rz, theta))
    return stat


def default_grid(lower: float, upper: float) -> np.ndarray:
    return np.linspace(lower, upper, GRID_POINTS)


def generic_weak_id(score_values, grid, alpha: float = 0.05) -> ConfidenceRegion:
    """Invert the score statistic of a callable theta -> per-observation
    moment rows over the grid at level alpha.

    Covers any orthogonal score: the caller supplies cross-fitted
    nuisances inside ``score_values`` and each grid point reuses them.
    The accepted set is reported as maximal grid intervals; it can be
    empty (flagged, not raised) or disconnected.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) < 0):
        raise DimensionMismatch("grid must be nonempty and sorted")
    values = np.empty(grid.size)
    jitter_any = False
    for i, theta in enumerate(grid):
        moments = as_matrix(score_values(theta))
        values[i], jit = _score_statistic(moments)
        jitter_any = jitter_any or jit
    dof = moments.shape[1]
    crit = float(chi2_quantile(1.0 - alpha, dof))
    accepted = values <= crit
    intervals: list[Interval] = []
    i = 0
    while i < grid.size:
        if accepted[i]:
            j = i
            while j + 1 < grid.size and accepted[j + 1]:
                j += 1
            intervals.append(Interval(
                lower=float(grid[i]),
                upper=float(grid[j]),
                open_lower=(i == 0),
                open_upper=(j == grid.size - 1),
            ))
            i = j + 1
        else:
            i += 1
    return ConfidenceRegion(
        grid=grid,
        statistic=values,
        accepted=accepted,
        intervals=intervals,
        alpha=alpha,
        dof=dof,
        critical_value=crit,
        empty=not intervals,
        disconnected=len(intervals) > 1,
        jitter_used=jitter_any,
    )


def robust_region(ry, rd, rz, grid, alpha: float = 0.05) -> ConfidenceRegion:
    """``generic_weak_id`` for the residualized IV moments
    (ry - theta rd) rz."""
    ry, rd = as_vectors(ry=ry, rd=rd)
    rz = as_columns(rz, ry.size)
    return generic_weak_id(lambda theta: _moment_matrix(ry, rd, rz, theta),
                           grid, alpha)


def first_stage_diag(rd, rz) -> dict:
    """Robust t statistic of the first stage; |t| > 4 counts as strong."""
    rd = as_vectors(rd=rd)
    rz = as_columns(rz, rd.size)
    if rd.size < 3:
        raise DimensionMismatch("need n >= 3")
    design = np.column_stack([np.ones(rd.size), rz])
    fit = ols_fit(design, rd)
    var = robust_variance(fit, "HC0")
    t = float(fit.coefficients[1] / var.std_errors[1])
    return {"t_stat": t, "strong": abs(t) > 4.0,
            "coefficient": float(fit.coefficients[1]),
            "std_error": float(var.std_errors[1])}

