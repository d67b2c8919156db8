"""Validation of CATE models on held-out data: calibration by
prediction bins and TOC/QINI uplift curves with uniform bands.

Thresholds, bin edges, and tie-breaking probabilities always come from
non-test data so that the test-sample quantities are sample averages of
fixed functions. The one exception is an uplift grid point whose
non-test threshold lies above every test prediction: its top group is
the test rows tied at the highest test prediction, and the curves mark
it in ``adjusted``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dist import normal_quantile
from ..dml.engine import (InferenceResult, influence_covariance,
                          linear_score_result, normal_interval)
from ..double_lasso import band_critical_value
from ..errors import DimensionMismatch, EmptyBin
from ..linalg import as_vectors

DEFAULT_GRID_POINTS = 20  # log(p)^5 / n must stay small; 20 is plenty
UPLIFT_COLUMNS = ("q", "toc", "toc_lo", "toc_hi", "qini", "qini_lo",
                  "qini_hi")


@dataclass(kw_only=True)
class CalibrationReport(InferenceResult):
    """Mean DR signal per bin (``estimates``, also read as ``dr_means``,
    with its interval) against the mean prediction per bin."""

    bin_edges: np.ndarray
    model_means: np.ndarray
    counts: np.ndarray
    cal1: float
    cal2: float

    @property
    def dr_means(self) -> np.ndarray:
        return self.estimates


def _inputs(tau_test, signals_test, tau_nontest):
    """The test predictions, test signals and non-test predictions as
    float vectors, the first two on the same rows. Checked in that
    order, the first that is empty raises ``DimensionMismatch`` and the
    first that holds a NaN or an inf ``FloatingPointError``, naming it
    and its first such row."""
    tau, s = as_vectors(tau_test=tau_test, signals_test=signals_test)
    ref = as_vectors(tau_nontest=tau_nontest)
    for name, v in zip(("tau_test", "signals_test", "tau_nontest"),
                       (tau, s, ref)):
        if not v.size:
            raise DimensionMismatch(f"{name} is empty")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise FloatingPointError(
                f"{name} holds a non-finite value at row {bad[0]}")
    return tau, s, ref


def calibration(tau_test, signals_test, tau_nontest, K: int,
                alpha: float = 0.05) -> CalibrationReport:
    """Bin test observations by predicted effect and compare the mean
    prediction with the mean DR signal per bin.

    Bin edges are the K-quantiles of the non-test predictions. Bins
    whose edges tie (with each other or with the smallest non-test
    prediction) are merged, so a model with few distinct predictions
    gets fewer than K bins, with one entry of ``counts`` per bin used.
    cal1 is the count-weighted mean absolute gap, cal2 its squared
    analogue. An empty input raises ``DimensionMismatch``, and a NaN or
    an inf in any input ``FloatingPointError``.
    """
    tau_test, signals, tau_nontest = _inputs(tau_test, signals_test,
                                             tau_nontest)
    if K < 1:
        raise EmptyBin("need at least one bin")
    # Cut points that tie with each other or with the smallest non-test
    # prediction would bound a bin with no non-test mass; drop them.
    cuts = np.quantile(tau_nontest, np.linspace(0.0, 1.0, K + 1)[:-1])
    edges = np.unique(cuts)[1:]
    assignment = np.searchsorted(edges, tau_test, side="right")
    n = signals.size
    counts = np.bincount(assignment, minlength=edges.size + 1)
    if not counts.all():
        raise EmptyBin(f"bin {int(np.argmin(counts))} contains no test "
                       "observations")
    bins = assignment == np.arange(counts.size)[:, None]
    # Bin k's mean DR signal solves psi_a = 1{bin k}, psi_b = signal 1{bin k}.
    fits = [linear_score_result(m, signals * m, alpha=alpha) for m in bins]
    dr_means = np.concatenate([f.estimates for f in fits])
    model_means = np.array([np.mean(tau_test[m]) for m in bins])
    gaps = np.abs(dr_means - model_means)
    shares = counts / n
    return CalibrationReport(
        estimates=dr_means,
        std_errors=np.concatenate([f.std_errors for f in fits]),
        bin_edges=edges,
        model_means=model_means,
        counts=counts,
        cal1=float(np.sum(gaps * shares)),
        cal2=float(np.sum(gaps**2 * shares)),
        alpha=alpha,
        n=n,
    )


@dataclass
class UpliftCurves:
    grid: np.ndarray
    thresholds: np.ndarray
    tie_lambdas: np.ndarray
    toc: np.ndarray
    qini: np.ndarray
    shares: np.ndarray  # pi_hat(q)
    toc_variance: np.ndarray  # joint V_hat for the TOC vector
    qini_variance: np.ndarray
    toc_band: tuple[np.ndarray, np.ndarray]
    qini_band: tuple[np.ndarray, np.ndarray]
    toc_lower_band: np.ndarray  # one-sided
    qini_lower_band: np.ndarray
    autoc: float
    autoc_se: float
    autoc_lower: float
    auqc: float
    auqc_se: float
    auqc_lower: float
    alpha: float
    n: int
    adjusted: np.ndarray  # grid points whose top group fell back

    def rows(self) -> list[dict]:
        """The uplift table: per grid point q, both curves and their
        two-sided bands."""
        table = zip(self.grid, self.toc, *self.toc_band, self.qini,
                    *self.qini_band)
        return [dict(zip(UPLIFT_COLUMNS, map(float, row))) for row in table]

    def write_csv(self, path) -> None:
        from ..cli.reports import write_table
        write_table(self.rows(), path)


def top_share_rule(tau, ref, q):
    """Treat the top q-fraction as ranked by ``ref``.

    The threshold mu is the (1-q)-quantile of ``ref``, and lam is the
    share of the rows tied at mu that are treated so that exactly a
    q-fraction of ``ref`` is. Returns (mu, lam, pi), where pi is the
    fractional treatment indicator of ``tau``: 1 above mu, lam at it.
    """
    mu = float(np.quantile(ref, 1.0 - q))
    above = float(np.mean(ref > mu))
    at = float(np.mean(ref == mu))
    lam = min(max((q - above) / at, 0.0), 1.0) if at > 0 else 0.0
    return mu, lam, (tau > mu).astype(float) + lam * (tau == mu)


def toc_qini(tau_test, signals_test, tau_nontest, grid=None,
             alpha: float = 0.05, seed: int = 0) -> UpliftCurves:
    """Uplift curves of a CATE model on the test sample.

    TOC(q) compares the average effect among the top q-fraction
    (prioritized by the model) with the overall average; QINI rescales
    by the treated share. Thresholds and tie-breaking come from the
    non-test predictions; inference follows the joint Gaussian
    approximation with sup-norm Monte Carlo bands. An empty input raises
    ``DimensionMismatch``, and a NaN or an inf in any input
    ``FloatingPointError``.
    """
    tau, s, ref = _inputs(tau_test, signals_test, tau_nontest)
    if grid is None:
        grid = np.linspace(1.0 / DEFAULT_GRID_POINTS, 1.0, DEFAULT_GRID_POINTS)
    grid = np.asarray(grid, dtype=float)
    p = grid.size
    n = s.size
    theta = float(np.mean(s))

    thresholds = np.empty(p)
    lambdas = np.empty(p)
    indicators = np.empty((n, p))
    for ell, q in enumerate(grid):
        thresholds[ell], lambdas[ell], indicators[:, ell] = top_share_rule(
            tau, ref, q)
    # A non-test threshold can leave the top group empty on the test
    # split (a tree's top leaf may hold non-test rows only); such a point
    # treats the test rows tied at the highest test prediction instead.
    adjusted = ~indicators.any(axis=0)
    top = tau.max()
    thresholds[adjusted], lambdas[adjusted] = top, 1.0
    indicators[:, adjusted] = (tau == top)[:, None]
    shares = indicators.mean(axis=0)

    # Per-grid-point influence values: each curve is their mean and its
    # joint variance their covariance.
    psi_toc = (s - theta)[:, None] * (indicators / shares - 1.0)
    psi_qini = (s - theta)[:, None] * (indicators - shares)
    toc, qini = psi_toc.mean(axis=0), psi_qini.mean(axis=0)
    V_toc = influence_covariance(psi_toc)
    V_qini = influence_covariance(psi_qini)

    # Two-sided at alpha and one-sided (lower) at alpha from the alpha/2
    # sup-t quantile, for both curves off one set of draws.
    critical = band_critical_value(np.stack([V_toc, V_qini]),
                                   [alpha, alpha / 2.0], seed)

    def bands(values, V, c):
        se = np.sqrt(np.diag(V) / n)
        two = normal_interval(values, se, alpha, critical_value=c[0])
        one = normal_interval(values, se, alpha, critical_value=c[1])[0]
        return two, one

    toc_band, toc_lower = bands(toc, V_toc, critical[0])
    qini_band, qini_lower = bands(qini, V_qini, critical[1])

    # Area under the curves by the forward-difference sum, with the top
    # of the grid closing at q = 1.
    dq = np.append(np.diff(grid), 1.0 - grid[-1])
    z_one = normal_quantile(1.0 - alpha)

    def area(values, V):
        a = float(values @ dq)
        se = float(np.sqrt(dq @ V @ dq / n))
        return a, se, normal_interval(a, se, alpha, critical_value=z_one)[0]

    autoc, autoc_se, autoc_lower = area(toc, V_toc)
    auqc, auqc_se, auqc_lower = area(qini, V_qini)

    return UpliftCurves(
        grid=grid,
        thresholds=thresholds,
        tie_lambdas=lambdas,
        toc=toc,
        qini=qini,
        shares=shares,
        toc_variance=V_toc,
        qini_variance=V_qini,
        toc_band=toc_band,
        qini_band=qini_band,
        toc_lower_band=toc_lower,
        qini_lower_band=qini_lower,
        autoc=autoc,
        autoc_se=autoc_se,
        autoc_lower=autoc_lower,
        auqc=auqc,
        auqc_se=auqc_se,
        auqc_lower=auqc_lower,
        alpha=alpha,
        n=n,
        adjusted=adjusted,
    )
