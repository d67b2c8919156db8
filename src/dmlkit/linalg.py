"""Input coercion, dense OLS, robust sandwich variances, and partialling
out.

This module owns the per-row inputs of every estimator: their coercion
to float vectors and matrices, the check that arguments describing the
same rows do, and the rule that a column is constant. Fits are solved
by column-pivoted QR with explicit rank detection, variance estimators
cover the HC0/HC1/HC3 family, and ``partial_out`` implements the
Frisch-Waugh-Lovell residualization used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreesOfFreedom,
    DimensionMismatch,
    LeverageOne,
    RankDeficient,
)

RANK_RTOL = 1e-10


@dataclass
class OlsFit:
    """Result of a (weighted) least-squares fit."""

    coefficients: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    leverage: np.ndarray
    second_moment: np.ndarray  # E_n[w X X']
    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    rank: int

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.coefficients.size

    @property
    def mse_sample(self) -> float:
        w = self.weights
        return float(np.sum(w * self.residuals**2) / np.sum(w))

    @property
    def r2_sample(self) -> float:
        w = self.weights
        total = float(np.sum(w * self.y**2) / np.sum(w))
        if total == 0.0:
            return 0.0
        return 1.0 - self.mse_sample / total


@dataclass
class VarianceEstimate:
    kind: str
    matrix: np.ndarray  # V_hat / n, the sampling covariance of beta_hat
    std_errors: np.ndarray


def check_rows(**named) -> None:
    """Raise DimensionMismatch unless every array given has as many rows
    as the first; a None (an optional argument left out) is skipped."""
    rows = [(name, len(v)) for name, v in named.items() if v is not None]
    for name, count in rows[1:]:
        if count != rows[0][1]:
            raise DimensionMismatch(
                f"{rows[0][0]} and {name} have different row counts")


def as_vectors(**named):
    """Each argument as a flat float vector, in the order given: the
    array itself for one argument, else a tuple. A None stays None.
    Pass together only arguments that describe the same rows; they are
    checked by ``check_rows``."""
    out = {name: None if v is None else np.asarray(v, dtype=float).ravel()
           for name, v in named.items()}
    check_rows(**out)
    vectors = tuple(out.values())
    return vectors[0] if len(vectors) == 1 else vectors


def as_matrix(X, width: int | None = None) -> np.ndarray:
    """Float array with a vector read as one column; with ``width``, a
    fitted model's column count, any other count of columns raises
    ``DimensionMismatch``."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatch("design must be a vector or matrix")
    if width is not None and X.shape[1] != width:
        raise DimensionMismatch(
            f"design has {X.shape[1]} columns, the fit has {width}")
    return X


def as_columns(X, n: int) -> np.ndarray:
    """Covariates as a float matrix (``as_matrix``) of n rows; None is
    the n x 0 matrix."""
    if X is None:
        return np.empty((n, 0))
    X = as_matrix(X)
    if X.shape[0] != n:
        raise DimensionMismatch(
            f"covariates have {X.shape[0]} rows, the outcome has {n}")
    return X


def constant_columns(X) -> np.ndarray:
    """Mask of the columns of X whose values are all equal. Centring such
    a column need not give exact zeros (six 0.1s centre to 1.39e-17), so
    this, not a zero scale, marks a column as carrying no variation."""
    return np.ptp(X, axis=0) == 0.0


def _factor(Xw, rank_deficient_ok: bool = False):
    """Column-pivoted QR of Xw with its numerical rank, ``(Q, R, piv,
    rank)``. Raises RankDeficient if the rank falls short of the column
    count beyond the relative tolerance, unless ``rank_deficient_ok``."""
    # scipy.linalg and its BLAS load on the first fit, not at start-up:
    # a run whose learners are all trees never fits by QR.
    from scipy import linalg as sla
    Q, R, piv = sla.qr(Xw, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    top = diag[0] if diag.size else 0.0
    rank = int(np.sum(diag > RANK_RTOL * top)) if top > 0 else 0
    p = Xw.shape[1]
    if rank < p and not rank_deficient_ok:
        raise RankDeficient(f"design has numerical rank {rank} < {p} columns")
    return Q, R, piv, rank


def _solve(factor, yw):
    """Least-squares coefficients of yw on a full-rank ``_factor``."""
    from scipy import linalg as sla
    Q, R, piv, rank = factor
    beta = np.zeros(R.shape[1])
    rhs = Q.T @ yw
    beta[piv] = sla.solve_triangular(R[:rank, :rank], rhs[:rank])
    return beta


def ols_fit(X, y, weights=None, minimum_norm: bool = False) -> OlsFit:
    """Least squares of y on the columns of X.

    Solved by column-pivoted QR. If X is rank deficient beyond the
    relative tolerance, RankDeficient is raised unless the caller opts
    into the minimum-norm solution. The leverages are the squared row
    norms of the factor's Q over its numerical rank.
    """
    y, w = as_vectors(y=y, weights=weights)
    X = as_columns(X, y.size)
    n, p = X.shape
    if n < 1:
        raise DimensionMismatch("need at least one observation")
    w = np.ones(n) if w is None else w

    sw = np.sqrt(w)
    Xw = X * sw[:, None]
    yw = y * sw

    if p == 0:
        beta = np.empty(0)
        rank = 0
        leverage = np.zeros(n)
    else:
        factor = _factor(Xw, rank_deficient_ok=minimum_norm)
        Q, rank = factor[0], factor[-1]
        if rank < p:
            beta, *_ = np.linalg.lstsq(Xw, yw, rcond=None)
        else:
            beta = _solve(factor, yw)
        # Leverage of row i in the weighted hat matrix, the projection
        # onto the column space of Xw: Q_r Q_r' for its first rank columns.
        leverage = np.sum(Q[:, :rank] ** 2, axis=1)

    fitted = X @ beta
    resid = y - fitted
    wsum = np.sum(w)
    second_moment = (Xw.T @ Xw) / wsum if p else np.empty((0, 0))

    return OlsFit(
        coefficients=beta,
        residuals=resid,
        fitted=fitted,
        leverage=leverage,
        second_moment=second_moment,
        X=X,
        y=y,
        weights=w,
        rank=rank,
    )


def robust_variance(fit: OlsFit, kind: str = "HC1") -> VarianceEstimate:
    """Eicker-Huber-White sandwich variance for an OLS fit.

    HC0 uses raw squared residuals, HC1 rescales by n/(n-p), and HC3
    weights each squared residual by (1 - h_i)^{-2} (jackknife form).
    A weighted fit gets the weighted-least-squares sandwich.
    """
    kind = kind.upper()
    if kind not in ("HC0", "HC1", "HC3"):
        raise ValueError(f"unknown variance kind {kind!r}")
    n, p = fit.n, fit.p
    if kind == "HC3" and np.any(fit.leverage >= 1.0 - 1e-12):
        raise LeverageOne("HC3 undefined when some leverage equals one")

    omega = fit.residuals**2
    if kind == "HC1":
        if n <= p:
            raise DegreesOfFreedom("HC1 requires n > p")
        omega = omega * (n / (n - p))
    elif kind == "HC3":
        omega = omega / (1.0 - fit.leverage) ** 2

    # With B = E_w[X X'] = X'WX / sum(w), the weighted-least-squares
    # sandwich (X'WX)^{-1} X'W^2 Omega X (X'WX)^{-1} is B^{-1} M B^{-1} /
    # sum(w) for M = X'W^2 Omega X / sum(w). Unit weights give sum(w) = n
    # exactly, so the unweighted HC forms come out bit for bit.
    w = fit.weights
    wsum = np.sum(w)
    Xs = fit.X * (w * omega / wsum * w)[:, None]
    meat = fit.X.T @ Xs
    try:
        bread = np.linalg.inv(fit.second_moment)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded upstream
        raise RankDeficient("second-moment matrix singular") from exc
    V = bread @ meat @ bread
    cov = V / wsum
    return VarianceEstimate(kind=kind, matrix=cov, std_errors=np.sqrt(np.diag(cov)))


def partial_out(V, W, weights=None) -> np.ndarray:
    """Residualize V (vector or columns) on the control matrix W.

    Returns residuals orthogonal in sample to every column of W. With an
    empty W the input is returned unchanged. W is factored once for all
    columns of V, and each column's residuals are those of its
    ``ols_fit`` on W, bit for bit; a rank-deficient W raises
    RankDeficient as that fit does.
    """
    V = np.asarray(V, dtype=float)
    squeeze = V.ndim == 1
    Vm = V[:, None] if squeeze else V
    W = as_columns(W, len(Vm))
    w = as_vectors(weights=weights)
    check_rows(V=Vm, weights=w)
    if W.shape[1] == 0:
        out = Vm.copy()
    else:
        sw = np.sqrt(np.ones(len(W)) if w is None else w)
        factor = _factor(W * sw[:, None])
        out = np.empty_like(Vm, dtype=float)
        for j, v in enumerate(Vm.T):
            out[:, j] = v - W @ _solve(factor, v * sw)
    return out[:, 0] if squeeze else out


def predictive_metrics(y_true, y_pred, p: int, center: bool = False,
                       train_mean: float | None = None) -> dict:
    """Out-of-sample MSE/R^2 plus degrees-of-freedom adjusted versions.

    R^2 uses the raw uncentered second moment of the outcome by default;
    with ``center=True`` outcomes are demeaned using ``train_mean`` (the
    training-sample mean) before the total second moment is formed.
    """
    y_true, y_pred = as_vectors(y_true=y_true, y_pred=y_pred)
    n = y_true.size
    y_ref = y_true
    if center:
        mu = float(np.mean(y_true)) if train_mean is None else float(train_mean)
        y_ref = y_true - mu
    mse = float(np.mean((y_true - y_pred) ** 2))
    total = float(np.mean(y_ref**2))
    r2 = 1.0 - mse / total if total > 0 else 0.0
    out = {"mse_test": mse, "r2_test": r2}
    if p >= n:
        raise DegreesOfFreedom("adjusted metrics require p < n")
    mse_adj = n / (n - p) * mse
    out["mse_adjusted"] = mse_adj
    out["r2_adjusted"] = 1.0 - mse_adj / total if total > 0 else 0.0
    return out
