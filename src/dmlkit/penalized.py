"""Penalized linear regression.

Lasso solved by coordinate descent with the theoretically justified
plug-in penalty, plus Post-Lasso refitting, Ridge, Elastic Net, and
K-fold cross-validation for tuning. The working objective is

    sum_i (y_i - a - b'x_i)^2 + lam_ridge * sum_j b_j^2
                              + lam * sum_j psi_j |b_j|

with the intercept handled by demeaning and never penalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from .dist import normal_quantile
from .errors import (
    DimensionMismatch,
    FoldTooSmall,
    NoConvergence,
    NonFinitePenalty,
)
from .linalg import OlsFit, as_matrix, ols_fit

MAX_SWEEPS = 10_000
COORD_TOL = 1e-7
KKT_TOL = 1e-6


@dataclass
class LassoFit:
    """A fitted Lasso. ``n_sweeps`` counts coordinate-descent sweeps, each
    one pass over the solver's working set rather than over all columns
    (0 for the closed-form fits); ``kkt_gap`` is the certified gap."""

    coefficients: np.ndarray
    intercept: float
    lam: float
    lam_ridge: float
    loadings: np.ndarray
    sigma_hat: float | None
    n_sweeps: int
    kkt_gap: float
    degenerate_columns: list[int] = field(default_factory=list)

    @property
    def active_set(self) -> np.ndarray:
        return np.flatnonzero(self.coefficients)

    def predict(self, X) -> np.ndarray:
        return self.intercept + as_matrix(X) @ self.coefficients


@dataclass
class CvReport:
    grid: list
    fold_mses: np.ndarray  # (len(grid), K)
    cv_mse: np.ndarray
    selected_index: int
    selected_parameter: object
    refit: object


def _prepare(X, y):
    X = as_matrix(X)
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise DimensionMismatch("X and y have different row counts")
    return X, y


def _standardize(X, y):
    """The design every Lasso solve reads: y centred, and the columns of
    X centred and scaled to unit mean square (constant columns, of scale
    0, stay zero). ``Xs`` is in Fortran order, contiguous columns for the
    solver's BLAS calls. Returns ``(Xs, yc, xbar, ybar, scale)``."""
    xbar = X.mean(axis=0)
    ybar = float(y.mean())
    Xc = X - xbar
    scale = np.sqrt(np.mean(Xc**2, axis=0))
    Xs = np.divide(Xc, np.where(scale > 0, scale, 1.0),
                   out=np.empty(X.shape, order="F"))
    return Xs, y - ybar, xbar, ybar, scale


def _lambda_max(X, y) -> float:
    """Smallest penalty at which the Lasso solution is all zeros (1.0
    when y is constant)."""
    Xs, yc = _standardize(*_prepare(X, y))[:2]
    top = float(np.max(np.abs(Xs.T @ yc), initial=0.0))
    return 2.0 * top if top > 0 else 1.0


def _coordinate_descent(Xc, yc, lam, lam_ridge, loadings, beta0=None):
    """Minimize sum (yc - Xc b)^2 + lam_ridge ||b||^2 + lam sum psi_j |b_j|.

    Exact coordinate minimization with a running residual, cycled over a
    working set (glmnet's active-set cycling): the nonzero coordinates
    plus those that violate the KKT conditions at the start
    (|2 x_j'r| > lam psi_j). A sweep is one pass over the working set.
    When a sweep converges (largest change below ``COORD_TOL``, or an
    objective that has stalled, as flat directions of an underdetermined
    design can keep coefficients drifting without changing the fit), the
    full gradient is recomputed and every violator outside the set joins
    it; with none left, the solve stops once the KKT stationarity gap of
    ``_kkt_gap`` is within ``KKT_TOL`` of the problem scale.

    After a sweep that leaves the support A and its signs s unchanged,
    the minimizer on that sign pattern is solved for,
    (X_A'X_A + lam_ridge I) b = X_A'yc - lam psi_A s_A / 2 (the step of
    the Lasso homotopy method). The solve moves to b if sign(b) = s_A;
    otherwise it moves towards b up to the first coefficient that
    reaches zero, which leaves the pattern. Without a ridge and with
    |A| >= n, X_A'X_A is singular and the move is instead along the null
    space of X_A, where the fit is unchanged and the l1 term falls. A
    move is kept only if the objective does not rise, and each pattern
    is tried once. The objective is non-increasing across sweeps by
    construction (checked below). ``beta0`` warm-starts the solve.
    Returns the coefficients, the sweep count and the certified KKT gap.
    """
    n, p = Xc.shape
    Xc = np.asfortranarray(Xc)  # contiguous columns for the BLAS calls
    beta = np.zeros(p) if beta0 is None else beta0.astype(float)
    colsq = np.einsum("ij,ij->j", Xc, Xc)
    live = colsq > 0
    beta[~live] = 0.0
    r = yc - Xc @ beta if beta.any() else yc.astype(float)
    thresholds = 0.5 * lam * loadings
    denom = colsq + lam_ridge
    gap_scale = max(1.0, lam * float(loadings.max(initial=0.0)),
                    2.0 * float(np.abs(Xc.T @ yc).max(initial=0.0)))
    sign = np.sign
    b = beta.tolist()
    in_set = live & ((beta != 0.0) | (np.abs(Xc.T @ r) > thresholds))
    tried = set()

    def working_set():
        ws = np.flatnonzero(in_set)
        items = list(zip(ws.tolist(), [Xc[:, j] for j in ws],
                         colsq[ws].tolist(), thresholds[ws].tolist(),
                         denom[ws].tolist()))
        return ws, items

    def objective(resid, coefs, psi):
        return float(resid @ resid) + lam_ridge * float(coefs @ coefs) + (
            lam * float(psi @ np.abs(coefs))
        )

    def sign_pattern_step(ws, bw):
        """A descent step on the sign pattern of ``bw``, the working-set
        coefficients, or None."""
        nz = np.flatnonzero(bw)
        if nz.size == 0:
            return None
        A = ws[nz]
        s = sign(bw[nz])
        key = A.tobytes() + s.tobytes()
        if key in tried:
            return None
        tried.add(key)
        XA, cur = Xc[:, A], bw[nz]
        if lam_ridge == 0.0 and A.size >= n:
            # No pattern minimizer: descend along the null space of X_A.
            _, sv, vt = np.linalg.svd(XA)
            null = vt[int(np.sum(sv > sv[0] * 1e-10)):]
            v = -(null.T @ (null @ (thresholds[A] * s)))
            reach = np.inf
        else:
            gram = XA.T @ XA
            gram.flat[:: A.size + 1] += lam_ridge
            try:
                v = np.linalg.solve(gram, XA.T @ yc - thresholds[A] * s) - cur
            except np.linalg.LinAlgError:
                return None
            reach = 1.0
        crossing = np.flatnonzero(cur * v < 0.0)
        steps = -cur[crossing] / v[crossing]
        alpha = min(reach, float(steps.min(initial=np.inf)))
        if not np.isfinite(alpha):
            return None
        bA = cur + alpha * v
        if alpha < reach:  # stop where the first coefficient reaches zero
            bA[crossing[np.argmin(steps)]] = 0.0
        rA = yc - XA @ bA
        obj = objective(rA, bA, loadings[A])
        return (A, bA, rA, obj) if obj <= prev_obj else None

    ws, items = working_set()
    prev_obj = objective(r, beta[ws], loadings[ws])
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        max_change = 0.0
        same_pattern = True
        for j, xj, cj, tj, dj in items:
            bj = b[j]
            rho = ddot(xj, r) + cj * bj
            mag = abs(rho) - tj
            new = float(sign(rho)) * mag / dj if mag > 0.0 else 0.0
            if new != bj:
                daxpy(xj, r, a=bj - new)
                b[j] = new
                change = abs(new - bj)
                if change > max_change:
                    max_change = change
                if new * bj <= 0.0:
                    same_pattern = False
        bw = np.array([b[j] for j in ws])
        obj = objective(r, bw, loadings[ws])
        if not np.isfinite(obj):
            raise NoConvergence("objective diverged")
        if obj > prev_obj + 1e-9 * (1.0 + abs(prev_obj)):
            raise NoConvergence("coordinate descent objective increased")
        stalled = obj > prev_obj - 1e-12 * (1.0 + abs(prev_obj))
        prev_obj = obj
        if max_change < COORD_TOL or stalled:
            violators = live & ~in_set & (np.abs(Xc.T @ r) > thresholds)
            if violators.any():
                in_set |= violators
                ws, items = working_set()
                continue
            beta = np.array(b)
            gap = _kkt_gap(Xc, yc, beta, lam, lam_ridge, loadings)
            if gap <= KKT_TOL * gap_scale:
                break
        elif same_pattern and (step := sign_pattern_step(ws, bw)):
            A, bA, r, prev_obj = step
            for j, v in zip(A.tolist(), bA.tolist()):
                b[j] = v
    else:  # pragma: no cover - convex problems converge quickly
        raise NoConvergence(f"no convergence after {MAX_SWEEPS} sweeps")
    return beta, sweeps, gap


def _kkt_gap(Xc, yc, beta, lam, lam_ridge, loadings):
    """Largest violation of the subgradient stationarity conditions."""
    r = yc - Xc @ beta
    grad = 2.0 * (Xc.T @ r) - 2.0 * lam_ridge * beta
    bound = lam * loadings
    size = np.abs(grad)
    violation = np.where(
        beta != 0.0,
        np.fmax(np.abs(size - bound), np.abs(grad - np.sign(beta) * bound)),
        size - bound,
    )
    # NaN violations are skipped, and no violation reads as 0.0.
    return float(violation.max(initial=0.0, where=violation > 0.0))


def lasso_fit(X, y, lam, loadings=None, lam_ridge: float = 0.0,
              _path=None) -> LassoFit:
    """Lasso (optionally Elastic Net via lam_ridge > 0) with unpenalized
    intercept.

    Default penalty loadings are psi_j = sqrt(E_n[x_j^2]) computed on the
    centered columns, which makes predictions invariant to column
    rescaling. Constant columns get loading zero, stay at coefficient
    zero, and are reported in ``degenerate_columns``. ``_path``, passed
    only by ``lasso_path``, is ``(_standardize(X, y), warm start)``.
    """
    design, warm = _path or (_standardize(*_prepare(X, y)), None)
    Xs, yc, xbar, ybar, scale = design
    p = Xs.shape[1]
    if not np.isfinite(lam) or lam < 0 or not np.isfinite(lam_ridge) or lam_ridge < 0:
        raise NonFinitePenalty("penalty levels must be finite and nonnegative")
    degenerate = list(np.flatnonzero(scale == 0.0))
    safe = np.where(scale > 0, scale, 1.0)

    if loadings is None:
        psi = np.where(scale > 0, 1.0, 0.0)  # sqrt(E_n[x_j^2]) after scaling
        psi_orig = scale.copy()
    else:
        psi_orig = np.asarray(loadings, dtype=float).ravel()
        if psi_orig.size != p:
            raise DimensionMismatch("loadings length mismatch")
        if np.any(psi_orig < 0) or not np.all(np.isfinite(psi_orig)):
            raise NonFinitePenalty("loadings must be finite and nonnegative")
        # In the standardized parametrization b_s = b * scale, so the
        # penalty lam * psi_j |b_j| becomes lam * (psi_j / scale) |b_s|.
        psi = np.where(scale > 0, psi_orig / safe, 0.0)

    if lam == 0.0 or not np.any(psi > 0):
        # No l1 part: the problem is (possibly ridge-regularized) least
        # squares with an exact solution, so skip coordinate descent.
        A = Xs.T @ Xs + lam_ridge * np.eye(p)
        beta_s = np.linalg.lstsq(A, Xs.T @ yc, rcond=None)[0] if p else np.empty(0)
        sweeps = 0
        gap = _kkt_gap(Xs, yc, beta_s, lam, lam_ridge, psi)
    else:
        beta_s, sweeps, gap = _coordinate_descent(Xs, yc, lam, lam_ridge,
                                                  psi, beta0=warm)
    beta = np.where(scale > 0, beta_s / safe, 0.0)
    intercept = ybar - float(beta @ xbar)
    fit = LassoFit(
        coefficients=beta,
        intercept=intercept,
        lam=lam,
        lam_ridge=lam_ridge,
        loadings=psi_orig,
        sigma_hat=None,
        n_sweeps=sweeps,
        kkt_gap=gap,
        degenerate_columns=degenerate,
    )
    fit._standardized_coefficients = beta_s
    return fit


def lasso_path(X, y, lams) -> list[LassoFit]:
    """Lasso fits along a penalty path with warm starts.

    The design is standardized once and shared by every penalty.
    Distinct penalties are visited from largest to smallest, each solve
    starting from the previous solution; results are returned in the
    order of ``lams``, a repeated penalty sharing one fit. Each fit
    satisfies the same KKT certificate as a cold ``lasso_fit`` call.
    """
    design = _standardize(*_prepare(X, y))
    fits = {}
    warm = None
    for lam in sorted({float(l) for l in lams}, reverse=True):
        fits[lam] = lasso_fit(X, y, lam=lam, _path=(design, warm))
        warm = fits[lam]._standardized_coefficients
    return [fits[float(l)] for l in lams]


def plugin_lambda(X, y, c: float = 1.1, a: float = 0.05,
                  sigma_iters: int = 1,
                  heteroskedastic: bool = False) -> dict:
    """Plug-in penalty level lambda = 2 c sigma_hat sqrt(n) z_{1-a/(2p)}.

    sigma_hat starts at the intercept-only residual standard deviation and
    is refined by refitting the Lasso ``sigma_iters`` times (one pass is
    the recommended default). With ``heteroskedastic=True`` the function
    instead returns per-coefficient loadings sqrt(E_n[eps^2 x_j^2]) and
    sigma_hat = 1 in the lambda formula.
    """
    X, y = _prepare(X, y)
    n, p = X.shape
    if n < 2 or p < 1:
        raise DimensionMismatch("plugin_lambda needs n >= 2 and p >= 1")
    z = normal_quantile(1.0 - a / (2.0 * p))
    if heteroskedastic:
        Xc = X - X.mean(axis=0)
        lam = 2.0 * c * np.sqrt(n) * z
        resid = y - y.mean()  # intercept-only start, as for sigma
        loadings = np.sqrt(np.mean(resid[:, None] ** 2 * Xc**2, axis=0))
        for _ in range(max(sigma_iters, 0)):
            fit = lasso_fit(X, y, lam=lam, loadings=loadings)
            resid = y - fit.predict(X)
            loadings = np.sqrt(np.mean(resid[:, None] ** 2 * Xc**2, axis=0))
        return {"lam": lam, "sigma_hat": 1.0, "loadings": loadings, "z": z}

    sigma = float(np.std(y))  # intercept-only residual sd
    for _ in range(max(sigma_iters, 0)):
        if sigma == 0.0:
            break
        fit = lasso_fit(X, y, lam=2.0 * c * sigma * np.sqrt(n) * z)
        sigma = float(np.sqrt(np.mean((y - fit.predict(X)) ** 2)))
    lam = 2.0 * c * sigma * np.sqrt(n) * z
    return {"lam": lam, "sigma_hat": sigma, "z": z}


def lasso_plugin(X, y, c: float = 1.1, a: float = 0.05) -> LassoFit:
    """Lasso with the plug-in penalty; convenience wrapper."""
    rule = plugin_lambda(X, y, c=c, a=a)
    fit = lasso_fit(X, y, lam=rule["lam"])
    fit.sigma_hat = rule["sigma_hat"]
    return fit


def post_lasso(X, y, fit: LassoFit) -> OlsFit:
    """OLS refit on the Lasso active set (plus intercept).

    Coefficients outside the active set are zero; the returned fit's
    design is (1, X[active]).
    """
    X, y = _prepare(X, y)
    active = fit.active_set
    design = np.column_stack([np.ones(X.shape[0]), X[:, active]])
    return ols_fit(design, y)


def post_lasso_coefficients(X, y, fit: LassoFit) -> tuple[float, np.ndarray]:
    """Post-Lasso intercept and full-length coefficient vector."""
    X, y = _prepare(X, y)
    refit = post_lasso(X, y, fit)
    beta = np.zeros(X.shape[1])
    beta[fit.active_set] = refit.coefficients[1:]
    return float(refit.coefficients[0]), beta


def ridge_fit(X, y, lam: float) -> LassoFit:
    """Ridge regression: ``lasso_fit`` without an l1 part, in closed form."""
    return lasso_fit(X, y, lam=0.0, lam_ridge=lam)


def elastic_net_fit(X, y, lam_ridge: float, lam_lasso: float) -> LassoFit:
    """Elastic net: squared loss + lam_ridge ||b||^2 + lam_lasso ||b||_1."""
    X, y = _prepare(X, y)
    p = X.shape[1]
    return lasso_fit(X, y, lam=lam_lasso, loadings=np.ones(p),
                     lam_ridge=lam_ridge)


def cv_fit(method: str, X, y, grid, plan) -> CvReport:
    """K-fold cross-validation over a parameter grid.

    For each grid point the model is trained on K-1 folds and scored on
    the held-out fold; the CV MSE is the plain mean of fold MSEs. Ties
    break to the smallest grid index and the winner is refit on the full
    data.
    """
    X, y = _prepare(X, y)
    grid = list(grid)
    if not grid:
        raise DimensionMismatch("grid must be nonempty")
    if method == "lasso":
        fitter = lambda X, y, lam: lasso_fit(X, y, lam=lam)
    elif method == "ridge":
        fitter = lambda X, y, lam: ridge_fit(X, y, lam)
    else:
        raise ValueError(f"unknown method {method!r}")

    K = plan.K
    fold_mses = np.empty((len(grid), K))
    for k in range(K):
        test = plan.fold_indices(k)
        train = plan.complement_indices(k)
        if test.size < 2 or train.size < 2:
            raise FoldTooSmall("each fold and its complement need >= 2 rows")
        if method == "lasso":
            # Warm-started path: same minimizers as per-point cold fits.
            models = lasso_path(X[train], y[train], grid)
        else:
            models = [fitter(X[train], y[train], par) for par in grid]
        for gi, model in enumerate(models):
            pred = model.predict(X[test])
            fold_mses[gi, k] = float(np.mean((y[test] - pred) ** 2))
    cv_mse = fold_mses.mean(axis=1)
    best = int(np.argmin(cv_mse))  # argmin takes the first minimizer
    refit = fitter(X, y, grid[best])
    return CvReport(
        grid=grid,
        fold_mses=fold_mses,
        cv_mse=cv_mse,
        selected_index=best,
        selected_parameter=grid[best],
        refit=refit,
    )
