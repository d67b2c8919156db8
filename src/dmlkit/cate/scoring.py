"""Scoring, comparison, and ensembling of CATE models against doubly
robust signals from a held-out scoring sample."""

from __future__ import annotations

import numpy as np

from ..dml.engine import linear_score_result
from ..errors import DimensionMismatch, IndistinguishableModels
from ..linalg import as_matrix, as_vectors

QAGG_MAX_ITERS = 5000
QAGG_GRAD_TOL = 1e-9
DISTINGUISH_RTOL = 1e-12


def _as_values(model, X):
    """A model's CATE values: the model itself, or the model called on X."""
    if callable(model):
        if X is None:
            raise DimensionMismatch("covariates required to evaluate a model")
        return model(X)
    return model


def dr_loss(tau_values, signals) -> float:
    """L(tau) = E_n[(signal - tau(X))^2]."""
    tau_values, signals = as_vectors(tau_values=tau_values, signals=signals)
    return float(np.mean((signals - tau_values) ** 2))


def dr_score(tau_values, signals) -> dict:
    """Loss plus the normalized improvement over a constant-ATE model.

    The constant is the scoring-sample mean of the signals, which makes
    the score of the constant model itself exactly zero.
    """
    tau_values, signals = as_vectors(tau_values=tau_values, signals=signals)
    loss = dr_loss(tau_values, signals)
    base = dr_loss(np.full(signals.size, float(np.mean(signals))), signals)
    score = (base - loss) / base if base > 0 else 0.0
    return {"loss": loss, "baseline_loss": base, "score": score}


def compare_models(tau_i, tau_j, signals, alpha: float = 0.05,
                   X=None) -> dict:
    """Difference in DR loss between two models with a normal CI.

    The difference is the mean of the per-observation loss differences
    (a linear score with psi_a = 1), and its variance comes from them,
    so shared noise in the signals cancels. The models count as the same
    when E_n[(tau_i - tau_j)^2] is at or below DISTINGUISH_RTOL times
    E_n[tau_i^2] + E_n[tau_j^2], so the check does not depend on units.
    """
    ti, tj, signals = as_vectors(tau_i=_as_values(tau_i, X),
                                 tau_j=_as_values(tau_j, X), signals=signals)
    scale = float(np.mean(ti**2)) + float(np.mean(tj**2))
    if float(np.mean((ti - tj) ** 2)) <= DISTINGUISH_RTOL * scale:
        raise IndistinguishableModels("models coincide on the scoring data")
    res = linear_score_result(np.ones(signals.size),
                              (signals - ti) ** 2 - (signals - tj) ** 2,
                              alpha=alpha)
    return {"delta": res.estimate, "se": res.std_error,
            "variance": float(res.variance[0]), "ci": res.ci}


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.flatnonzero(u - css / (np.arange(v.size) + 1) > 0)[-1]
    theta = css[rho] / (rho + 1.0)
    return np.clip(v - theta, 0.0, None)


def _simplex_quadratic(P, s, linear) -> np.ndarray:
    """Minimize mean((s - P w)^2) + linear' w over the simplex by
    projected gradient with a fixed 1/L step and uniform start."""
    n, M = P.shape
    G = P.T @ P / n
    b = P.T @ s / n
    L = 2.0 * float(np.linalg.eigvalsh(G).max()) or 1.0
    w = np.full(M, 1.0 / M)
    for _ in range(QAGG_MAX_ITERS):
        grad = 2.0 * (G @ w - b) + linear
        w_new = _project_simplex(w - grad / L)
        if np.linalg.norm(w_new - w) * L <= QAGG_GRAD_TOL:
            w = w_new
            break
        w = w_new
    return w


def ensemble(predictions, signals, method: str = "qagg",
             fix_intercept_to: float | None = None) -> dict:
    """Combine candidate CATE models scored on held-out signals.

    ``predictions`` is (n, M) with one column per candidate. Methods:
    "best" keeps the single lowest-loss model (ties to the lowest
    index), "convex" finds the simplex weights minimizing the DR loss of
    the mixture, and "qagg" additionally penalizes each model by its own
    loss, which interpolates between the two.

    ``fix_intercept_to`` recenters the combined model to a caller-
    supplied ATE estimate. Returns the weights, the per-model losses,
    the combined predictions and the recentring offset; the combined
    model at new covariates is ``offset`` plus the weighted sum of the
    candidates' predictions there.
    """
    P = as_matrix(predictions)
    s = as_vectors(signals=signals)
    n, M = P.shape
    if M < 1:
        raise DimensionMismatch("need at least one model")
    losses = np.array([dr_loss(P[:, j], s) for j in range(M)])

    if method == "best":
        weights = np.zeros(M)
        weights[int(np.argmin(losses))] = 1.0
    elif method == "convex":
        weights = _simplex_quadratic(P, s, np.zeros(M))
    elif method == "qagg":
        weights = _simplex_quadratic(P, s, losses)
    else:
        raise ValueError(f"unknown ensemble method {method!r}")

    combined = P @ weights
    offset = 0.0
    if fix_intercept_to is not None:
        offset = float(fix_intercept_to) - float(np.mean(combined))
        combined = combined + offset

    return {"weights": weights, "losses": losses, "combined": combined,
            "offset": offset}
