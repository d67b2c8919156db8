"""Cross-fitted estimation for linear Neyman-orthogonal scores.

A score contributes per-observation arrays psi_a and psi_b with
psi = psi_b - psi_a * theta; the engine solves E_n[psi] = 0, giving
theta_hat = E_n[psi_b] / E_n[psi_a], and builds the variance from the
influence values phi_i = J^{-1} (psi_b_i - psi_a_i * theta_hat).
``influence_covariance`` is the one variance: every SE and covariance
built from influence values is their centred second moment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dist import normal_quantile
from ..errors import (BadFoldCount, BadLevel, SingularJacobian,
                      WeakResidualVariation)
from ..linalg import as_vectors

JACOBIAN_RTOL = 1e-12
WEAK_VARIATION_RTOL = 1e-10


def _check_variation(denom: float, target, message: str,
                     error=WeakResidualVariation) -> None:
    """Raise ``error`` (``WeakResidualVariation`` by default) when
    ``denom``, the moment whose inverse scales the target's slope, is at
    or below WEAK_VARIATION_RTOL times E_n[target^2] in absolute value
    (so also for an all-zero target). It is the one identification check
    of the partialled-out scores: PLM, Double Lasso, PLIV, LATE and the
    R-learner."""
    if abs(denom) <= WEAK_VARIATION_RTOL * float(np.mean(target**2)):
        raise error(message)


@dataclass(kw_only=True)
class InferenceResult:
    """Estimates with standard errors, and the pointwise normal
    interval at level 1 - alpha that ``__post_init__`` derives from
    them. ``DmlResult``, ``TargetInference``, ``BlpResult`` and
    ``CalibrationReport`` build on it; none is handed its interval.

    Scalar estimands store length-1 arrays; ``theta``/``estimate``,
    ``std_error`` and ``ci`` unwrap the first entry for convenience.
    """

    estimates: np.ndarray
    std_errors: np.ndarray
    alpha: float
    n: int
    ci_lower: np.ndarray = field(init=False)
    ci_upper: np.ndarray = field(init=False)

    def __post_init__(self):
        self.ci_lower, self.ci_upper = normal_interval(
            self.estimates, self.std_errors, self.alpha)

    @property
    def theta(self) -> float:
        return float(self.estimates[0])

    estimate = theta

    @property
    def std_error(self) -> float:
        return float(self.std_errors[0])

    @property
    def ci(self) -> tuple[float, float]:
        return float(self.ci_lower[0]), float(self.ci_upper[0])

    def row(self, i: int = 0) -> dict:
        """Estimate ``i`` as a flat record of floats: the estimate, its
        SE and its pointwise interval, the columns of every table of
        estimates."""
        return {"estimate": float(self.estimates[i]),
                "std_error": float(self.std_errors[i]),
                "ci_lower": float(self.ci_lower[i]),
                "ci_upper": float(self.ci_upper[i])}


@dataclass(kw_only=True)
class DmlResult(InferenceResult):
    """Estimate, uncertainty, and diagnostics for one estimand."""

    influence: np.ndarray  # (n,) or (n, q) influence values
    variance: np.ndarray
    trim_count: int = 0
    diagnostics: dict = field(default_factory=dict)


def influence_covariance(influence) -> np.ndarray:
    """The (q, q) centred second moment E_n[(phi - phi_bar)(phi - phi_bar)']
    of (n,) or (n, q) influence values phi, by two passes: the mean, then
    the product of the centred values."""
    phi = np.asarray(influence, dtype=float)
    centered = phi.reshape(phi.shape[0], -1) - phi.mean(axis=0)
    return centered.T @ centered / phi.shape[0]


def check_level(alpha) -> None:
    """Raise ``BadLevel`` unless each level in ``alpha`` lies in (0, 1):
    otherwise a quantile at 1 - alpha is NaN, infinite or meaningless."""
    levels = np.asarray(alpha, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise BadLevel(f"level alpha must lie in (0, 1); got {alpha!r}")


def normal_interval(estimates, std_errors, alpha: float,
                    critical_value: float | None = None):
    """Two-sided interval estimates -/+ c * std_errors, elementwise.

    c is the normal 1 - alpha/2 quantile, or ``critical_value`` when
    given (a sup-t critical value turns pointwise intervals into a
    simultaneous band). Returns (lower, upper). Raises ``BadLevel``
    unless 0 < alpha < 1.
    """
    check_level(alpha)
    c = (normal_quantile(1.0 - alpha / 2.0) if critical_value is None
         else critical_value)
    return estimates - c * std_errors, estimates + c * std_errors


def linear_score_result(psi_a, psi_b, alpha: float = 0.05,
                        jacobian: float | None = None,
                        trim_count: int = 0,
                        diagnostics: dict | None = None) -> DmlResult:
    """Solve the empirical moment condition for a linear score.

    ``jacobian`` overrides E_n[psi_a] in the influence normalization for
    estimands whose variance theory prescribes a specific J. Both
    Jacobians count as zero at or below 1e-12 E_n[|psi_a|], so the check
    does not depend on the units of the data.
    """
    psi_a, psi_b = as_vectors(psi_a=psi_a, psi_b=psi_b)
    n = psi_b.size
    zero = JACOBIAN_RTOL * float(np.mean(np.abs(psi_a)))
    J_solve = float(np.mean(psi_a))
    if abs(J_solve) <= zero:
        raise SingularJacobian("moment Jacobian is numerically zero")
    theta = float(np.mean(psi_b)) / J_solve
    J = J_solve if jacobian is None else float(jacobian)
    if abs(J) <= zero:
        raise SingularJacobian("variance Jacobian is numerically zero")
    influence = (psi_b - psi_a * theta) / J
    variance = influence_covariance(influence)[0, 0]
    return DmlResult(
        estimates=np.array([theta]),
        std_errors=np.array([np.sqrt(variance / n)]),
        influence=influence,
        variance=np.array([variance]),
        alpha=alpha,
        n=n,
        trim_count=trim_count,
        diagnostics=diagnostics or {},
    )


def generic_dml(score, data: dict, plan, alpha: float = 0.05,
                allow_no_crossfit: bool = False) -> DmlResult:
    """Run the generic cross-fitted procedure for a user-supplied score.

    The score protocol is exactly two methods: ``fit(data,
    train_indices) -> nuisances`` and ``evaluate(data, indices,
    nuisances) -> (psi_a, psi_b)`` returning per-observation arrays.
    Nuisances for each fold are trained on the fold's complement.
    """
    if plan.K < 2 and not allow_no_crossfit:
        raise BadFoldCount("cross-fitting requires K >= 2 folds")
    psi_a = np.empty(plan.n)
    psi_b = np.empty(plan.n)
    for k in range(plan.K):
        test = plan.fold_indices(k)
        nuis = score.fit(data, plan.complement_indices(k))
        psi_a[test], psi_b[test] = score.evaluate(data, test, nuis)
    return linear_score_result(psi_a, psi_b, alpha=alpha)
