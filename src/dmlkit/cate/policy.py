"""Policy evaluation and learning from doubly robust signals."""

from __future__ import annotations

import numpy as np

from ..dml.engine import DmlResult, linear_score_result
from ..errors import DimensionMismatch
from ..learners import tree_fit
from ..linalg import as_vectors
from .validation import top_share_rule


def policy_value(pi, signals, alpha: float = 0.05) -> DmlResult:
    """Value of a (possibly stochastic) treatment policy.

    ``pi`` gives per-observation treatment probabilities in [0, 1]; the
    value is E_n[pi(X) * signal] with the usual influence-value se.
    """
    pi, signals = as_vectors(pi=pi, signals=signals)
    if np.any(pi < 0.0) or np.any(pi > 1.0):
        raise DimensionMismatch("policy values must lie in [0, 1]")
    return linear_score_result(psi_a=np.ones(signals.size),
                               psi_b=pi * signals, alpha=alpha)


def optimal_policy_value(signals, tau, q: float | None = None,
                         tau_nontest=None, alpha: float = 0.05) -> DmlResult:
    """Value of the plug-in optimal policy.

    Unconstrained: treat whenever the predicted effect is nonnegative.
    With a budget q, treat the top q-fraction by predicted effect, with
    the threshold (and tie-breaking) taken from non-test predictions.
    """
    signals, tau = as_vectors(signals=signals, tau=tau)
    if q is None:
        pi = (tau >= 0.0).astype(float)
        threshold = 0.0
    else:
        ref = tau if tau_nontest is None else as_vectors(tau_nontest=tau_nontest)
        threshold, _, pi = top_share_rule(tau, ref, q)
    out = policy_value(pi, signals, alpha=alpha)
    out.diagnostics["threshold"] = threshold
    out.diagnostics["treated_share"] = float(np.mean(pi))
    return out


class TreePolicy:
    """Treatment rule read off a weighted classification tree: treat in
    leaves where the weighted majority of adjusted signals is positive."""

    def __init__(self, tree, cost: float):
        self.tree = tree
        self.cost = cost

    def assign(self, X) -> np.ndarray:
        return (self.tree.predict(X) >= 0.0).astype(float)

    __call__ = assign


def policy_learn(signals, X, max_depth: int = 2, min_leaf: int = 10,
                 cost: float = 0.0) -> dict:
    """Learn a depth-limited policy tree.

    Treating-or-not is cast as weighted classification: labels are the
    signs of the cost-adjusted signals encoded as +/-1, weights their
    magnitudes. Returns the policy, its tree and its in-sample value;
    to evaluate the rule on held-out signals, pass
    ``policy.assign(X_held_out)`` to ``policy_value``. When every signal
    equals ``cost``, all weights are 0 and every label +1: the tree is
    one leaf that treats every row.
    """
    signals = as_vectors(signals=signals)
    adjusted = signals - cost
    labels = np.where(adjusted >= 0.0, 1.0, -1.0)
    tree = tree_fit(X, labels, max_depth=max_depth, min_leaf=min_leaf,
                    weights=np.abs(adjusted))
    policy = TreePolicy(tree, cost)
    return {"policy": policy, "tree": tree,
            "in_sample_value": float(np.mean(policy.assign(X) * signals))}
