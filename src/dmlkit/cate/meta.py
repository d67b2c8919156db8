"""Meta-learner strategies for conditional average treatment effects.

Each strategy composes regression oracles into a CATE model: S and T
rely purely on outcome modelling, X and its domain-adapted variant DAX
reweight effect regressions by the propensity, DR regresses doubly
robust signals, and R minimizes the residual-on-residual loss. First
stage nuisances are cross-fitted; the final effect regression uses all
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dml.estimators import (DEFAULT_TRIM, _check_arms, _propensity,
                              _subset_fit)
from ..errors import WeightOverflow, WeightsNotSupported
from ..learners import cross_fit_predict, cross_fit_residuals
from ..linalg import as_columns, as_matrix, as_vectors
from .signals import dr_signal

META_KINDS = ("S", "T", "X", "DAX", "DR", "R")
# The kinds whose effect regression is a weighted fit.
WEIGHTED_KINDS = ("DAX", "R")


@dataclass
class CateModel:
    kind: str
    predictor: object
    metadata: dict = field(default_factory=dict)

    def predict(self, X) -> np.ndarray:
        out = np.asarray(self.predictor.predict(as_matrix(X)), dtype=float)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("CATE model produced non-finite values")
        return out

    def __call__(self, X) -> np.ndarray:
        return self.predict(X)


def check_effect_learner(kind: str, learner_final) -> None:
    """Raise ``WeightsNotSupported`` when ``kind`` fits its effect model
    with observation weights and ``learner_final`` has no weighted fit
    (its class sets ``takes_weights = False``)."""
    if (kind.upper() in WEIGHTED_KINDS
            and not getattr(learner_final, "takes_weights", True)):
        raise WeightsNotSupported(
            f"the {kind.upper()}-learner fits its effect model with "
            f"observation weights; {type(learner_final).__name__} takes "
            f"no weights")


def meta_learn(kind: str, y, d, Z, learner_y, learner_prop, learner_final,
               plan, X_effect=None, trim: float = DEFAULT_TRIM) -> CateModel:
    """Fit a CATE model of the requested kind.

    learner_y models outcomes, learner_prop the propensity, and
    learner_final carries out the last-stage effect regression on
    ``X_effect`` (defaults to Z).
    """
    kind = kind.upper()
    if kind not in META_KINDS:
        raise ValueError(f"unknown meta-learner kind {kind!r}")
    check_effect_learner(kind, learner_final)
    y, d = as_vectors(y=y, d=d)
    _check_arms(d, "treatment")
    Z = as_columns(Z, y.size)
    X = Z if X_effect is None else as_columns(X_effect, y.size)
    meta: dict = {}

    if kind == "S":
        # Own-arm predictions come with the fits; one more pass predicts
        # the other arm, and own - other is g(1, Z) - g(0, Z) when d = 1.
        own, fits = cross_fit_predict(learner_y, np.column_stack([d, Z]), y,
                                      plan)
        labels = np.empty(y.size)
        for k, g in enumerate(fits):
            test = plan.fold_indices(k)
            other = np.column_stack([1.0 - d[test], Z[test]])
            labels[test] = own[test] - g.predict(other)
        labels[d == 0.0] *= -1.0
    elif kind == "T":
        labels = (_subset_fit(learner_y, Z, y, plan, d == 1.0)
                  - _subset_fit(learner_y, Z, y, plan, d == 0.0))
    elif kind in ("X", "DAX"):
        g1 = _subset_fit(learner_y, Z, y, plan, d == 1.0)
        g0 = _subset_fit(learner_y, Z, y, plan, d == 0.0)
        mu, meta["trim_count"] = _propensity(learner_prop, Z, d, plan, trim)
        treated = d == 1.0
        control = ~treated
        # Effect regressions: on the treated the control response is
        # imputed, and vice versa.
        if kind == "DAX":
            w_t = (1.0 - mu[treated]) ** 2 / mu[treated]
            w_c = mu[control] ** 2 / (1.0 - mu[control])
        else:
            w_t = None
            w_c = None
        delta_t = learner_final.fit(Z[treated], (y - g0)[treated], weights=w_t)
        delta_c = learner_final.fit(Z[control], (g1 - y)[control], weights=w_c)
        labels = (delta_t.predict(Z) * (1.0 - mu)
                  + delta_c.predict(Z) * mu)
        meta["propensity"] = mu
    elif kind == "DR":
        sig = dr_signal(y, d, Z, learner_y, learner_prop, plan, trim=trim)
        labels = sig.values
        meta["trim_count"] = sig.trim_count
    else:  # R
        ry, rd = cross_fit_residuals(Z, plan, (learner_y, y),
                                     (learner_prop, d))
        weights = rd**2
        if float(np.max(weights, initial=0.0)) < 1e-12:
            raise WeightOverflow("residualized treatment carries no weight")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(rd != 0.0, ry / np.where(rd == 0.0, 1.0, rd), 0.0)
        predictor = learner_final.fit(X, ratio, weights=weights)
        return CateModel(kind=kind, predictor=predictor, metadata=meta)

    predictor = learner_final.fit(X, labels)
    return CateModel(kind=kind, predictor=predictor, metadata=meta)
