"""Per-row inputs: ``linalg`` alone coerces them, and every public
function rejects arguments whose rows do not line up."""

import pathlib

import numpy as np
import pytest

from dmlkit.cate import (calibration, compare_models, dr_loss, dr_score,
                         dr_signal, ensemble, meta_learn, policy_learn,
                         toc_qini)
from dmlkit.dml import (did_canonical, dml_atet, dml_did_panel, dml_did_rcs,
                        dml_gate, dml_irm_ate, dml_late, dml_plm, dml_pliv,
                        linear_score_result, rct_estimators, rdd_sharp)
from dmlkit.errors import DimensionMismatch
from dmlkit.learners import (LinearLearner, LogisticLearner, boost_fit,
                             cross_fit_predict, forest_fit, learner_select,
                             logistic_fit, make_folds, perm_importance,
                             tree_fit)
from dmlkit.linalg import as_columns, as_vectors
from dmlkit.sensitivity import ovb_from_data
from dmlkit.weak_id import c_statistic, first_stage_diag, robust_region

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dmlkit"

N = 40
_r = np.random.default_rng(12)
X = _r.standard_normal((N, 2))
D = np.tile([1.0, 0.0], N // 2)
Z = np.repeat([1.0, 0.0], N // 2)
T = np.tile([1.0, 1.0, 2.0, 2.0], N // 4)
Y = X[:, 0] + D + _r.standard_normal(N)
Y2 = Y + 0.5 * D + _r.standard_normal(N)
W = 1.0 + _r.uniform(size=N)
GROUPS = np.tile([0, 1], N // 2)
TAU = X[:, 0] + 0.1 * X[:, 1]
TAU_OTHER = X[:, 1]
PLAN = make_folds(N, 2, seed=0)
LIN, LOGIT = LinearLearner(), LogisticLearner()

# One call per public function, each with one argument a row short.
SHORT = {
    "dml_plm": lambda: dml_plm(Y, D[:-1], X, LIN, LIN, PLAN),
    "dml_irm_ate": lambda: dml_irm_ate(Y, D[:-1], X, LIN, LOGIT, PLAN),
    "dml_atet": lambda: dml_atet(Y, D[:-1], X, LIN, LOGIT, PLAN),
    "dml_late": lambda: dml_late(Y, D, Z[:-1], X, LIN, LIN, LOGIT, PLAN),
    "dml_pliv": lambda: dml_pliv(Y, D, Z[:-1], X, LIN, LIN, LIN, PLAN),
    "dml_did_panel": lambda: dml_did_panel(Y, Y2, D[:-1], X, LIN, LOGIT,
                                           PLAN),
    "dml_gate": lambda: dml_gate(Y, D, X, GROUPS[:-1], LIN, LOGIT, PLAN),
    "meta_learn": lambda: meta_learn("T", Y, D[:-1], X, LIN, LOGIT, LIN,
                                     PLAN),
    "dr_signal": lambda: dr_signal(Y, D[:-1], X, LIN, LOGIT, PLAN),
    "ovb_from_data": lambda: ovb_from_data(Y, D[:-1], X, LIN, LIN, PLAN,
                                           0.1, 0.1),
    "calibration": lambda: calibration(TAU, Y[:-1], TAU, K=2),
    "rct_estimators": lambda: rct_estimators(Y, D[:-1]),
    "learner_select": lambda: learner_select([LIN], X, Y, PLAN,
                                             weights=W[:-1]),
    "forest_fit": lambda: forest_fit(X, Y[:-1], B=2),
    "policy_learn": lambda: policy_learn(Y[:-1], X),
    "cross_fit_predict": lambda: cross_fit_predict(LIN, X, Y, PLAN,
                                                   weights=W[:-1]),
    "cross_fit_predict_rows": lambda: cross_fit_predict(LIN, X, Y, PLAN,
                                                        rows=D[:-1] == 1.0),
    "did_canonical": lambda: did_canonical(Y, D, T[:-1]),
    "dml_did_rcs": lambda: dml_did_rcs(Y, T[:-1], D, X, LIN, LOGIT, PLAN),
    "toc_qini": lambda: toc_qini(TAU[:-1], Y, TAU),
    "rdd_sharp": lambda: rdd_sharp(Y, X[:-1, 0], 0.0, 1.0),
    "robust_region": lambda: robust_region(Y, D[:-1], X[:, 0],
                                           np.linspace(-1.0, 1.0, 5)),
    "c_statistic": lambda: c_statistic(Y, D[:-1], X[:, 0], 0.0),
    "first_stage_diag": lambda: first_stage_diag(D[:-1], X[:, 0]),
    "tree_fit": lambda: tree_fit(X, Y[:-1]),
    "boost_fit": lambda: boost_fit(X, Y[:-1], J=2),
    "logistic_fit": lambda: logistic_fit(X, D[:-1]),
    "perm_importance": lambda: perm_importance(tree_fit(X, Y), X, Y[:-1]),
    "compare_models": lambda: compare_models(TAU[:-1], TAU_OTHER, Y),
    "ensemble": lambda: ensemble(np.column_stack([TAU, TAU_OTHER]), Y[:-1]),
    "dr_score": lambda: dr_score(TAU[:-1], Y),
    # A longer outcome, which cross-fitting would otherwise truncate, and
    # length-1 arguments, which arithmetic would otherwise broadcast.
    "cross_fit_predict_long_y": lambda: cross_fit_predict(
        LIN, X, np.append(Y, 0.0), PLAN),
    "linear_score_result_length_1": lambda: linear_score_result(
        np.ones(1), Y),
    "dr_loss_length_1": lambda: dr_loss(np.zeros(1), Y),
}


@pytest.mark.parametrize("call", SHORT.values(), ids=SHORT.keys())
def test_misaligned_rows_are_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch, match="row"):
        call()


def test_as_vectors_names_the_misaligned_pair():
    y, w = as_vectors(y=[[1], [2]], weights=None)
    assert y.dtype == float and y.shape == (2,) and w is None
    with pytest.raises(DimensionMismatch,
                       match="^y and d have different row counts$"):
        as_vectors(y=np.zeros(3), weights=None, d=np.zeros(2))


def test_as_columns_reads_none_as_no_columns():
    assert as_columns(None, 4).shape == (4, 0)
    with pytest.raises(DimensionMismatch):
        as_columns(np.zeros((3, 2)), 4)


def test_only_linalg_coerces_per_row_vectors():
    # The one-owner rule: every per-row argument becomes a float vector
    # through linalg.as_vectors, so the coercion appears nowhere else.
    offenders = sorted(
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if path.name != "linalg.py"
        and "dtype=float).ravel()" in path.read_text())
    assert offenders == []
