"""Estimators whose nuisances train on one treatment arm, instrument arm
or DiD cell fail with their own error type when a fold's training rows
hold none of it, and with ``OneArmEmpty`` naming the arm's role when the
input holds none of it."""

import numpy as np
import pytest

from dmlkit.cate import meta_learn
from dmlkit.dml import (dml_atet, dml_did_panel, dml_did_rcs, dml_irm_ate,
                        dml_late, rct_estimators)
from dmlkit.errors import EmptyCell, OneArmEmpty
from dmlkit.learners import CrossFitPlan, LinearLearner, LogisticLearner

N = 18
R = np.random.default_rng(11)
X = R.standard_normal((N, 1))
Y = R.standard_normal(N)
T = np.where(np.arange(N) % 2 == 0, 1.0, 2.0)


def _held_in_fold_zero(held: str):
    """Binary arm with its ``held`` side (1 = "treated") only in fold 0,
    and a three-fold plan whose other folds hold the other side."""
    arm = np.zeros(N)
    arm[:4] = 1.0
    if held == "control":
        arm = 1.0 - arm
    assignment = np.concatenate([np.zeros(6, dtype=int),
                                 np.arange(N - 6) % 2 + 1])
    return arm, CrossFitPlan(n=N, K=3, assignment=assignment, seed=0)


def _ate(arm, plan):
    dml_irm_ate(Y, arm, X, LinearLearner(), LogisticLearner(), plan)


def _atet(arm, plan):
    dml_atet(Y, arm, X, LinearLearner(), LogisticLearner(), plan)


def _late(arm, plan):
    d = np.where(np.arange(N) % 3 == 0, 1.0 - arm, arm)
    dml_late(Y, d, arm, X, LinearLearner(), LinearLearner(),
             LogisticLearner(), plan)


def _did_panel(arm, plan):
    dml_did_panel(Y, Y + arm, arm, X, LinearLearner(), LogisticLearner(),
                  plan)


def _did_rcs(arm, plan):
    dml_did_rcs(Y, T, arm, X, LinearLearner(), LogisticLearner(), plan)


def _meta(kind):
    def run(arm, plan):
        meta_learn(kind, Y, arm, X, LinearLearner(), LogisticLearner(),
                   LinearLearner(), plan)
    return run


CASES = [
    ("ate", _ate, OneArmEmpty),
    ("atet", _atet, OneArmEmpty),
    ("late", _late, OneArmEmpty),
    ("did_panel", _did_panel, OneArmEmpty),
    ("did_rcs", _did_rcs, EmptyCell),
    ("meta_T", _meta("T"), OneArmEmpty),
    ("meta_X", _meta("X"), OneArmEmpty),
]


@pytest.mark.parametrize("held", ["treated", "control"])
@pytest.mark.parametrize("name,run,error", CASES,
                         ids=[case[0] for case in CASES])
def test_arm_held_by_one_fold(name, run, error, held):
    arm, plan = _held_in_fold_zero(held)
    with pytest.raises(error):
        run(arm, plan)


ONE_ARM = [
    ("rct", "treatment", lambda arm, plan: rct_estimators(Y, arm, X)),
    ("meta_T", "treatment", _meta("T")),
    ("meta_DR", "treatment", _meta("DR")),
    ("ate", "treatment", _ate),
    ("late", "instrument", _late),
]


@pytest.mark.parametrize("value", [0.0, 1.0])
@pytest.mark.parametrize("name,role,run", ONE_ARM,
                         ids=[case[0] for case in ONE_ARM])
def test_one_arm_input_names_the_role(name, role, run, value):
    _, plan = _held_in_fold_zero("treated")
    with pytest.raises(OneArmEmpty, match=f"both {role} arms must be present"):
        run(np.full(N, value), plan)
