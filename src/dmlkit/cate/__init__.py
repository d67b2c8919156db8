"""Heterogeneous effects: DR signals, meta-learners, BLP tests,
calibration and uplift validation, model scoring and policy learning.

The exports load on first access, each from its submodule, so that
start-up pays only for what a run reads: ``dmlkit estimate`` on a
cross-fitted estimand imports ``meta`` for config validation but never
``blp`` or ``validation``, which pull in ``double_lasso``.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "blp": ("BlpResult", "blp_cate", "heterogeneity_blp_test"),
    "meta": ("CateModel", "meta_learn"),
    "policy": ("TreePolicy", "optimal_policy_value", "policy_learn",
               "policy_value"),
    "scoring": ("compare_models", "dr_loss", "dr_score", "ensemble"),
    "signals": ("DrSignal", "dr_signal", "three_way_split"),
    "validation": ("CalibrationReport", "UpliftCurves", "calibration",
                   "toc_qini"),
})
