"""Cross-fitted DML estimators and their inference engine.

The exports load on first access, each from its submodule, as
``dmlkit.cate`` and ``dmlkit.cli`` do.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "did": ("did_canonical", "dml_did_panel", "dml_did_rcs"),
    "engine": ("DmlResult", "generic_dml", "linear_score_result"),
    "estimators": ("dml_atet", "dml_gate", "dml_irm_ate", "dml_late",
                   "dml_plm", "dml_pliv", "irm_signals"),
    "rct": ("rct_estimators",),
    "rdd": ("rdd_sharp",),
})
