"""The ``dmlkit`` command and the library calls behind it: configs,
CSV ingest, estimation, placebo and simulation runs.

The exports other than ``main`` load on first access, each from its
submodule, so that start-up pays only for what a run reads: the DGP
registry imports every estimator the simulations use, Double Lasso,
sensitivity and weak-ID included, and only ``simulate`` and
``list-dgps`` need it. ``main`` is bound here at import, as every
command runs through it and the name is also its submodule's.
"""

from .. import _lazy_exports
from .main import main

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "config": ("RunConfig", "load_config", "make_learner",
               "parse_config_text", "validate_config"),
    "dgps": ("REGISTRY", "get_dgp", "simulate_once"),
    "ingest": ("ingest_csv",),
    "main": ("main", "run_estimate", "run_placebo", "run_simulation"),
})
