from .config import RunConfig, load_config, parse_config_text, validate_config
from .dgps import REGISTRY, get_dgp, simulate_once
from .ingest import ingest_csv
from .main import (main, make_learner, run_estimate, run_placebo,
                   run_simulation)

__all__ = [
    "REGISTRY",
    "RunConfig",
    "get_dgp",
    "ingest_csv",
    "load_config",
    "main",
    "make_learner",
    "parse_config_text",
    "run_estimate",
    "run_placebo",
    "run_simulation",
    "simulate_once",
    "validate_config",
]
