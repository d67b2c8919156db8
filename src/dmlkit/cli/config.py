"""Flat key-value run configuration, the table of config values and the
table of estimands.

The config grammar is one ``key = value`` pair per line, ``#`` starts a
comment, and list-valued keys use commas. The format is deliberately
code-free so a config file hashes to stable provenance.

``VALUES`` is the one place a typed key's values are declared. It maps
the key to its parser, a description ("a positive integer", "in (0, 0.5)",
"one of CL, CRA, IRA") and a test of the parsed value, which NaN fails.
``RunConfig.get`` parses and tests through it, and both validators read
every key a config sets, so a bad value raises ``'<key>' must be
<description>; got '<text>'`` before any compute runs. The DGP registry
declares the ``dgp`` and ``estimator`` values instead, and
``validate_simulation_config`` checks them with the same message and
returns the DGP record and the estimator (the DGP's first by default).

``DEFAULTS`` holds every option default that needs no context, and
``RunConfig.get`` falls back to it. The defaults of ``mode`` (by
controls), ``n`` (by DGP) and the learner specs (by estimand and role)
depend on context and are worked out where they are read. The one of
``grid_points`` is ``weak_id.GRID_POINTS``: importing ``weak_id`` here
would load ``scipy.linalg`` at start-up.

``LEARNERS`` is the one place a learner spec ``name(key=value, ...)`` is
declared; ``make_learner`` parses a spec and ``build_learner`` picks and
builds a role's. ``validate_config`` builds every learner its estimand
fits, so a bad spec is rejected before any data is read, and returns
them to the run as a role -> learner dict in ``learners`` order.

``ESTIMANDS`` is the one place an estimand is declared. Validation,
column loading, learner construction and dispatch all read it. Each
``Estimand`` record holds:

- ``roles``: the column roles the estimand requires, then ``optional``
  the roles it reads when the config sets them, together in the order
  the estimator takes them;
- ``binary``: the roles whose column must hold only 0s and 1s;
- ``learners``: one (role, default spec) pair per nuisance learner, in
  the estimator's order; ``learner_<role>``, then ``learner``, override
  the default;
- ``trim``: whether the estimator takes a propensity ``trim``;
- ``alpha``: whether the estimand reports at a level ``alpha``;
- ``required``: the options the estimand cannot run without, and
  ``options`` the others it reads;
- ``estimator``: for a cross-fitted estimand, the name of the
  ``dmlkit.dml`` function called as
  ``fn(*columns, *learners, plan, alpha=...[, trim=...])``.

A config key that no field of its estimand names is rejected.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

from ..cate.meta import META_KINDS, check_effect_learner
from ..dml.estimators import DEFAULT_TRIM
from ..dml.rct import MODES
from ..dml.rdd import KERNELS
from ..errors import ConfigError
from ..learners import (BoostLearner, ForestLearner, LassoPluginLearner,
                        LinearLearner, LogisticLearner, MeanLearner,
                        TreeLearner, ZeroLearner)
from ..rng import derive_seed

COMMON_KEYS = ("estimand", "seed")
# Read by every estimand that fits nuisance learners.
LEARNER_KEYS = ("folds", "learner")
# Every key ``simulate`` reads.
SIMULATE_KEYS = ("dgp", "seed", "estimator", "n", "replications", "workers")
# Key -> its value when the config sets none.
DEFAULTS = {"alpha": 0.05, "folds": 5, "trim": DEFAULT_TRIM, "bins": 5,
            "meta_learner": "DR", "grid_lower": -2.0, "grid_upper": 2.0,
            "cutoff": 0.0, "kernel": "triangular", "replications": 100,
            "workers": 1}


@dataclass(frozen=True)
class Estimand:
    roles: tuple[str, ...]
    optional: tuple[str, ...] = ()
    binary: tuple[str, ...] = ()
    learners: tuple[tuple[str, str], ...] = ()
    trim: bool = False
    alpha: bool = True
    required: tuple[str, ...] = ()
    options: tuple[str, ...] = ()
    estimator: str | None = None

    def keys(self) -> set[str]:
        """Every config key the estimand reads."""
        keys = {*COMMON_KEYS, *self.roles, *self.optional, *self.required,
                *self.options}
        if self.learners:
            keys.update(LEARNER_KEYS)
            keys.update(f"learner_{role}" for role, _ in self.learners)
        if self.trim:
            keys.add("trim")
        if self.alpha:
            keys.add("alpha")
        return keys


_YDX = ("outcome", "treatment", "controls")
_YDZX = ("outcome", "treatment", "instrument", "controls")
_PLM = (("outcome", "linear"), ("treatment", "linear"))
_IRM = (("outcome", "linear"), ("propensity", "logistic"))
_D = ("treatment",)

ESTIMANDS = {
    "plm": Estimand(_YDX, learners=_PLM, estimator="dml_plm"),
    "ate": Estimand(_YDX, binary=_D, learners=_IRM, trim=True,
                    estimator="dml_irm_ate"),
    "atet": Estimand(_YDX, binary=_D, learners=_IRM, trim=True,
                     estimator="dml_atet"),
    "gate": Estimand(_YDX + ("group",), binary=_D, learners=_IRM, trim=True,
                     estimator="dml_gate"),
    "pliv": Estimand(_YDZX, learners=(("outcome", "linear"),
                                      ("instrument", "linear"),
                                      ("treatment", "linear")),
                     estimator="dml_pliv"),
    "late": Estimand(_YDZX, binary=("treatment", "instrument"),
                     learners=(("outcome", "linear"), ("takeup", "logistic"),
                               ("propensity", "logistic")),
                     trim=True, estimator="dml_late"),
    "did_panel": Estimand(("outcome_pre", "outcome", "treatment"),
                          optional=("controls",), binary=_D,
                          learners=_IRM, trim=True,
                          options=("outcome_placebo_pre",),
                          estimator="dml_did_panel"),
    "did_rcs": Estimand(("outcome", "time", "treatment"),
                        optional=("controls",), binary=_D, learners=_IRM,
                        trim=True, estimator="dml_did_rcs"),
    "did_canonical": Estimand(("outcome", "treatment", "time"), binary=_D),
    "rct": Estimand(("outcome", "treatment"), optional=("controls",),
                    binary=_D, options=("mode",)),
    "rdd": Estimand(("outcome", "running"), optional=("controls",),
                    required=("bandwidth",), options=("cutoff", "kernel")),
    "cate-pipeline": Estimand(_YDX, optional=("effect_covariates",),
                              binary=_D,
                              learners=_IRM + (("effect", "tree"),),
                              trim=True, options=("meta_learner", "bins")),
    "sensitivity": Estimand(_YDX, learners=_PLM, alpha=False,
                            required=("r2_y", "r2_d")),
    "weak_id": Estimand(_YDZX, learners=(("outcome", "linear"),
                                         ("treatment", "linear"),
                                         ("instrument", "linear")),
                        options=("grid_lower", "grid_upper", "grid_points")),
}


def _choice(names, fold=str):
    return (str, f"one of {', '.join(names)}", lambda v: fold(v) in names)


_NAMES = (lambda text: [v.strip() for v in text.split(",") if v.strip()],
          "a list of column names", lambda v: True)
_POSITIVE = (int, "a positive integer", lambda v: v >= 1)
_LEVEL = (float, "in (0, 0.5)", lambda v: 0.0 < v < 0.5)
_R2 = (float, "in [0, 1)", lambda v: 0.0 <= v < 1.0)
_FINITE = (float, "finite", math.isfinite)
# Key -> (parser, what the key accepts, test of the parsed value).
VALUES = {
    "estimand": _choice(ESTIMANDS),
    "controls": _NAMES, "effect_covariates": _NAMES,
    "seed": (int, "an integer", lambda v: True),
    "folds": (int, "an integer of at least 2", lambda v: v >= 2),
    **dict.fromkeys(("n", "replications", "workers", "bins", "grid_points"),
                    _POSITIVE),
    "trim": _LEVEL, "alpha": _LEVEL, "r2_y": _R2, "r2_d": _R2,
    "cutoff": _FINITE, "grid_lower": _FINITE, "grid_upper": _FINITE,
    "bandwidth": (float, "positive and finite", lambda v: 0.0 < v < math.inf),
    "mode": _choice(MODES, str.upper), "kernel": _choice(KERNELS),
    "meta_learner": _choice(META_KINDS, str.upper),
}
LIST_KEYS = {key for key, value in VALUES.items() if value is _NAMES}


def read_value(key: str, text: str):
    """``text`` parsed and tested by ``key``'s ``VALUES`` entry, if any."""
    if key not in VALUES:
        return text
    parse, must, test = VALUES[key]
    try:
        value = parse(text)
        if test(value):
            return value
    except ValueError:
        pass
    raise ConfigError(f"{key!r} must be {must}; got {text!r}")


@dataclass
class RunConfig:
    raw: dict[str, str]

    def get(self, key: str, default=None):
        if key in self.raw:
            return read_value(key, self.raw[key])
        return DEFAULTS.get(key, default)

    def require(self, key: str):
        value = self.get(key)
        if value in (None, []):
            raise ConfigError(f"missing required config key {key!r}")
        return value

    @property
    def estimand(self) -> str:
        return str(self.require("estimand"))

    @property
    def seed(self) -> int:
        return int(self.require("seed"))

    def canonical_text(self) -> str:
        return "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def parse_config_text(text: str) -> RunConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return RunConfig(raw=raw)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


_LEARNER_SPEC = re.compile(r"^([a-z_]+)(?:\((.*)\))?$")

# Learner spec name -> (class, {spec option: constructor field}). Learner
# defaults live on the classes alone: an option left out keeps its
# field's default. A class with a ``seed`` field gets the role's seed.
LEARNERS = {
    "mean": (MeanLearner, {}),
    "zero": (ZeroLearner, {}),
    "linear": (LinearLearner, {}),
    "logistic": (LogisticLearner, {}),
    "lasso": (LassoPluginLearner, {"c": "c", "a": "a"}),
    "tree": (TreeLearner, {"depth": "max_depth", "min_leaf": "min_leaf"}),
    "forest": (ForestLearner, {"trees": "B", "depth": "max_depth",
                               "min_leaf": "min_leaf"}),
    "boost": (BoostLearner, {"rounds": "J", "rate": "rate"}),
}


def make_learner(spec: str, seed: int):
    """Build a learner from a config string like ``forest(trees=50)``."""
    match = _LEARNER_SPEC.match(spec.strip())
    if not match:
        raise ConfigError(f"cannot parse learner spec {spec!r}")
    name, argtext = match.group(1), match.group(2) or ""
    kwargs = {}
    for part in filter(None, (p.strip() for p in argtext.split(","))):
        if "=" not in part:
            raise ConfigError(f"learner option {part!r} must be key=value")
        key, value = (s.strip() for s in part.split("=", 1))
        kwargs[key] = value
    if name not in LEARNERS:
        raise ConfigError(f"unknown learner {name!r}")
    cls, options = LEARNERS[name]
    try:
        # The field's default on the class gives the option's type.
        fields = {field: type(getattr(cls, field))(kwargs.pop(option))
                  for option, field in options.items() if option in kwargs}
    except ValueError as exc:
        raise ConfigError(f"bad learner option in {spec!r}: {exc}") from exc
    if kwargs:
        raise ConfigError(
            f"unknown learner option(s) {', '.join(kwargs)} in {spec!r}")
    if hasattr(cls, "seed"):
        fields["seed"] = seed
    return cls(**fields)


def build_learner(config: RunConfig, role: str, default: str):
    """``role``'s learner, built from ``learner_<role>``, else ``learner``,
    else ``default``, with the role's seed. Learners keep no fitted state
    (fit returns a new predictor), so one instance serves every fold of
    its role."""
    spec = config.get(f"learner_{role}", config.get("learner", default))
    return make_learner(spec, derive_seed(config.seed, f"learner-{role}", 0))


def validate_config(config: RunConfig) -> dict:
    """Check estimand, roles, keys, values and learner specs before any
    compute runs; returns the role -> learner dict the run fits."""
    spec = ESTIMANDS[config.estimand]
    for key in spec.roles + spec.required:
        config.require(key)
    _check_keys(config, spec.keys(), f"estimand {config.estimand!r}")
    learners = {role: build_learner(config, role, default)
                for role, default in spec.learners}
    if "effect" in learners:
        check_effect_learner(config.get("meta_learner"), learners["effect"])
    if config.get("grid_lower") >= config.get("grid_upper"):
        raise ConfigError("'grid_lower' must be below 'grid_upper'")
    return learners


def validate_simulation_config(config: RunConfig) -> tuple:
    """Check a ``simulate`` config before any compute runs. The DGP
    registry imports every estimator a simulation can run, so it loads
    here, not with this module."""
    from .dgps import REGISTRY
    _check_keys(config, SIMULATE_KEYS, "simulate")
    _check_choice(config, "dgp", REGISTRY)
    dgp = REGISTRY[config.require("dgp")]
    _check_choice(config, "estimator", dgp.estimators)
    return dgp, config.get("estimator", next(iter(dgp.estimators)))


def _check_choice(config: RunConfig, key: str, names) -> None:
    if key in config.raw and config.raw[key] not in names:
        raise ConfigError(f"{key!r} must be one of {', '.join(names)}; "
                          f"got {config.raw[key]!r}")


def _check_keys(config: RunConfig, keys, reader: str) -> None:
    """Both validators' check of the keys a config sets and their values."""
    unread = sorted(set(config.raw) - set(keys))
    if unread:
        raise ConfigError(f"{reader} does not read config key(s) "
                          f"{', '.join(map(repr, unread))}")
    config.require("seed")
    for key in config.raw:
        config.get(key)
