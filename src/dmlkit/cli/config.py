"""Flat key-value run configuration and the table of estimands.

The config grammar is one ``key = value`` pair per line, ``#`` starts a
comment, and list-valued keys use commas. The format is deliberately
code-free so a config file hashes to stable provenance.

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
- ``options``: the other keys the estimand reads;
- ``estimator``: for a cross-fitted estimand, the name of the
  ``dmlkit.dml`` function called as
  ``fn(*columns, *learners, plan, alpha=...[, trim=...])``.

A config key that no field of its estimand names is rejected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..cate.meta import META_KINDS
from ..dml.rct import MODES
from ..dml.rdd import KERNELS
from ..errors import ConfigError

COMMON_KEYS = ("estimand", "seed")
# Read by every estimand that fits nuisance learners.
LEARNER_KEYS = ("folds", "learner")
# Every key ``simulate`` reads.
SIMULATE_KEYS = ("dgp", "seed", "estimator", "n", "replications", "workers")
# Key -> (the names the library declares, read case-insensitively?).
CHOICE_KEYS = {"mode": (MODES, True), "kernel": (tuple(KERNELS), False),
               "meta_learner": (META_KINDS, True)}


@dataclass(frozen=True)
class Estimand:
    roles: tuple[str, ...]
    optional: tuple[str, ...] = ()
    binary: tuple[str, ...] = ()
    learners: tuple[tuple[str, str], ...] = ()
    trim: bool = False
    alpha: bool = True
    options: tuple[str, ...] = ()
    estimator: str | None = None

    def keys(self) -> set[str]:
        """Every config key the estimand reads."""
        keys = {*COMMON_KEYS, *self.roles, *self.optional, *self.options}
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
                    options=("bandwidth", "cutoff", "kernel")),
    "cate-pipeline": Estimand(_YDX, optional=("effect_covariates",),
                              binary=_D,
                              learners=_IRM + (("effect", "tree"),),
                              trim=True, options=("meta_learner", "bins")),
    "sensitivity": Estimand(_YDX, learners=_PLM, alpha=False,
                            options=("r2_y", "r2_d")),
    "weak_id": Estimand(_YDZX, learners=(("outcome", "linear"),
                                         ("treatment", "linear"),
                                         ("instrument", "linear")),
                        options=("grid_lower", "grid_upper", "grid_points")),
}

LIST_KEYS = {"controls", "effect_covariates"}
FLOAT_KEYS = {"trim", "alpha", "cutoff", "bandwidth", "r2_y", "r2_d",
              "grid_lower", "grid_upper"}
INT_KEYS = {"folds", "seed", "n", "replications", "workers", "bins",
            "grid_points"}


@dataclass
class RunConfig:
    raw: dict[str, str]
    path: str | None = None

    def get(self, key: str, default=None):
        if key not in self.raw:
            return default
        value = self.raw[key]
        if key in LIST_KEYS:
            return [v.strip() for v in value.split(",") if v.strip()]
        try:
            if key in FLOAT_KEYS:
                return float(value)
            if key in INT_KEYS:
                return int(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        return value

    def require(self, key: str):
        value = self.get(key)
        if value is None:
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


def parse_config_text(text: str, path: str | None = None) -> RunConfig:
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
    return RunConfig(raw=raw, path=path)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), path=str(path))


def validate_config(config: RunConfig) -> None:
    """Check estimand, roles and keys before any compute runs."""
    estimand = config.get("estimand")
    if estimand is None:
        raise ConfigError("missing required config key 'estimand'")
    if estimand not in ESTIMANDS:
        raise ConfigError(
            f"unknown estimand {estimand!r}; expected one of {', '.join(ESTIMANDS)}"
        )
    if config.get("seed") is None:
        raise ConfigError("config must set an explicit integer 'seed'")
    spec = ESTIMANDS[estimand]
    for role in spec.roles:
        if config.get(role) in (None, []):
            raise ConfigError(
                f"estimand {estimand!r} requires the {role!r} role; add "
                f"'{role} = <column name(s)>' to the config"
            )
    _reject_unread(config, spec.keys(), f"estimand {estimand!r}")
    for key, (allowed, fold_case) in CHOICE_KEYS.items():
        value = config.get(key)
        if value is not None and (value.upper() if fold_case
                                  else value) not in allowed:
            raise ConfigError(f"{key!r} must be one of {', '.join(allowed)}; "
                              f"got {value!r}")
    for key in ("trim", "alpha"):
        value = config.get(key)
        if value is not None and not 0.0 < value < 0.5:
            raise ConfigError(f"{key} must lie in (0, 0.5), got {value}")
    folds = config.get("folds")
    if folds is not None and folds < 2:
        raise ConfigError("folds must be at least 2")


def validate_simulation_config(config: RunConfig) -> None:
    """Check a ``simulate`` config's keys before any compute runs."""
    _reject_unread(config, SIMULATE_KEYS, "simulate")
    if "dgp" not in config.raw:
        raise ConfigError("simulate requires a 'dgp' key")
    if config.get("replications", 1) < 1:
        raise ConfigError("replications must be positive")


def _reject_unread(config: RunConfig, keys, reader: str) -> None:
    unread = sorted(set(config.raw) - set(keys))
    if unread:
        raise ConfigError(f"{reader} does not read config key(s) "
                          f"{', '.join(map(repr, unread))}")
