"""Run configuration: flat key=value files, env and flag overrides.

Precedence, lowest to highest: built-in defaults, config file, environment
variables (``WAVELETCF_<KEY>`` upper-cased), command-line ``key=value``
overrides. The merged mapping is validated as a whole before any compute
so a bad run dies with an actionable message instead of mid-pipeline.

All randomness flows from the single ``seed`` key; stage seeds are derived
from it via :mod:`waveletcf.seeds` (split, init, eig; training re-derives
val-split and triples from its own stage seed).

This module must not import numpy, directly or through another module:
the CLI pins BLAS threads from the resolved config before numpy loads.
"""

import difflib
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Dict, List, Optional, Tuple

from . import seeds
from .errors import ConfigError

ENV_PREFIX = "WAVELETCF_"

EXPONENT_MODES = ("power", "boxcox")


def _parse_int(raw: str) -> int:
    return int(raw.strip())


def _parse_float(raw: str) -> float:
    value = float(raw.strip())
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_str(raw: str) -> str:
    return raw.strip()


def _parse_path(raw: str) -> Optional[str]:
    return raw.strip() or None  # an empty path means unset


def _parse_list(item, noun, raw: str) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"expected a comma-separated list of {noun}")
    return tuple(item(p) for p in parts)


# a stage-config field's declared type -> (parser of its raw string, the
# types its value may hold; bool, though an int, is never accepted)
_FIELD_TYPES = {
    int: (_parse_int, int),
    float: (_parse_float, (int, float)),
    str: (_parse_str, str),
}


def _check_field_types(config) -> None:
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type][1]):
            raise ConfigError(f"{f.name} must be {f.type.__name__}, got {value!r}")
        if f.type is float and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 3
    width: int = 64
    t: float = 0.5
    exponent_mode: str = "power"
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.width < 1:
            raise ConfigError(f"width must be >= 1, got {self.width}")
        if self.t < 0:
            raise ConfigError(f"t must be >= 0, got {self.t}")
        if self.exponent_mode not in EXPONENT_MODES:
            raise ConfigError(
                "exponent_mode must be 'power' or 'boxcox', got "
                f"'{self.exponent_mode}'"
            )


@dataclass(frozen=True)
class SplitSpec:
    """Per-user train/test split parameters.

    `per_user_cap` above 0 further down-samples each user's training items
    to at most the cap (cold-start protocol); capped-out pairs are
    discarded. 0 disables the cap.
    """

    train_fraction: float = 0.8
    seed: int = 0
    per_user_cap: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if self.per_user_cap < 0:
            raise ConfigError(
                f"per_user_cap must be >= 0 (0 disables), got {self.per_user_cap}"
            )
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(
                f"train_fraction must lie strictly in (0,1), got {self.train_fraction}"
            )


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 1024
    learning_rate: float = 0.05
    eta: float = 0.01
    max_epochs: int = 200
    patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if self.learning_rate <= 0:
            raise ConfigError(
                "learning_rate must be strictly positive; a zero rate cannot "
                f"train (got {self.learning_rate})"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if self.eta < 0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError(
                f"val_fraction must lie strictly in (0,1), got {self.val_fraction}"
            )


# key -> (parser, default). Defaults are already-parsed values; None means
# "unset" for optional keys.
KEY_SPECS = {
    # artifact paths
    "input": (_parse_path, None),
    "dataset": (_parse_path, None),
    "spectral_cache": (_parse_path, None),
    "checkpoint": (_parse_path, None),
    "train_state": (_parse_path, None),
    "report": (_parse_path, None),
    # ingest thresholds keep only sufficiently active rows/cols
    "min_user_interactions": (_parse_int, 5),
    "min_item_interactions": (_parse_int, 5),
    # spectral
    "q": (_parse_int, 0),  # 0 means auto (default_q of the graph size)
    "eig_tol": (_parse_float, 1e-9),
    # split, model and training: every field of their configs but seed
    **{
        f.name: (_FIELD_TYPES[f.type][0], f.default)
        for f in fields(SplitSpec) + fields(ModelConfig) + fields(TrainConfig)
        if f.name != "seed"
    },
    # grid search (unset = plain single fit)
    "grid_learning_rates": (partial(_parse_list, _parse_float, "numbers"), None),
    "grid_t_values": (partial(_parse_list, _parse_float, "numbers"), None),
    # evaluation
    "k_values": (partial(_parse_list, int, "integers"), (20,)),
    "cohort_boundaries": (partial(_parse_list, int, "integers"), (25, 50, 100)),
    "cold_start_caps": (partial(_parse_list, int, "integers"), (3, 5, 7, 9, 12)),
    # run control
    "seed": (_parse_int, 0),
    "threads": (_parse_int, 1),
}


def _unknown_key_message(key: str) -> str:
    close = difflib.get_close_matches(key, KEY_SPECS, n=3)
    hint = f"; did you mean {', '.join(close)}?" if close else ""
    return f"unknown config key '{key}'{hint} (see README for the key list)"


def parse_value(key: str, raw: str):
    """Parse one raw string for `key`, or raise ConfigError."""
    if key not in KEY_SPECS:
        raise ConfigError(_unknown_key_message(key))
    parser, _ = KEY_SPECS[key]
    try:
        return parser(raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': cannot parse '{raw}' ({exc})")


def load_config_file(path) -> Dict[str, object]:
    """Read a flat key=value file; '#' starts a comment, blanks ignored."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc})") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got '{stripped}'"
            )
        key, raw = stripped.split("=", 1)
        key = key.strip()
        values[key] = parse_value(key, raw)
    return values


def env_overrides(environ=None) -> Dict[str, object]:
    """Collect WAVELETCF_* variables that name known keys."""
    environ = os.environ if environ is None else environ
    values = {}
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower()
        if key not in KEY_SPECS:
            raise ConfigError(
                f"environment variable {name}: {_unknown_key_message(key)}"
            )
        values[key] = parse_value(key, raw)
    return values


def flag_overrides(pairs: List[str]) -> Dict[str, object]:
    """Parse --set style key=value strings from the command line."""
    values = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override '{pair}': expected key=value")
        key, raw = pair.split("=", 1)
        values[key.strip()] = parse_value(key.strip(), raw)
    return values


@dataclass
class RunConfig:
    """Fully validated configuration for one pipeline run."""

    values: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: default for key, (_, default) in KEY_SPECS.items()}
        for key, value in self.values.items():
            if key not in KEY_SPECS:
                raise ConfigError(_unknown_key_message(key))
            merged[key] = value
        self.values = merged
        self._validate()

    def __getitem__(self, key: str):
        return self.values[key]

    def _validate(self):
        v = self.values
        self.split_spec()
        if v["q"] < 0 or v["q"] == 1:
            # the power-transform fit needs at least 2 eigenvalues
            raise ConfigError(f"q must be 0 or >= 2 (0 means auto), got {v['q']}")
        if not 0 < v["eig_tol"] < math.inf:
            raise ConfigError(f"eig_tol must be finite and > 0, got {v['eig_tol']}")
        if v["min_user_interactions"] < 1 or v["min_item_interactions"] < 1:
            raise ConfigError("activity thresholds must be >= 1")
        if v["threads"] < 1:
            raise ConfigError(f"threads must be >= 1, got {v['threads']}")
        for key in ("k_values", "cohort_boundaries", "cold_start_caps"):
            if any(x < 1 for x in v[key]):
                raise ConfigError(f"{key} entries must be >= 1, got {v[key]}")
        if list(v["cohort_boundaries"]) != sorted(set(v["cohort_boundaries"])):
            raise ConfigError(
                "cohort_boundaries must be strictly increasing, got "
                f"{v['cohort_boundaries']}"
            )
        if len(set(v["k_values"])) != len(v["k_values"]):
            raise ConfigError(f"k_values entries must be distinct, got {v['k_values']}")
        if (v["grid_learning_rates"] is None) != (v["grid_t_values"] is None):
            raise ConfigError(
                "grid_learning_rates and grid_t_values must be set together"
            )
        # the stage configs, and each grid cell's, validate their own fields,
        # so a dead grid cell dies here, before any training runs
        self.grid_cells()

    # -- derived stage objects -------------------------------------------

    def require(self, key: str) -> str:
        value = self.values[key]
        if value is None:
            raise ConfigError(
                f"config key '{key}' is required for this command "
                "(set it in the config file, WAVELETCF_"
                f"{key.upper()}, or a key=value override)"
            )
        return value

    def split_spec(self) -> SplitSpec:
        return self._stage_config(
            SplitSpec, seeds.child_seed(self.values["seed"], seeds.SPLIT)
        )

    def _stage_config(self, cls, seed: int):
        return cls(
            seed=seed,
            **{f.name: self.values[f.name] for f in fields(cls) if f.name != "seed"},
        )

    def model_config(self) -> ModelConfig:
        return self._stage_config(
            ModelConfig, seeds.child_seed(self.values["seed"], seeds.INIT)
        )

    def train_config(self) -> TrainConfig:
        return self._stage_config(TrainConfig, self.values["seed"])

    def grid_cells(self) -> List[Tuple[ModelConfig, TrainConfig]]:
        """Each grid cell's `model_config()` and `train_config()` with the
        cell's `t` and `learning_rate`, in (learning_rate, t) order; empty
        without a grid. A bad cell's ConfigError names its grid values."""
        model_config, train_config = self.model_config(), self.train_config()
        cells = []
        for lr in self.values["grid_learning_rates"] or ():
            for t in self.values["grid_t_values"]:
                try:
                    cells.append((replace(model_config, t=float(t)),
                                  replace(train_config, learning_rate=float(lr))))
                except ConfigError as exc:
                    raise ConfigError(f"grid cell grid_learning_rates={lr}, "
                                      f"grid_t_values={t}: {exc}") from None
        return cells

    def eig_seed(self) -> int:
        return seeds.child_seed(self.values["seed"], seeds.EIG)

    def echo_lines(self) -> List[str]:
        """Sorted key=value lines for report headers."""
        out = []
        for key in sorted(self.values):
            value = self.values[key]
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(x) for x in value)
            out.append(f"{key}={value}")
        return out


def resolve(
    config_path: Optional[str],
    overrides: Optional[List[str]] = None,
    environ=None,
) -> RunConfig:
    """Merge defaults < file < environment < flag overrides and validate."""
    values: Dict[str, object] = {}
    if config_path is not None:
        values.update(load_config_file(config_path))
    values.update(env_overrides(environ))
    values.update(flag_overrides(overrides or []))
    return RunConfig(values)
