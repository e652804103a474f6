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
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import seeds
from .errors import ConfigError

ENV_PREFIX = "WAVELETCF_"

EXPONENT_MODES = ("power", "boxcox")


def _parse_int(raw: str) -> int:
    return int(raw.strip())


def _parse_float(raw: str) -> float:
    return float(raw.strip())


def _parse_str(raw: str) -> str:
    return raw.strip()


def _parse_int_list(raw: str) -> Tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(p) for p in parts)


def _parse_float_list(raw: str) -> Tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


# key -> (parser, default). Defaults are already-parsed values; None means
# "unset" for optional keys.
KEY_SPECS = {
    # artifact paths
    "input": (_parse_str, None),
    "input_format": (_parse_str, "auto"),
    "dataset": (_parse_str, None),
    "spectral_cache": (_parse_str, None),
    "checkpoint": (_parse_str, None),
    "train_state": (_parse_str, None),
    "report": (_parse_str, None),
    # ingest thresholds keep only sufficiently active rows/cols
    "min_user_interactions": (_parse_int, 5),
    "min_item_interactions": (_parse_int, 5),
    # split
    "train_fraction": (_parse_float, 0.8),
    "per_user_cap": (_parse_int, 0),  # 0 disables the cap
    # spectral
    "q": (_parse_int, 0),  # 0 means auto (default_q of the graph size)
    "eig_tol": (_parse_float, 1e-9),
    # model
    "layers": (_parse_int, 3),
    "width": (_parse_int, 64),
    "t": (_parse_float, 0.5),
    "exponent_mode": (_parse_str, "power"),
    # training
    "eta": (_parse_float, 0.01),
    "batch_size": (_parse_int, 1024),
    "learning_rate": (_parse_float, 0.05),
    "adam_beta1": (_parse_float, 0.9),
    "adam_beta2": (_parse_float, 0.999),
    "adam_eps": (_parse_float, 1e-8),
    "max_epochs": (_parse_int, 200),
    "patience": (_parse_int, 10),
    "val_fraction": (_parse_float, 0.1),
    # grid search (unset = plain single fit)
    "grid_learning_rates": (_parse_float_list, None),
    "grid_t_values": (_parse_float_list, None),
    # evaluation
    "k_values": (_parse_int_list, (20,)),
    "cohort_boundaries": (_parse_int_list, (25, 50, 100)),
    "cold_start_caps": (_parse_int_list, (3, 5, 7, 9, 12)),
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
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
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


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 3
    width: int = 64
    t: float = 0.5
    exponent_mode: str = "power"
    seed: int = 0

    def __post_init__(self):
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
class TrainConfig:
    batch_size: int = 1024
    learning_rate: float = 0.05
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    eta: float = 0.01
    max_epochs: int = 200
    patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
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
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ConfigError("adam betas must lie in (0, 1)")
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError(
                f"val_fraction must lie strictly in (0,1), got {self.val_fraction}"
            )


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
        if v["input_format"] not in ("auto", "tsv", "csv"):
            raise ConfigError(
                "input_format must be one of auto/tsv/csv, got "
                f"'{v['input_format']}'"
            )
        if not (0.0 < v["train_fraction"] < 1.0):
            raise ConfigError(
                "train_fraction must lie strictly in (0,1), got "
                f"{v['train_fraction']}"
            )
        if v["per_user_cap"] < 0:
            raise ConfigError(
                f"per_user_cap must be >= 0 (0 disables), got {v['per_user_cap']}"
            )
        if v["q"] < 0:
            raise ConfigError(f"q must be >= 0 (0 means auto), got {v['q']}")
        if v["eig_tol"] <= 0:
            raise ConfigError(f"eig_tol must be positive, got {v['eig_tol']}")
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
        if (v["grid_learning_rates"] is None) != (v["grid_t_values"] is None):
            raise ConfigError(
                "grid_learning_rates and grid_t_values must be set together"
            )
        if v["grid_learning_rates"] is not None:
            # reject dead grid cells up front, before any training runs
            if any(lr <= 0 for lr in v["grid_learning_rates"]):
                raise ConfigError(
                    "grid_learning_rates must all be positive, got "
                    f"{v['grid_learning_rates']}"
                )
            if any(t < 0 for t in v["grid_t_values"]):
                raise ConfigError(
                    f"grid_t_values must all be >= 0, got {v['grid_t_values']}"
                )
        # nested configs validate their own fields; the split checks above
        # already cover every SplitSpec check
        self.model_config()
        self.train_config()

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

    def split_spec(self):
        """The per-user split parameters, as an `ingest.SplitSpec`."""
        from .ingest import SplitSpec

        cap = self.values["per_user_cap"]
        return SplitSpec(
            train_fraction=self.values["train_fraction"],
            seed=seeds.child_seed(self.values["seed"], seeds.SPLIT),
            per_user_cap=None if cap == 0 else cap,
        )

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            layers=self.values["layers"],
            width=self.values["width"],
            t=self.values["t"],
            exponent_mode=self.values["exponent_mode"],
            seed=seeds.child_seed(self.values["seed"], seeds.INIT),
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            batch_size=self.values["batch_size"],
            learning_rate=self.values["learning_rate"],
            adam_beta1=self.values["adam_beta1"],
            adam_beta2=self.values["adam_beta2"],
            adam_eps=self.values["adam_eps"],
            eta=self.values["eta"],
            max_epochs=self.values["max_epochs"],
            patience=self.values["patience"],
            val_fraction=self.values["val_fraction"],
            seed=self.values["seed"],
        )

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
