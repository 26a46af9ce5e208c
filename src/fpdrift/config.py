"""Strict run-configuration schema for the command-line layer.

Configs are YAML (or JSON, a YAML subset) mappings with a fixed key set;
unknown keys are rejected. The "model1"/"model2" presets pin the horizon,
volatility, starting point and true drift parameter of the two reference
experiments so they can be reproduced with a one-line config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Optional

from .errors import ConfigError
from .montecarlo import ExperimentConfig

# Per-model presets used to fill fields the user left out.
_PRESETS: dict[str, dict[str, float]] = {
    "model1": {"T": 0.1, "sigma": 0.25, "x0": 5.0, "theta0": 1.0},
    "model2": {"T": 0.75, "sigma": 1.0, "x0": 5.0, "theta0": 1.0},
}

# ExperimentConfig fields whose config key is spelled differently.
_KEY_OF_FIELD = {"hurst": "H", "horizon": "T"}
# Config key -> ExperimentConfig field.
_FIELDS = {_KEY_OF_FIELD.get(f.name, f.name): f for f in dataclasses.fields(ExperimentConfig)}
_DEFAULTS: dict[str, Any] = {key: f.default for key, f in _FIELDS.items()
                             if f.default is not dataclasses.MISSING}
_OUTPUT_KEYS = ("out_dir", "format", "verbosity")

_BOOL_KEYS = {"enforce_omega", "fresh_paths_per_n"}
_INT_KEYS = {"steps", "n_max", "replications", "seed", "max_iters", "verbosity", "corr_block"}
_FLOAT_KEYS = {"H", "T", "sigma", "x0", "theta0", "contraction", "d_threshold",
               "alpha", "tol", "corr_rho"}
_STR_KEYS = {"model", "mode", "out_dir", "format"}
_ALL_KEYS = _BOOL_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | {"eval_points"}


@dataclass(frozen=True)
class RunConfig:
    """Experiment configuration plus output settings."""

    experiment: ExperimentConfig
    out_dir: str = "."
    format: str = "csv"
    verbosity: int = 0

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")

    def to_dict(self) -> dict[str, Any]:
        """Effective configuration as a plain mapping; re-parsing it round-trips."""
        d = {key: getattr(self.experiment, f.name) for key, f in _FIELDS.items()}
        if d["eval_points"] is not None:
            d["eval_points"] = list(d["eval_points"])
        d.update((key, getattr(self, key)) for key in _OUTPUT_KEYS)
        return d


def _integer(key: str, value: Any) -> int:
    """An int, or a string that int() reads; bools and floats are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        return int(value)
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _coerce(key: str, value: Any) -> Any:
    """Type-check and convert one config value, with a field-level message."""
    try:
        if value is None:
            if key == "max_iters" or key == "eval_points":
                return None
            raise ConfigError(f"{key}: null is not allowed")
        if key in _BOOL_KEYS:
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            raise ConfigError(f"{key}: expected a boolean, got {value!r}")
        if key in _INT_KEYS:
            return _integer(key, value)
        if key in _FLOAT_KEYS:
            if isinstance(value, bool):
                raise ConfigError(f"{key}: expected a number, got {value!r}")
            if not isinstance(value, (int, float, str)):
                raise ConfigError(f"{key}: expected a number, got {value!r}")
            number = float(value)
            if not math.isfinite(number):
                raise ConfigError(f"{key}: must be finite, got {value!r}")
            return number
        if key == "eval_points":
            if isinstance(value, str):
                value = [v for v in value.split(",") if v.strip()]
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key}: expected a list of integers, got {value!r}")
            return tuple(_integer(key, v) for v in value)
        if key in _STR_KEYS:
            if not isinstance(value, str):
                raise ConfigError(f"{key}: expected a string, got {value!r}")
            return value
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"unknown configuration key {key!r}")


def _validated(raw: dict[str, Any]) -> RunConfig:
    unknown = set(raw) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    if "model" not in raw:
        raise ConfigError("model: required (model1 | model2 | custom:c0,c1,...)")
    merged: dict[str, Any] = dict(_DEFAULTS)
    merged.update(_PRESETS.get(_coerce("model", raw["model"]), {}))
    for key, value in raw.items():
        merged[key] = _coerce(key, value)

    for key in ("H", "T", "sigma"):
        if key not in merged:
            raise ConfigError(f"{key}: required when no preset supplies it")
    h = merged["H"]
    if not 0.0 < h < 1.0:
        raise ConfigError(f"H: must lie in (0, 1), got {h}")
    if merged["mode"] == "fbm" and h == 0.5:
        merged["mode"] = "bm"  # H = 1/2 only makes sense in bm mode

    try:
        experiment = ExperimentConfig(**{f.name: merged[key] for key, f in _FIELDS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(experiment=experiment,
                     **{key: merged[key] for key in _OUTPUT_KEYS if key in merged})


def parse_config(
    path: Optional[str] = None,
    overrides: Optional[list[str]] = None,
    seed: Optional[int] = None,
    out_dir: Optional[str] = None,
    fmt: Optional[str] = None,
) -> RunConfig:
    """Build a RunConfig from an optional YAML/JSON file plus key=value overrides."""
    raw: dict[str, Any] = {}
    if path is not None:
        import yaml  # only config files need it

        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path!r} must contain a mapping")
        raw.update(loaded)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        raw[key] = value.strip()
    if seed is not None:
        raw["seed"] = seed
    if out_dir is not None:
        raw["out_dir"] = out_dir
    if fmt is not None:
        raw["format"] = fmt
    return _validated(raw)
