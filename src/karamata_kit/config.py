"""Run configuration: defaults, JSON config files, flag overrides.

Precedence is flags > config file > defaults.  The config file is a flat
JSON object whose keys match RunConfig field names; unknown keys are
rejected so typos do not silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

__all__ = ["RunConfig", "ConfigError", "load_config_file", "merge_config"]


class ConfigError(ValueError):
    """Malformed config file or unknown/ill-typed config key."""


@dataclass(frozen=True)
class RunConfig:
    # expressions
    expr: str | None = None
    h_expr: str | None = None
    m_expr: str | None = None
    var: str = "x"
    # single-point inputs
    x: float | None = None
    # classification controls
    lambdas: str | None = None
    profile: bool = False
    claim: str | None = None
    # x grid (None = command-specific default)
    grid_start: float | None = None
    grid_ratio: float | None = None
    grid_count: int | None = None
    integer_mode: bool = False
    # scalar ratios
    lam: float | None = None
    mu: float | None = None
    # parameter windows
    lambda_lo: float = 1.0
    lambda_hi: float = 2.0
    lambda_count: int = 33
    u_lo: float = 0.0
    u_hi: float = 1.0
    u_count: int = 33
    v_lo: float | None = None
    v_hi: float | None = None
    # sampling / bounds
    samples: int = 1000
    bound: float = 1.0
    # interval expansion
    a: float | None = None
    b: float | None = None
    n: int | None = None
    # quadrature budget
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_evals: int = 50_000_000
    # classification tolerances (None = command-specific default)
    classify_tol: float | None = None
    value_tol: float | None = None
    # output
    out: str | None = None
    format: str = "json"


# Size caps.  A scan holds a (grid_count, u_count or lambda_count) residual
# matrix and reports every cell, so these two caps bound it at 1e6 cells
# (8 MB as float64, a few tens of MB once reported).  hi_check holds about
# ten float64 arrays of ``samples`` values and reports every violating one.
MAX_GRID_COUNT = 1_000
MAX_PARAM_COUNT = 1_000
MAX_SAMPLES = 100_000

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

_BOOL_KEYS = {"integer_mode", "profile"}
_INT_KEYS = {"grid_count", "lambda_count", "u_count", "samples", "n", "max_evals"}
_STR_KEYS = {"expr", "h_expr", "m_expr", "var", "lambdas", "claim", "out", "format"}
_FLOAT_KEYS = tuple(
    name for name in _FIELDS if name not in _BOOL_KEYS | _INT_KEYS | _STR_KEYS
)


def _coerce(key: str, value):
    if value is None:
        return None
    if key in _BOOL_KEYS:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"config key {key!r} must be true or false")
    if key in _STR_KEYS:
        if isinstance(value, str):
            return value
        raise ConfigError(f"config key {key!r} must be a string")
    if key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be an integer")
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config key {key!r} must be an integer")
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number")
    return float(value)


def load_config_file(path: str) -> dict:
    """Read a JSON config file and validate its keys and value types."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    out = {}
    for key, value in raw.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = _coerce(key, value)
    return out


def merge_config(file_values: dict | None, flag_values: dict | None) -> RunConfig:
    """Layer config sources: dataclass defaults, then file, then flags.

    ``flag_values`` should only contain keys the user actually passed
    (argparse defaults of None are dropped here)."""
    merged: dict = {}
    if file_values:
        merged.update(file_values)
    if flag_values:
        for key, value in flag_values.items():
            if value is None or key not in _FIELDS:
                continue
            merged[key] = _coerce(key, value)
    cfg = RunConfig(**merged)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for key in _FLOAT_KEYS:
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    for key in ("abs_tol", "rel_tol", "classify_tol", "value_tol"):
        value = getattr(cfg, key)
        if value is not None and value <= 0:
            raise ConfigError(f"{key} must be positive, got {value!r}")
    if cfg.grid_ratio is not None and not cfg.integer_mode and cfg.grid_ratio <= 1:
        raise ConfigError(f"grid_ratio must exceed 1, got {cfg.grid_ratio!r}")
    if cfg.grid_count is not None and cfg.grid_count < 8:
        raise ConfigError(f"grid_count must be at least 8, got {cfg.grid_count!r}")
    if cfg.u_count < 9 or cfg.lambda_count < 9:
        raise ConfigError("u_count and lambda_count must be at least 9")
    if cfg.samples < 1:
        raise ConfigError(f"samples must be positive, got {cfg.samples!r}")
    for key, cap in (
        ("grid_count", MAX_GRID_COUNT),
        ("u_count", MAX_PARAM_COUNT),
        ("lambda_count", MAX_PARAM_COUNT),
        ("samples", MAX_SAMPLES),
    ):
        value = getattr(cfg, key)
        if value is not None and value > cap:
            raise ConfigError(f"{key} must be at most {cap:,}, got {value!r}")
    if cfg.max_evals < 15:
        raise ConfigError(f"max_evals must be at least 15, got {cfg.max_evals!r}")
    if cfg.format not in ("json", "csv", "both"):
        raise ConfigError(f"format must be json, csv, or both, got {cfg.format!r}")
