"""Run configuration: the defaults of every setting, and the flags a command
was given laid over them.

Settings files are not read here: the command line's own parser reads an
``@FILE`` argument as one argument per line, so a file sets exactly the
flags its command takes, with their types and choices.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .asymptotics import MIN_SAMPLES
from .quad import ConfigError
from .uniformity import MIN_PARAM_COUNT, REFINE_COUNT

__all__ = ["RunConfig", "ConfigError", "merge_config"]

FORMATS = ("json", "csv", "both")


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
    lambda_count: int = REFINE_COUNT
    u_lo: float = 0.0
    u_hi: float = 1.0
    u_count: int = REFINE_COUNT
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
# matrix and reports every cell, so these two caps bound it at 1e6 cells.
# A CLI scan of that size peaks at about 145 MB RSS as JSON or both and
# 85 MB as CSV, against about 31 MB for a default scan (Python 3.11,
# numpy 2.4, x86-64 Linux).  hi_check holds about ten float64 arrays of
# ``samples`` values and reports every violating one.
MAX_GRID_COUNT = 1_000
MAX_PARAM_COUNT = 1_000
MAX_SAMPLES = 100_000

# each key's kind, from its annotation: "bool", "int", "float" or "str"
_KINDS = {f.name: f.type.partition(" ")[0] for f in dataclasses.fields(RunConfig)}
_FLOAT_KEYS = tuple(name for name, kind in _KINDS.items() if kind == "float")


def merge_config(file_values: dict | None, flag_values: dict | None) -> RunConfig:
    """The ``RunConfig`` of the dataclass defaults, then ``file_values``, then
    ``flag_values``, validated.

    A value of None (argparse's default for a flag not given) and a key that
    is not a ``RunConfig`` field are skipped in both."""
    merged: dict = {}
    for values in (file_values, flag_values):
        if values:
            merged.update((key, value) for key, value in values.items()
                          if value is not None and key in _KINDS)
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
    if cfg.grid_count is not None and cfg.grid_count < MIN_SAMPLES:
        raise ConfigError(f"grid_count must be at least {MIN_SAMPLES}, got {cfg.grid_count!r}")
    if cfg.u_count < MIN_PARAM_COUNT or cfg.lambda_count < MIN_PARAM_COUNT:
        raise ConfigError(f"u_count and lambda_count must be at least {MIN_PARAM_COUNT}")
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
    if cfg.format not in FORMATS:
        raise ConfigError(f"format must be json, csv, or both, got {cfg.format!r}")
