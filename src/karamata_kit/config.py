"""Run configuration: the defaults of every setting, the rule each flag is
checked by where the command line converts it, and the flags a command was
given laid over the defaults.

Settings files are not read here: the command line's own parser reads an
``@FILE`` argument as one argument per line, so a file sets exactly the
flags its command takes, with their types and choices.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass

from .rules import (
    MIN_PARAM_COUNT,
    MIN_SAMPLES,
    REFINE_COUNT,
    ClaimedClass,
    ConfigError,
    PreconditionError,
    _check_above,
    _check_count,
    _check_finite,
    _finite_lambdas,
)

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
# A CLI scan of that size peaks at about 138 MB RSS as JSON or both and
# 84 MB as CSV, against about 31 MB for a default scan (Python 3.11,
# numpy 2.4, x86-64 Linux).  hi_check holds about ten float64 arrays of
# ``samples`` values and reports every violating one.
MAX_GRID_COUNT = 1_000
MAX_PARAM_COUNT = 1_000
MAX_SAMPLES = 100_000

# each key's kind, from its annotation: "bool", "int", "float" or "str"
_KINDS = {f.name: f.type.partition(" ")[0] for f in dataclasses.fields(RunConfig)}


def lambda_values(text: str) -> tuple[float, ...]:
    """The lambdas of a ``--lambdas`` text, comma-separated floats: at least
    one, and each finite."""
    try:
        lams = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise PreconditionError(f"cannot parse {text!r} as comma-separated floats") from None
    return tuple(_finite_lambdas(lams))


def _count(least: int, most: int = sys.maxsize):
    """The rule of a count of at least ``least``; a size is also capped."""
    return lambda value, key: _check_count(value, least, key, most)


def _above(floor: float):
    """The rule of a number above ``floor``."""
    return lambda value, key: _check_above(value, floor, key)


# each key's rule, called as ``rule(value, key)`` after its kind's conversion
# and, for a float, after the rule that it be finite
_RULES = {
    "grid_ratio": _above(1.0),
    "grid_count": _count(MIN_SAMPLES, MAX_GRID_COUNT),
    "u_count": _count(MIN_PARAM_COUNT, MAX_PARAM_COUNT),
    "lambda_count": _count(MIN_PARAM_COUNT, MAX_PARAM_COUNT),
    "samples": _count(1, MAX_SAMPLES),
    "max_evals": _count(15),
    **dict.fromkeys(("abs_tol", "rel_tol", "classify_tol", "value_tol"), _above(0.0)),
    "lambdas": lambda text, key: lambda_values(text),
    "claim": lambda text, key: ClaimedClass.parse(text),
}


def _converter(key: str):
    """The argparse ``type`` of ``key``: its kind's conversion, whose
    ValueError argparse reports as an ``invalid int value`` (the converter
    takes the conversion's name), then its rules, whose PreconditionError
    it reports as the rule's message.  A text flag keeps its text."""
    convert = {"int": int, "float": float, "str": str}[_KINDS[key]]
    rules = [_check_finite] if convert is float else []
    rules += [_RULES[key]] if key in _RULES else []

    def converter(text: str):
        value = convert(text)
        try:
            for rule in rules:
                rule(value, key)
        except PreconditionError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    converter.__name__ = convert.__name__
    return converter


# the argparse ``type`` of every key that converts or checks its text
CONVERTERS = {
    key: _converter(key)
    for key, kind in _KINDS.items()
    if kind in ("int", "float") or key in _RULES
}


def merge_config(file_values: dict | None, flag_values: dict | None) -> RunConfig:
    """The ``RunConfig`` of the dataclass defaults, then ``file_values``, then
    ``flag_values``.  The values are not checked: the command line checks
    each flag where it converts it (``CONVERTERS``).

    A value of None (argparse's default for a flag not given) and a key that
    is not a ``RunConfig`` field are skipped in both."""
    merged: dict = {}
    for values in (file_values, flag_values):
        if values:
            merged.update((key, value) for key, value in values.items()
                          if value is not None and key in _KINDS)
    return RunConfig(**merged)
