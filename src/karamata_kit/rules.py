"""The input rules of the kit: the errors an entry point raises for a bad
argument, the checkers that state each rule once, and the constants those
rules read.

Every library entry point and every command-line flag is checked here.  The
module imports only the standard library, so the command line converts and
checks its flags, and prints its help, without importing numpy.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

__all__ = ["PreconditionError", "ConfigError", "ClaimedClass"]

# the fewest samples the limit classifier reads
MIN_SAMPLES = 8
# the fewest parameter values of a uniformity scan, and the points of its
# refinement pass around every argmax (also the default parameter count)
MIN_PARAM_COUNT = 9
REFINE_COUNT = 33


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class ConfigError(ValueError):
    """A ``KARAMATA_KIT_THREADS`` that is not an integer.  Every other
    setting is checked where the command line converts its flag."""


def _check_finite(value, what: str) -> float:
    """``value`` as a float, if it is a finite one."""
    try:
        if math.isfinite(value):
            return float(value)
    except (OverflowError, TypeError):  # an int past the float range, or None
        pass
    raise PreconditionError(f"{what} must be finite, got {value!r}")


def _check_above(value, floor: float, what: str) -> float:
    """``value`` as a float, if it is a finite one above ``floor``."""
    number = _check_finite(value, what)
    if not number > floor:
        raise PreconditionError(f"{what} must be > {floor:g}, got {value!r}")
    return number


def _check_interval(interval, what: str) -> tuple[float, float]:
    """The ends ``a < b`` of ``interval`` as floats, if both are finite and
    so is the width ``b - a``."""
    a, b = (_check_finite(end, what) for end in interval)
    if not a < b:
        raise PreconditionError(f"{what} needs a < b, got [{a!r}, {b!r}]")
    if not math.isfinite(b - a):
        raise PreconditionError(f"{what} width b - a overflows for [{a!r}, {b!r}]")
    return a, b


def _check_count(value, least: int, what: str, most: int = sys.maxsize) -> int:
    """``value`` as an int, if it is an integer (a numpy one too) from
    ``least`` to ``most``; a nan or infinite float is named as not finite.

    The default ceiling, ``sys.maxsize``, is numpy's largest index on a
    64-bit build, so every count can size an array.  A count under it can
    still raise ``MemoryError`` where it sizes one."""
    if isinstance(value, float):
        _check_finite(value, what)
    if not isinstance(value, numbers.Integral):
        raise PreconditionError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise PreconditionError(f"{what} must be at least {least}, got {value!r}")
    if value > most:
        raise PreconditionError(f"{what} must be at most {most:,}, got {value!r}")
    return int(value)


def _check_point(x: float, frontier: float = 1.0) -> float:
    """``x`` as a float, if it is a finite one at least ``frontier``: the
    one rule for every point the operator is asked for, where ``frontier``
    is 1 or the point before ``x`` in an ascending sweep.  The message
    names only ``x``, so every entry point words a bad ``x`` alike."""
    try:
        if frontier <= x < math.inf:
            return float(x)
    except (OverflowError, TypeError, ValueError):  # an int past the float range, or not one number
        pass
    raise PreconditionError(f"x must be finite, >= 1 and >= the x before it, got {x!r}")


def _check_classifiable(grid) -> None:
    """Reject a grid too short for its samples to be classified."""
    if grid.count < MIN_SAMPLES:
        raise PreconditionError(
            f"grid count must be >= {MIN_SAMPLES} to classify its samples, got {grid.count}"
        )


def _finite_lambdas(lambdas) -> list[float]:
    """The lambdas as floats: at least one, and each finite."""
    lams = [_check_finite(lam, "lambda") for lam in lambdas]
    if not lams:
        raise PreconditionError("need at least one lambda")
    return lams


def _lambda_list(lambdas) -> list[float]:
    """The lambdas as floats; each must be finite, positive and != 1."""
    lams = _finite_lambdas(lambdas)
    for lam in lams:
        if lam <= 0 or lam == 1.0:
            raise PreconditionError(f"lambda must be positive and != 1, got {lam!r}")
    return lams


def _check_product(lam: float, x: float, what: str) -> None:
    """Reject a scan whose largest shifted argument ``lam * x`` overflows.

    The product is monotone in each factor's size, so checking the largest
    pair covers the whole grid."""
    if not math.isfinite(lam * x):
        raise PreconditionError(f"{what} overflows: {lam!r} * {x!r} is not finite")


@dataclass(frozen=True)
class ClaimedClass:
    """One of z0 (vanishing at infinity), r0 (slowly varying),
    r_alpha (regularly varying with the given index), bounded (within
    [lo, hi])."""

    kind: str
    alpha: float | None = None
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("z0", "r0", "r_alpha", "bounded"):
            raise PreconditionError(f"unknown class {self.kind!r}; use z0, r0, r_alpha or bounded")
        if self.kind == "r_alpha":
            _check_finite(self.alpha, "alpha")
        if self.kind == "bounded":
            lo, hi = (_check_finite(end, "bounds") for end in self.bounds or (None, None))
            if not lo <= hi:
                raise PreconditionError("bounded needs lo <= hi")

    @classmethod
    def parse(cls, text: str) -> ClaimedClass:
        """The class ``text`` names: ``z0``, ``r0``, ``r_alpha:<a>`` or
        ``bounded:<lo>,<hi>``, the kind in any case."""
        kind, _, args = text.partition(":")
        kind = kind.strip().lower()
        if kind not in ("r_alpha", "bounded"):
            return cls(kind)  # which rejects an unknown kind
        lo, _, hi = args.partition(",")
        try:
            values = float(args) if kind == "r_alpha" else (float(lo), float(hi))
        except ValueError:
            raise PreconditionError(f"cannot read the numbers of the class {text!r}") from None
        if kind == "r_alpha":
            return cls(kind, alpha=values)
        return cls(kind, bounds=values)

    def describe(self) -> str:
        if self.kind == "r_alpha":
            return f"r_alpha(alpha={self.alpha:g})"
        if self.kind == "bounded":
            return f"bounded[{self.bounds[0]:g}, {self.bounds[1]:g}]"
        return self.kind
