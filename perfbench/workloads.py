"""Seeded inputs of the three workloads and the call behind each operation.

A workload is one list of operations, a *round*.  A run repeats the round,
with the same inputs, until its time is up, so every run attempts whole
rounds of the same operations.  Each round holds at least 40 operations.

The seed draws every input that does not set an operation's cost (window
ends, coefficients, frequencies, grid starts, the order of the round), while
the quantities that do set the cost (the oscillation count of an integrand,
grid sizes, sample counts) sit on fixed quantiles.  Different seeds thus give
different inputs, and different oracle values, but the same amount of work,
which keeps medians comparable from seed to seed.

This module imports karamata_kit and numpy only: it is also what the set-up
probe runs in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

from karamata_kit import (
    GeometricGrid,
    QuadTolerance,
    Region,
    apply_L_detailed,
    apply_L_points,
    condition_scan_310,
    hi_check,
    karamata_uct_check,
    parse,
    uct_scan,
)
from karamata_kit.cli import main as cli_main
from karamata_kit.uniformity import halton_points

WORKLOADS = ("osc_quad", "wide_scans", "desk_reports")

# the CLI's default quadrature request
QUAD_TOL = QuadTolerance(abs_tol=1e-10, rel_tol=1e-10, max_evals=50_000_000)


@dataclass
class Op:
    kind: str
    label: str
    args: dict


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliRun:
    """``karamata-kit <argv>`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return CliRun(code, out.getvalue(), err.getvalue())


_RUNNERS = {
    "apply_L_detailed": lambda a: apply_L_detailed(a["expr"], a["x"], QUAD_TOL),
    "apply_L_points": lambda a: apply_L_points(a["expr"], a["points"], QUAD_TOL),
    "uct_scan": lambda a: uct_scan(a["expr"], a["window"], a["grid"], a["params"]),
    "karamata_uct_check": lambda a: karamata_uct_check(
        a["expr"], a["window"], a["grid"], a["params"]
    ),
    "condition_scan_310": lambda a: condition_scan_310(
        a["expr"], a["window"], a["grid"], a["params"], integer_mode=a["integer_mode"]
    ),
    "hi_check": lambda a: hi_check(a["expr"], a["samples"], a["region"]),
    "halton_points": lambda a: halton_points(a["samples"], 3, skip=a["skip"]),
    "cli": lambda a: run_cli(a["argv"]),
}


def run_op(op: Op):
    """The timed call of one operation."""
    return _RUNNERS[op.kind](op.args)


def _loguniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _strata(lo: float, hi: float, n: int) -> list[float]:
    """Midpoints of ``n`` equal strata of [lo, hi] in log10 space."""
    return [10.0 ** (lo + (hi - lo) * (k + 0.5) / n) for k in range(n)]


def _expr_op(kind: str, label: str, text: str, **args) -> Op:
    return Op(kind, label, {"text": text, "expr": parse(text), **args})


# ---------------------------------------------------------------------------
# osc_quad: L(sin(a x)) and L(cos(a x)), cold values and grid sweeps

def _osc_quad(rng, tiny: bool) -> list[Op]:
    # the oscillation count w = a*x sets the evaluation count (about 9 per
    # unit of w); it sits on fixed log-uniform strata of [1e4, 1e6], while the
    # seed draws a per operation and x follows as w/a
    lo, hi = (2.0, 4.0) if tiny else (4.0, 6.0)
    n_cold, n_sweep = (5, 2) if tiny else (32, 7)
    ops = []

    def draw(w):
        a = _loguniform(rng, 0.8, 1.25)
        fn = "sin" if rng.random() < 0.5 else "cos"
        return fn, a, w / a

    for k, w in enumerate(_strata(lo, hi, n_cold)):
        fn, a, x = draw(w)
        ops.append(_expr_op("apply_L_detailed", f"cold{k}", f"{fn}({a!r}*x)", fn=fn, a=a, x=x))
    for k, w in enumerate(_strata(lo, hi, n_sweep)):
        fn, a, x = draw(w)
        points = [float(p) for p in np.geomspace(10.0, x, 8)]
        ops.append(
            _expr_op("apply_L_points", f"sweep{k}", f"{fn}({a!r}*x)", fn=fn, a=a, points=points)
        )
    # the README's `apply-l "sin(x)" --x 1e6`: 9,054,825 evaluations
    ops.append(
        _expr_op("apply_L_detailed", "readme", "sin(x)", fn="sin", a=1.0, x=1e4 if tiny else 1e6)
    )
    return ops


# ---------------------------------------------------------------------------
# wide_scans: uniformity scans on wide grids, Halton-sampled inequality checks

_SCAN_SIZES = [(rows, params) for rows in (100, 200, 300) for params in (129, 193, 257)]
_TINY_SCAN_SIZES = [(8, 9), (12, 17)]


def _wide_scans(rng, tiny: bool) -> list[Op]:
    ops = []
    for rows, params in _TINY_SCAN_SIZES if tiny else _SCAN_SIZES:
        tag = f"{rows}x{params}"
        # x*u*exp(-x*u) peaks at u = 1/x; starting the grid at x >= 1/u_lo
        # puts every row's supremum on the window edge u_lo, and ending it
        # at x*u_lo = 600 keeps the supremum clear of underflow
        u_lo = _loguniform(rng, 1e-3, 1e-2)
        s = float(rng.uniform(1.0, 2.0))
        grid = GeometricGrid(s / u_lo, (600.0 / s) ** (1.0 / (rows - 1)), rows)
        window = (u_lo, float(rng.uniform(0.5, 1.0)))
        ops.append(
            _expr_op("uct_scan", f"uct_scan{tag}", "x*u*exp(-x*u)",
                     window=window, grid=grid, params=params)
        )
        grid = GeometricGrid(float(rng.uniform(10.0, 100.0)), 1.05, rows)
        window = (1.0, float(rng.uniform(1.5, 4.0)))
        ops.append(
            _expr_op("karamata_uct_check", f"karamata{tag}", "ln(x)",
                     window=window, grid=grid, params=params)
        )
        c = float(rng.uniform(0.25, 2.0))
        window = (1.0, float(rng.uniform(1.5, 4.0)))
        ops.append(
            _expr_op("condition_scan_310", f"cond310{tag}", f"{c!r}/ln(x)", c=c,
                     window=window, grid=grid, params=params, integer_mode=False)
        )
        c = float(rng.uniform(0.25, 2.0))
        window = (1.0, float(rng.uniform(1.5, 4.0)))
        int_grid = GeometricGrid(float(rng.integers(1000, 5000)), 2.0, rows)
        ops.append(
            _expr_op("condition_scan_310", f"cond310int{tag}", f"{c!r}/ln(x)", c=c,
                     window=window, grid=int_grid, params=params, integer_mode=True)
        )
    for samples in (200, 500) if tiny else (10_000, 30_000, 50_000):
        x_lo = float(rng.uniform(2.0, 20.0))
        region = Region(x=(x_lo, 1e5 * x_lo), u=(0.0, 1.0), v=(0.0, 1.0))
        ops.append(
            _expr_op("hi_check", f"hi{samples}", "abs(ln(x+u) - ln(x))",
                     samples=samples, region=region)
        )
    samples = 300 if tiny else 10_000
    skip = int(rng.integers(0, 1000))
    ops.append(Op("halton_points", f"halton{samples}", {"samples": samples, "skip": skip}))
    return ops


# ---------------------------------------------------------------------------
# desk_reports: the README's CLI commands, in-process

def _cli_op(label: str, command: str, opts, **params) -> Op:
    """``opts`` lists (flag, config key, value); flag None is a positional
    argument, value True a bare switch.  The config keys give the flag values
    ``merge_config`` receives, for the traced replay."""
    argv = command.split()
    flags = {}
    for flag, key, value in opts:
        if flag is None:
            argv.append(value)
        elif value is True:
            argv.append(flag)
        else:
            argv += [flag, value if isinstance(value, str) else repr(value)]
        flags[key] = value
    return Op("cli", label, {"command": command, "argv": tuple(argv), "flags": flags, **params})


def _desk_variant(rng, k: int) -> list[Op]:
    start = float(rng.uniform(5.0, 20.0))
    rho = float(rng.uniform(0.25, 2.0))
    int_start = float(rng.integers(1000, 4000))
    c_claim = float(rng.uniform(0.5, 2.0))
    u_lo = _loguniform(rng, 1e-3, 5e-3)
    b = float(rng.uniform(1.5, 4.0))
    lam, mu = float(rng.uniform(1.5, 3.0)), float(rng.uniform(2.0, 4.0))
    c_asym, lam_asym = float(rng.uniform(0.25, 1.0)), float(rng.uniform(2.0, 3.0))
    start_asym = float(rng.uniform(5000.0, 10000.0))
    ea = int(rng.integers(1, 6))
    eb, en = ea + int(rng.integers(1, 5)), int(rng.integers(1, 6))
    return [
        _cli_op(f"apply-l.grid.{k}", "apply-l",
                [(None, "expr", "1/(1+ln(x))"), ("--grid-start", "grid_start", start),
                 ("--ratio", "grid_ratio", 10.0), ("--count", "grid_count", 8)]),
        _cli_op(f"invert-l.{k}", "invert-l", [(None, "expr", "ln(x)")]),
        _cli_op(f"classify.profile.{k}", "classify",
                [(None, "expr", f"x^{rho!r} * ln(x)"), ("--lambdas", "lambdas", "2,10"),
                 ("--profile", "profile", True)], rho=rho),
        _cli_op(f"classify.integer.{k}", "classify",
                [(None, "expr", "x^(sin(x)/ln(x))"), ("--integer-mode", "integer_mode", True),
                 ("--grid-start", "grid_start", int_start), ("--count", "grid_count", 33)]),
        _cli_op(f"classify.claim.{k}", "classify",
                [(None, "expr", f"1/({c_claim!r}+ln(x))"), ("--claim", "claim", "z0")],
                c=c_claim),
        _cli_op(f"uct.scan.{k}", "uct scan",
                [("--g", "expr", "x*u*exp(-x*u)"), ("--u-lo", "u_lo", u_lo)]),
        _cli_op(f"uct.karamata.{k}", "uct karamata",
                [("--f", "expr", "ln(x)"), ("--a", "lambda_lo", 1.0), ("--b", "lambda_hi", b)]),
        _cli_op(f"uct.guct.{k}", "uct guct",
                [("--h-expr", "h_expr", "abs(ln(x+u) - ln(x))"), ("--m-expr", "m_expr", "1")]),
        _cli_op(f"uct.mult-closure.{k}", "uct mult-closure",
                [("--f", "expr", "ln(ln(x))"), ("--lambda", "lam", lam), ("--mu", "mu", mu)]),
        _cli_op(f"uct.asym.{k}", "uct asym",
                [("--h", "expr", repr(c_asym)), ("--lambda", "lam", lam_asym),
                 ("--grid-start", "grid_start", start_asym), ("--ratio", "grid_ratio", lam_asym)],
                c=c_asym),
        _cli_op(f"uct.expand-interval.{k}", "uct expand-interval",
                [("--a", "a", float(ea)), ("--b", "b", float(eb)), ("--n", "n", en)]),
    ]


def _desk_reports(rng, tiny: bool) -> list[Op]:
    # four seeded variants of the eleven commands: 44 operations a round
    return [op for k in range(1 if tiny else 4) for op in _desk_variant(rng, k)]


_ROUND_MAKERS = {"osc_quad": _osc_quad, "wide_scans": _wide_scans, "desk_reports": _desk_reports}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The round of ``workload`` for ``seed``; ``tiny`` shrinks it for the
    self-test.  The order of the round is drawn from the seed too."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _ROUND_MAKERS[workload](rng, tiny)
    return [ops[i] for i in rng.permutation(len(ops))]
