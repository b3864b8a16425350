"""Command-line front end.

Exit codes: 0 success, 2 expression or settings error (a settings error
with argparse's usage line, also an expression that nests too deeply and a
report that cannot be written), 3 precondition or domain error, 4
quadrature budget exhausted (report still written), 5 unexpected internal
error.  KARAMATA_KIT_THREADS must be an integer when set (exit 2
otherwise, the one settings error found after parsing); it sets the
quadrature's worker threads (``quad.thread_count``), which change no
result.

The parser is built from one table, ``_COMMANDS``: each command name, with
``uct <name>`` for the uniformity commands, maps to its runner, its help,
the help of its expression and its flags in ``--help`` order.  A flag is a
``RunConfig`` key, spelled ``--<key with - for _>``, or a ``(key,
*spellings)`` tuple; a spelling without dashes is a positional argument.
A key in ``_REQUIRED`` is a required argument, which argparse enforces.
A ``bool`` key (its annotation in ``RunConfig``, ``config._KINDS``) gives
``--flag/--no-flag``; any other flag's value goes through its key's
converter in ``config.CONVERTERS``, which converts it to its kind and
checks it by the library's rule for that setting, so a bad value exits 2
with argparse's usage line and ``argument --flag: <the rule's message>``.
A key ``RunConfig`` lacks fails when the parser is built.  Every command
also takes ``_COMMON``.  The top-level parser reads an ``@FILE`` argument
as the lines of FILE, one argument a line, so a settings file passes
through the same flags, converters and checks as typed arguments.

Each command has a runner that takes the merged ``RunConfig`` and returns
``(inputs, results, verdicts, rows)``: the echo of its inputs, its results,
its verdicts and its CSV rows, which ``main`` turns into the report.  The
rows are an iterable of (x, param, residual), read at most once, and only
when a CSV is written.  A runner whose quadrature ran out of budget sets
``verdicts["budget"] = "exhausted"``, and ``main`` exits 4 whenever that
verdict is present.

``main`` may be called repeatedly in one process: each call parses only its
own arguments, and the parser is built once, at the first call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

from . import __version__
from .asymptotics import (
    DEFAULT_GRID,
    DEFAULT_INTEGER_GRID,
    DEFAULT_LAMBDAS,
    RATIO_CLASSIFY_TOL,
    VALUE_TOL,
    GeometricGrid,
    ClaimedClass,
    class_preservation_check,
    exponent_profile,
    rv_index,
    sv_test,
)
from .config import _KINDS, CONVERTERS, FORMATS, RunConfig, lambda_values, merge_config
from .exprlang import EvalError, ExprSyntaxError, format_expr, parse
from .karamata import apply_L_detailed, apply_L_points, invert_L
from .quad import ConfigError, PreconditionError, QuadTolerance, thread_count
from .reporting import build_report, emit
from .uniformity import (
    Region,
    condition_scan_310,
    guct_diagnose,
    hi_check,
    integral_asym_residual,
    interval_expand,
    karamata_uct_check,
    mult_closure_residual,
    uct_scan,
)

__all__ = ["main"]


def _expr(cfg: RunConfig, key: str = "expr"):
    """The expression of config key ``key``, parsed, and its echo ``{key:
    text, "<prefix>canonical": ...}``: ``h_expr`` echoes as
    ``h_canonical``."""
    text = getattr(cfg, key)
    expr = parse(text)
    return expr, {key: text, key.removesuffix("expr") + "canonical": format_expr(expr)}


# the default x grid of uct asym, DEFAULT_GRID elsewhere; a command's grid
# flags override each field
_E_LADDER = GeometricGrid(math.exp(9), math.e, 8)


def _grid(cfg: RunConfig, default: GeometricGrid) -> GeometricGrid:
    return GeometricGrid(
        cfg.grid_start if cfg.grid_start is not None else default.start,
        cfg.grid_ratio if cfg.grid_ratio is not None else default.ratio,
        cfg.grid_count if cfg.grid_count is not None else default.count,
        cfg.integer_mode,
    )


def _quad_tol(cfg: RunConfig) -> QuadTolerance:
    return QuadTolerance(cfg.abs_tol, cfg.rel_tol, cfg.max_evals)


def _classify_tol(cfg: RunConfig) -> float:
    """``--classify-tol``, else the library default."""
    return RATIO_CLASSIFY_TOL if cfg.classify_tol is None else cfg.classify_tol


def _tols(cfg: RunConfig) -> tuple[float, float]:
    """``(classify_tol, value_tol)``: the flags, else the library defaults."""
    return _classify_tol(cfg), VALUE_TOL if cfg.value_tol is None else cfg.value_tol


def _budget(converged: bool) -> dict:
    """The ``budget`` verdict of a run that integrated: none while every
    quadrature converged, else ``exhausted``, which makes ``main`` exit 4."""
    return {} if converged else {"budget": "exhausted"}


def _scan(report) -> tuple:
    """Results, verdicts and CSV rows of a uniformity scan: one row per
    (x, parameter) cell."""
    rows = ((x, p, r) for x, row in zip(report.xs, report.residuals)
            for p, r in zip(report.params, row))
    return {"scan": report}, {"scan": report.verdict}, rows


def _run_apply_l(cfg: RunConfig):
    h, inputs = _expr(cfg)
    tol = _quad_tol(cfg)
    if cfg.x is not None:
        points = [apply_L_detailed(h, cfg.x, tol, var=cfg.var)]
        inputs["x"] = cfg.x
    else:
        grid = _grid(cfg, DEFAULT_GRID)
        points = apply_L_points(h, grid.points(), tol, var=cfg.var)
        inputs["grid"] = grid
    rows = ((p.x, None, p.value) for p in points)
    verdicts = _budget(all(p.quad is None or p.quad.converged for p in points))
    return inputs, {"points": points}, verdicts, rows


def _run_invert_l(cfg: RunConfig):
    f, inputs = _expr(cfg)
    g = invert_L(f, var=cfg.var)
    inputs["var"] = cfg.var
    return inputs, {"inverse": format_expr(g)}, {}, []


def _run_classify(cfg: RunConfig):
    F, inputs = _expr(cfg)
    lams = DEFAULT_LAMBDAS if cfg.lambdas is None else lambda_values(cfg.lambdas)
    # the library's per-operation default grids unless the user pinned one;
    # a bare --integer-mode selects the integer ladder
    if cfg.integer_mode:
        grid = _grid(cfg, DEFAULT_INTEGER_GRID)
    elif (cfg.grid_start, cfg.grid_ratio, cfg.grid_count) != (None, None, None):
        grid = _grid(cfg, DEFAULT_GRID)
    else:
        grid = None

    classify_tol, value_tol = _tols(cfg)
    kwargs = {"var": cfg.var, "classify_tol": classify_tol}
    if grid is not None:
        kwargs["grid"] = grid

    index = rv_index(F, lams, **kwargs)
    sv = sv_test(F, lams, value_tol=value_tol, **kwargs)
    inputs.update(lambdas=list(lams), grid="defaults" if grid is None else grid)
    results = {"index": index, "sv": sv}
    verdicts = {"index": index.verdict, "sv": sv.verdict}
    rows = ((x, track.lam, est) for track in index.tracks
            for x, est in zip(track.xs, track.estimates))

    if cfg.profile:
        prof = exponent_profile(F, **kwargs)
        results["profile"] = prof
        verdicts["profile"] = prof.verdict.kind
    if cfg.claim is not None:
        claimed = ClaimedClass.parse(cfg.claim)
        check = class_preservation_check(
            F, claimed, lambdas=lams, tol=_quad_tol(cfg), value_tol=value_tol, **kwargs
        )
        results["preservation"] = check
        verdicts["preservation"] = (
            "holds" if (check.asserted and check.conclusion_holds) else "not_established"
        )
        verdicts.update(_budget(check.quad_converged))
    return inputs, results, verdicts, rows


def _run_uct_scan(cfg: RunConfig):
    G, inputs = _expr(cfg)
    grid = _grid(cfg, DEFAULT_GRID)
    report = uct_scan(G, (cfg.u_lo, cfg.u_hi), grid, cfg.u_count, *_tols(cfg))
    inputs.update(u=[cfg.u_lo, cfg.u_hi], grid=grid)
    return inputs, *_scan(report)


def _run_uct_karamata(cfg: RunConfig):
    F, inputs = _expr(cfg)
    grid = _grid(cfg, DEFAULT_GRID)
    report = karamata_uct_check(
        F, (cfg.lambda_lo, cfg.lambda_hi), grid, cfg.lambda_count, *_tols(cfg), var=cfg.var
    )
    inputs.update({"lambda": [cfg.lambda_lo, cfg.lambda_hi], "grid": grid})
    return inputs, *_scan(report)


def _run_uct_guct(cfg: RunConfig):
    H, inputs = _expr(cfg, "h_expr")
    m, m_inputs = _expr(cfg, "m_expr")
    grid = _grid(cfg, DEFAULT_GRID)
    report = guct_diagnose(
        H, m, (cfg.u_lo, cfg.u_hi), grid, cfg.u_count, cfg.samples, *_tols(cfg)
    )
    inputs.update(m_inputs, u=[cfg.u_lo, cfg.u_hi], grid=grid, samples=cfg.samples)
    _, verdicts, rows = _scan(report.scan)
    verdicts.update(
        hi="ok" if report.hi.ok else "violated",
        monotone="ok" if report.monotone_ok else "violated",
        pointwise="ok" if report.pointwise_ok else "not_vanishing",
    )
    return inputs, {"diagnosis": report}, verdicts, rows


def _run_uct_hi(cfg: RunConfig):
    H, inputs = _expr(cfg)
    xs = _grid(cfg, DEFAULT_GRID).points()
    v_lo = cfg.v_lo if cfg.v_lo is not None else cfg.u_lo
    v_hi = cfg.v_hi if cfg.v_hi is not None else cfg.u_hi
    region = Region(x=(xs[0], xs[-1]), u=(cfg.u_lo, cfg.u_hi), v=(v_lo, v_hi))
    report = hi_check(H, cfg.samples, region)
    inputs.update(region=region, samples=cfg.samples)
    rows = ((v.x, v.u, v.lhs - v.rhs) for v in report.violations)
    return inputs, {"hi": report}, {"hi": "ok" if report.ok else "violated"}, rows


def _run_uct_cond310(cfg: RunConfig):
    xi, inputs = _expr(cfg)
    grid = _grid(cfg, DEFAULT_INTEGER_GRID if cfg.integer_mode else DEFAULT_GRID)
    report = condition_scan_310(
        xi, (cfg.lambda_lo, cfg.lambda_hi), grid, cfg.lambda_count, grid.integer_mode,
        *_tols(cfg), var=cfg.var,
    )
    inputs.update({"lambda": [cfg.lambda_lo, cfg.lambda_hi], "grid": grid})
    return inputs, *_scan(report)


def _run_uct_mult_closure(cfg: RunConfig):
    f, inputs = _expr(cfg)
    lam, mu = cfg.lam, cfg.mu
    grid = _grid(cfg, DEFAULT_GRID)
    report = mult_closure_residual(f, lam, mu, grid, var=cfg.var, classify_tol=_classify_tol(cfg))
    inputs.update({"lambda": lam, "mu": mu, "grid": grid})
    verdicts = {"identity": "ok" if report.identity_ok else "broken"}
    if report.verdicts is not None:
        verdicts["step_lam"] = report.verdicts[0].kind
        verdicts["step_mu"] = report.verdicts[1].kind
        verdicts["combined"] = report.verdicts[2].kind
    cols = zip(report.xs, report.step_lam, report.step_mu, report.combined)
    rows = (row for x, a, b, c in cols for row in ((x, lam, a), (x, mu, b), (x, lam * mu, c)))
    return inputs, {"closure": report}, verdicts, rows


def _run_uct_expand_interval(cfg: RunConfig):
    lo, hi = interval_expand(cfg.a, cfg.b, cfg.n)
    return {"a": cfg.a, "b": cfg.b, "n": cfg.n}, {"interval": {"lo": lo, "hi": hi}}, {}, []


def _run_uct_asym(cfg: RunConfig):
    h, inputs = _expr(cfg)
    lam = cfg.lam
    grid = _grid(cfg, _E_LADDER)
    report = integral_asym_residual(
        h, lam, grid, cfg.bound, _quad_tol(cfg), var=cfg.var, classify_tol=_classify_tol(cfg)
    )
    inputs.update({"lambda": lam, "bound": cfg.bound, "grid": grid})
    verdicts = {"bound": "ok" if report.bound_ok else "violated"}
    if report.residual_verdict is not None:
        verdicts["residual"] = report.residual_verdict.kind
        verdicts["lcond"] = report.lcond_verdict.kind
    verdicts.update(_budget(report.quad_converged))
    rows = ((r.x, lam, r.residual) for r in report.rows)
    return inputs, {"asym": report}, verdicts, rows


# flag groups; ``_EXPR`` is the expression as a positional argument
_COMMON = ("out", "format")
_GRID = ("grid_start", ("grid_ratio", "--grid-ratio", "--ratio"),
         ("grid_count", "--grid-count", "--count"), "integer_mode")
_QUAD = ("abs_tol", "rel_tol", "max_evals")
_TOLS = ("classify_tol", "value_tol")
_U = ("u_lo", "u_hi")
_LAMBDA = ("lam", "--lambda")
_EXPR = ("expr", "expr")
# the keys a command cannot run without: argparse requires each where it is a flag
_REQUIRED = {"expr", "h_expr", "m_expr", "lam", "mu", "a", "b", "n"}

_HELP = {
    "out": "output path (both: <out>.json/<out>.csv)",
    "var": "independent variable name (default x)",
    "classify_tol": "largest final increment of a converging sequence (default 0.01)",
    "value_tol": "how far a limit may sit from its target, 0 or 1 (default 0.05)",
    "integer_mode": "walk consecutive integers instead of a geometric ladder",
    "x": "single evaluation point",
    "lambdas": "comma-separated ratio set",
    "profile": "include the exponent profile ln F/ln x",
    "claim": "also check operator class preservation: z0, r0, r_alpha:<a>, bounded:<lo>,<hi>",
    "h_expr": "expression H in x and u",
    "m_expr": "nondecreasing expression m in x",
    "bound": "upper bound M for h",
}

# name: (runner, help, help of its expression, flags after _COMMON in
# --help order)
_COMMANDS = {
    "apply-l": (_run_apply_l, "log-averaged operator at a point or along a grid",
                "integrand expression h", ("var", _EXPR, *_GRID, *_QUAD, "x")),
    "invert-l": (_run_invert_l, "closed-form inverse of the operator",
                 "target expression f", ("var", _EXPR)),
    "classify": (_run_classify, "variation classification: index, slow variation",
                 "positive expression F",
                 ("var", _EXPR, *_GRID, *_TOLS, *_QUAD, "lambdas", "profile", "claim")),
    "uct scan": (_run_uct_scan, "scan |G(x, u)| for uniform decay in u",
                 "expression G in x and u",
                 (*_GRID, *_TOLS, ("expr", "--g", "--expr"), *_U, "u_count")),
    "uct karamata": (_run_uct_karamata, "slow-variation ratio residual over a lambda window",
                     "positive expression F",
                     ("var", *_GRID, *_TOLS, ("expr", "--f", "--expr"),
                      ("lambda_lo", "--a", "--lambda-lo"), ("lambda_hi", "--b", "--lambda-hi"),
                      "lambda_count")),
    "uct guct": (_run_uct_guct, "hypotheses plus conclusion for the product form H*m", None,
                 (*_GRID, *_TOLS, "h_expr", "m_expr", *_U, "u_count", "samples")),
    "uct hi": (_run_uct_hi, "triangle-style inequality check on Halton samples",
               "expression H in x and u",
               (*_GRID, ("expr", "--h", "--expr"), *_U, "v_lo", "v_hi", "samples")),
    "uct cond310": (_run_uct_cond310, "exponent drift residual (xi(lx)-xi(x)) ln x",
                    "exponent expression xi",
                    ("var", *_GRID, *_TOLS, ("expr", "--xi", "--expr"),
                     "lambda_lo", "lambda_hi", "lambda_count")),
    "uct mult-closure": (_run_uct_mult_closure, "two-step decomposition of the ratio residual",
                         "expression f",
                         ("var", *_GRID, "classify_tol", ("expr", "--f", "--expr"),
                          _LAMBDA, "mu")),
    "uct expand-interval": (_run_uct_expand_interval,
                            "n-fold product expansion of a ratio window", None, ("a", "b", "n")),
    "uct asym": (_run_uct_asym, "window-integral asymptotic residual table",
                 "bounded positive expression h",
                 ("var", *_GRID, *_QUAD, "classify_tol", ("expr", "--h", "--expr"), _LAMBDA,
                  "bound")),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from ``_COMMANDS``.
    ``parse_args`` returns a fresh namespace on every call and every flag's
    default is None, so reusing the parser carries no state from one
    ``main`` call to the next."""
    top = argparse.ArgumentParser(
        prog="karamata-kit",
        description="Numerical toolkit for slow variation and log-averaged operators.",
        epilog="@FILE reads more arguments from FILE, one per line.",
        fromfile_prefix_chars="@",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    uct = None  # made at the first "uct ..." command, so that it lists last
    for name, (runner, help_, expr_help, flags) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and uct is None:
            uct = sub.add_parser(group, help="uniformity scans and residual diagnostics")
            uct = uct.add_subparsers(dest="uct_cmd", required=True)
        p = (uct if group else sub).add_parser(leaf, help=help_)
        p.set_defaults(command=name, runner=runner)
        for flag in (*_COMMON, *flags):
            key, *names = (flag, "--" + flag.replace("_", "-")) if isinstance(flag, str) else flag
            kwargs = {"help": expr_help if key == "expr" else _HELP.get(key)}
            if _KINDS[key] == "bool":
                kwargs["action"] = argparse.BooleanOptionalAction
            elif key in CONVERTERS:
                kwargs["type"] = CONVERTERS[key]
            if key == "format":
                kwargs["choices"] = FORMATS
            if names[0].startswith("-"):
                kwargs.update(dest=key, required=key in _REQUIRED)
            p.add_argument(*names, **kwargs)
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0

    try:
        cfg = merge_config(None, vars(args))
        thread_count()  # validates KARAMATA_KIT_THREADS before any work
        t0 = time.perf_counter()
        inputs, results, verdicts, rows = args.runner(cfg)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        report = build_report(args.command, cfg, inputs, results, verdicts, elapsed_ms)
        try:
            emit(report, rows, cfg.format, cfg.out)
        except OSError as exc:
            if isinstance(exc, BrokenPipeError):
                # the reader of stdout has gone: point stdout at devnull, or
                # the interpreter's flush at exit fails again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
        return 4 if "budget" in verdicts else 0
    except (ExprSyntaxError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the expression nests too deeply", file=sys.stderr)
        return 2
    except (EvalError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
