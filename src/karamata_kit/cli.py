"""Command-line front end.

Exit codes: 0 success, 2 expression/config parse error, 3 precondition or
domain error, 4 quadrature budget exhausted (report still written), 5
unexpected internal error.  KARAMATA_KIT_THREADS must be an integer when
set (exit 2 otherwise); it sets the quadrature's worker threads
(``quad.thread_count``), which change no result.

``main`` may be called repeatedly in one process: each call parses only its
own arguments, and the parser is built once, at the first call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import __version__
from .asymptotics import (
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
from .config import ConfigError, RunConfig, load_config_file, merge_config
from .exprlang import EvalError, ExprSyntaxError, format_expr, parse
from .karamata import apply_L_detailed, apply_L_points, invert_L
from .quad import PreconditionError, QuadTolerance, thread_count
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


def _require(value, flag: str):
    if value is None:
        raise PreconditionError(f"{flag} is required for this command")
    return value


def _parse_expr(text: str):
    expr = parse(text)
    return expr, format_expr(expr)


def _grid(cfg: RunConfig, start=10.0, ratio=10.0, count=8) -> GeometricGrid:
    return GeometricGrid(
        cfg.grid_start if cfg.grid_start is not None else start,
        cfg.grid_ratio if cfg.grid_ratio is not None else ratio,
        cfg.grid_count if cfg.grid_count is not None else count,
        cfg.integer_mode,
    )


def _classify_grid(cfg: RunConfig) -> GeometricGrid | None:
    """classify defers to per-operation library defaults unless the user
    pinned the grid; a bare --integer-mode selects the integer ladder."""
    if cfg.grid_start is None and cfg.grid_ratio is None and cfg.grid_count is None:
        return DEFAULT_INTEGER_GRID if cfg.integer_mode else None
    if cfg.integer_mode:
        return _grid(cfg, start=1000.0, ratio=2.0, count=33)
    return _grid(cfg)


def _lambdas(cfg: RunConfig):
    if cfg.lambdas is None:
        return DEFAULT_LAMBDAS
    try:
        lams = tuple(float(tok) for tok in cfg.lambdas.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"cannot parse --lambdas {cfg.lambdas!r} as floats")
    if not lams:
        raise ConfigError("--lambdas must name at least one value")
    if not all(math.isfinite(lam) for lam in lams):
        raise ConfigError(f"--lambdas must be finite, got {cfg.lambdas!r}")
    return lams


def _claimed_class(text: str) -> ClaimedClass:
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    try:
        if head == "z0":
            return ClaimedClass("z0")
        if head == "r0":
            return ClaimedClass("r0")
        if head == "r_alpha":
            return ClaimedClass("r_alpha", alpha=float(rest))
        if head == "bounded":
            lo, _, hi = rest.partition(",")
            return ClaimedClass("bounded", bounds=(float(lo), float(hi)))
    except (ValueError, PreconditionError) as exc:
        raise ConfigError(f"bad --claim {text!r}: {exc}") from exc
    raise ConfigError(
        f"unknown --claim {text!r}; use z0, r0, r_alpha:<a>, or bounded:<lo>,<hi>"
    )


def _quad_tol(cfg: RunConfig) -> QuadTolerance:
    return QuadTolerance(cfg.abs_tol, cfg.rel_tol, cfg.max_evals)


def _tols(cfg: RunConfig) -> tuple[float, float]:
    """``(classify_tol, value_tol)``: the flags, else the library defaults."""
    return (
        RATIO_CLASSIFY_TOL if cfg.classify_tol is None else cfg.classify_tol,
        VALUE_TOL if cfg.value_tol is None else cfg.value_tol,
    )


def _grid_inputs(grid: GeometricGrid) -> dict:
    return {
        "start": grid.start,
        "ratio": grid.ratio,
        "count": grid.count,
        "integer_mode": grid.integer_mode,
    }


def _scan_rows(report) -> list:
    rows = []
    for x, row in zip(report.xs, report.residuals):
        for p, r in zip(report.params, row):
            rows.append((x, p, r))
    return rows


def _run_apply_l(cfg: RunConfig):
    h, canonical = _parse_expr(_require(cfg.expr, "the expression argument"))
    tol = _quad_tol(cfg)
    if cfg.x is not None:
        got = apply_L_detailed(h, cfg.x, tol, var=cfg.var)
        inputs = {"expr": cfg.expr, "canonical": canonical, "x": cfg.x}
        results = {"points": [got]}
        rows = [(got.x, None, got.value)]
        budget_ok = got.quad is None or got.quad.converged
        return inputs, results, {}, rows, budget_ok
    grid = _grid(cfg)
    points = apply_L_points(h, grid.points(), tol, var=cfg.var)
    inputs = {"expr": cfg.expr, "canonical": canonical, "grid": _grid_inputs(grid)}
    results = {"points": points}
    rows = [(p.x, None, p.value) for p in points]
    budget_ok = all(p.quad is None or p.quad.converged for p in points)
    return inputs, results, {}, rows, budget_ok


def _run_invert_l(cfg: RunConfig):
    f, canonical = _parse_expr(_require(cfg.expr, "the expression argument"))
    g = invert_L(f, var=cfg.var)
    inputs = {"expr": cfg.expr, "canonical": canonical, "var": cfg.var}
    results = {"inverse": format_expr(g)}
    return inputs, results, {}, [], True


def _run_classify(cfg: RunConfig):
    F, canonical = _parse_expr(_require(cfg.expr, "the expression argument"))
    lams = _lambdas(cfg)
    grid = _classify_grid(cfg)

    classify_tol, value_tol = _tols(cfg)
    kwargs = {"var": cfg.var, "classify_tol": classify_tol}
    if grid is not None:
        kwargs["grid"] = grid

    index = rv_index(F, lams, **kwargs)
    sv = sv_test(F, lams, value_tol=value_tol, **kwargs)
    inputs = {
        "expr": cfg.expr,
        "canonical": canonical,
        "lambdas": list(lams),
        "grid": _grid_inputs(grid) if grid is not None else "defaults",
    }
    results = {"index": index, "sv": sv}
    verdicts = {"index": index.verdict, "sv": sv.verdict}
    rows = []
    for track in index.tracks:
        for x, est in zip(track.xs, track.estimates):
            rows.append((x, track.lam, est))

    if cfg.profile:
        prof = exponent_profile(F, **kwargs)
        results["profile"] = prof
        verdicts["profile"] = prof.verdict.kind
    if cfg.claim is not None:
        claimed = _claimed_class(cfg.claim)
        check = class_preservation_check(
            F, claimed, lambdas=lams, tol=_quad_tol(cfg), **kwargs
        )
        results["preservation"] = check
        verdicts["preservation"] = (
            "holds" if (check.asserted and check.conclusion_holds) else "not_established"
        )
    return inputs, results, verdicts, rows, True


def _run_uct_scan(cfg: RunConfig):
    G, canonical = _parse_expr(_require(cfg.expr, "--g"))
    grid = _grid(cfg)
    report = uct_scan(G, (cfg.u_lo, cfg.u_hi), grid, cfg.u_count, *_tols(cfg))
    inputs = {
        "expr": cfg.expr,
        "canonical": canonical,
        "u": [cfg.u_lo, cfg.u_hi],
        "grid": _grid_inputs(grid),
    }
    return inputs, {"scan": report}, {"scan": report.verdict}, _scan_rows(report), True


def _run_uct_karamata(cfg: RunConfig):
    F, canonical = _parse_expr(_require(cfg.expr, "--f"))
    grid = _grid(cfg)
    report = karamata_uct_check(
        F, (cfg.lambda_lo, cfg.lambda_hi), grid, cfg.lambda_count, *_tols(cfg), var=cfg.var
    )
    inputs = {
        "expr": cfg.expr,
        "canonical": canonical,
        "lambda": [cfg.lambda_lo, cfg.lambda_hi],
        "grid": _grid_inputs(grid),
    }
    return inputs, {"scan": report}, {"scan": report.verdict}, _scan_rows(report), True


def _run_uct_guct(cfg: RunConfig):
    H, h_canonical = _parse_expr(_require(cfg.h_expr, "--h-expr"))
    m, m_canonical = _parse_expr(_require(cfg.m_expr, "--m-expr"))
    grid = _grid(cfg)
    report = guct_diagnose(
        H, m, (cfg.u_lo, cfg.u_hi), grid, cfg.u_count, cfg.samples, *_tols(cfg)
    )
    inputs = {
        "h_expr": cfg.h_expr,
        "h_canonical": h_canonical,
        "m_expr": cfg.m_expr,
        "m_canonical": m_canonical,
        "u": [cfg.u_lo, cfg.u_hi],
        "grid": _grid_inputs(grid),
        "samples": cfg.samples,
    }
    verdicts = {
        "hi": "ok" if report.hi.ok else "violated",
        "monotone": "ok" if report.monotone_ok else "violated",
        "pointwise": "ok" if report.pointwise_ok else "not_vanishing",
        "scan": report.scan.verdict,
    }
    return inputs, {"diagnosis": report}, verdicts, _scan_rows(report.scan), True


def _run_uct_hi(cfg: RunConfig):
    H, canonical = _parse_expr(_require(cfg.expr, "--h"))
    grid = _grid(cfg)
    xs = grid.points()
    v_lo = cfg.v_lo if cfg.v_lo is not None else cfg.u_lo
    v_hi = cfg.v_hi if cfg.v_hi is not None else cfg.u_hi
    region = Region(x=(xs[0], xs[-1]), u=(cfg.u_lo, cfg.u_hi), v=(v_lo, v_hi))
    report = hi_check(H, cfg.samples, region)
    inputs = {
        "expr": cfg.expr,
        "canonical": canonical,
        "region": region,
        "samples": cfg.samples,
    }
    rows = [(v.x, v.u, v.lhs - v.rhs) for v in report.violations]
    return inputs, {"hi": report}, {"hi": "ok" if report.ok else "violated"}, rows, True


def _run_uct_cond310(cfg: RunConfig):
    xi, canonical = _parse_expr(_require(cfg.expr, "--xi"))
    grid = _grid(cfg, start=1000.0, ratio=2.0, count=33) if cfg.integer_mode else _grid(cfg)
    report = condition_scan_310(
        xi, (cfg.lambda_lo, cfg.lambda_hi), grid, cfg.lambda_count, grid.integer_mode,
        *_tols(cfg), var=cfg.var,
    )
    inputs = {
        "expr": cfg.expr,
        "canonical": canonical,
        "lambda": [cfg.lambda_lo, cfg.lambda_hi],
        "grid": _grid_inputs(grid),
    }
    return inputs, {"scan": report}, {"scan": report.verdict}, _scan_rows(report), True


def _run_uct_mult_closure(cfg: RunConfig):
    f, canonical = _parse_expr(_require(cfg.expr, "--f"))
    lam = _require(cfg.lam, "--lambda")
    mu = _require(cfg.mu, "--mu")
    grid = _grid(cfg)
    report = mult_closure_residual(f, lam, mu, grid, var=cfg.var, classify_tol=_tols(cfg)[0])
    inputs = {
        "expr": cfg.expr,
        "canonical": canonical,
        "lambda": lam,
        "mu": mu,
        "grid": _grid_inputs(grid),
    }
    verdicts = {"identity": "ok" if report.identity_ok else "broken"}
    if report.verdicts is not None:
        verdicts["step_lam"] = report.verdicts[0].kind
        verdicts["step_mu"] = report.verdicts[1].kind
        verdicts["combined"] = report.verdicts[2].kind
    rows = []
    for i, x in enumerate(report.xs):
        rows.append((x, lam, report.step_lam[i]))
        rows.append((x, mu, report.step_mu[i]))
        rows.append((x, lam * mu, report.combined[i]))
    return inputs, {"closure": report}, verdicts, rows, True


def _run_uct_expand_interval(cfg: RunConfig):
    a = _require(cfg.a, "--a")
    b = _require(cfg.b, "--b")
    n = _require(cfg.n, "--n")
    lo, hi = interval_expand(a, b, n)
    inputs = {"a": a, "b": b, "n": n}
    return inputs, {"interval": {"lo": lo, "hi": hi}}, {}, [], True


def _run_uct_asym(cfg: RunConfig):
    h, canonical = _parse_expr(_require(cfg.expr, "--h"))
    lam = _require(cfg.lam, "--lambda")
    grid = _grid(cfg, start=math.exp(9), ratio=math.e, count=8)
    report = integral_asym_residual(
        h, lam, grid, cfg.bound, _quad_tol(cfg), var=cfg.var, classify_tol=_tols(cfg)[0]
    )
    inputs = {
        "expr": cfg.expr,
        "canonical": canonical,
        "lambda": lam,
        "bound": cfg.bound,
        "grid": _grid_inputs(grid),
    }
    verdicts = {"bound": "ok" if report.bound_ok else "violated"}
    if report.residual_verdict is not None:
        verdicts["residual"] = report.residual_verdict.kind
        verdicts["lcond"] = report.lcond_verdict.kind
    rows = [(r.x, lam, r.residual) for r in report.rows]
    return inputs, {"asym": report}, verdicts, rows, report.quad_converged


_RUNNERS = {
    "apply-l": _run_apply_l,
    "invert-l": _run_invert_l,
    "classify": _run_classify,
    "uct scan": _run_uct_scan,
    "uct karamata": _run_uct_karamata,
    "uct guct": _run_uct_guct,
    "uct hi": _run_uct_hi,
    "uct cond310": _run_uct_cond310,
    "uct mult-closure": _run_uct_mult_closure,
    "uct expand-interval": _run_uct_expand_interval,
    "uct asym": _run_uct_asym,
}


def _add_common(p):
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default=None, help="output path (both: <out>.json/<out>.csv)")
    p.add_argument("--format", default=None, choices=["json", "csv", "both"])
    p.add_argument("--var", default=None, help="independent variable name (default x)")


def _add_grid(p):
    p.add_argument("--grid-start", type=float, default=None)
    p.add_argument("--grid-ratio", "--ratio", dest="grid_ratio", type=float, default=None)
    p.add_argument("--grid-count", "--count", dest="grid_count", type=int, default=None)
    p.add_argument(
        "--integer-mode", action=argparse.BooleanOptionalAction, default=None,
        help="walk consecutive integers instead of a geometric ladder",
    )


def _add_quad(p):
    p.add_argument("--abs-tol", type=float, default=None)
    p.add_argument("--rel-tol", type=float, default=None)
    p.add_argument("--max-evals", type=int, default=None)


def _add_classify_tols(p):
    p.add_argument("--classify-tol", type=float, default=None)
    p.add_argument("--value-tol", type=float, default=None)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  ``parse_args`` returns a
    fresh namespace on every call and every default is None, so reusing the
    parser carries no state from one ``main`` call to the next."""
    top = argparse.ArgumentParser(
        prog="karamata-kit",
        description="Numerical toolkit for slow variation and log-averaged operators.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply-l", help="log-averaged operator at a point or along a grid")
    p.add_argument("expr", nargs="?", default=None, help="integrand expression h")
    _add_common(p)
    _add_grid(p)
    _add_quad(p)
    p.add_argument("--x", type=float, default=None, help="single evaluation point")

    p = sub.add_parser("invert-l", help="closed-form inverse of the operator")
    p.add_argument("expr", nargs="?", default=None, help="target expression f")
    _add_common(p)

    p = sub.add_parser("classify", help="variation classification: index, slow variation")
    p.add_argument("expr", nargs="?", default=None, help="positive expression F")
    _add_common(p)
    _add_grid(p)
    _add_classify_tols(p)
    _add_quad(p)
    p.add_argument("--lambdas", default=None, help="comma-separated ratio set")
    p.add_argument("--profile", action=argparse.BooleanOptionalAction, default=None,
                   help="include the exponent profile ln F/ln x")
    p.add_argument("--claim", default=None,
                   help="also check operator class preservation: z0, r0, r_alpha:<a>, bounded:<lo>,<hi>")

    uct = sub.add_parser("uct", help="uniformity scans and residual diagnostics")
    usub = uct.add_subparsers(dest="uct_cmd", required=True)

    p = usub.add_parser("scan", help="scan |G(x, u)| for uniform decay in u")
    _add_common(p)
    _add_grid(p)
    _add_classify_tols(p)
    p.add_argument("--g", "--expr", dest="expr", default=None, help="expression G in x and u")
    p.add_argument("--u-lo", type=float, default=None)
    p.add_argument("--u-hi", type=float, default=None)
    p.add_argument("--u-count", type=int, default=None)

    p = usub.add_parser("karamata", help="slow-variation ratio residual over a lambda window")
    _add_common(p)
    _add_grid(p)
    _add_classify_tols(p)
    p.add_argument("--f", "--expr", dest="expr", default=None, help="positive expression F")
    p.add_argument("--a", "--lambda-lo", dest="lambda_lo", type=float, default=None)
    p.add_argument("--b", "--lambda-hi", dest="lambda_hi", type=float, default=None)
    p.add_argument("--lambda-count", type=int, default=None)

    p = usub.add_parser("guct", help="hypotheses plus conclusion for the product form H*m")
    _add_common(p)
    _add_grid(p)
    _add_classify_tols(p)
    p.add_argument("--h-expr", default=None, help="expression H in x and u")
    p.add_argument("--m-expr", default=None, help="nondecreasing expression m in x")
    p.add_argument("--u-lo", type=float, default=None)
    p.add_argument("--u-hi", type=float, default=None)
    p.add_argument("--u-count", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)

    p = usub.add_parser("hi", help="triangle-style inequality check on Halton samples")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--h", "--expr", dest="expr", default=None, help="expression H in x and u")
    p.add_argument("--u-lo", type=float, default=None)
    p.add_argument("--u-hi", type=float, default=None)
    p.add_argument("--v-lo", type=float, default=None)
    p.add_argument("--v-hi", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)

    p = usub.add_parser("cond310", help="exponent drift residual (xi(lx)-xi(x)) ln x")
    _add_common(p)
    _add_grid(p)
    _add_classify_tols(p)
    p.add_argument("--xi", "--expr", dest="expr", default=None, help="exponent expression xi")
    p.add_argument("--lambda-lo", type=float, default=None)
    p.add_argument("--lambda-hi", type=float, default=None)
    p.add_argument("--lambda-count", type=int, default=None)

    p = usub.add_parser("mult-closure", help="two-step decomposition of the ratio residual")
    _add_common(p)
    _add_grid(p)
    _add_classify_tols(p)
    p.add_argument("--f", "--expr", dest="expr", default=None, help="expression f")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)

    p = usub.add_parser("expand-interval", help="n-fold product expansion of a ratio window")
    _add_common(p)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--n", type=int, default=None)

    p = usub.add_parser("asym", help="window-integral asymptotic residual table")
    _add_common(p)
    _add_grid(p)
    _add_quad(p)
    _add_classify_tols(p)
    p.add_argument("--h", "--expr", dest="expr", default=None, help="bounded positive expression h")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--bound", type=float, default=None, help="upper bound M for h")

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0

    command = args.command
    if command == "uct":
        command = f"uct {args.uct_cmd}"

    try:
        file_values = load_config_file(args.config) if args.config else None
        cfg = merge_config(file_values, vars(args))
        thread_count()  # validates KARAMATA_KIT_THREADS before any work
        runner = _RUNNERS[command]
        t0 = time.perf_counter()
        inputs, results, verdicts, rows, budget_ok = runner(cfg)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        report = build_report(command, cfg, inputs, results, verdicts, elapsed_ms)
        if not budget_ok:
            report["verdicts"]["budget"] = "exhausted"
        emit(report, rows, cfg.format, cfg.out)
        return 0 if budget_ok else 4
    except (ExprSyntaxError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvalError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
