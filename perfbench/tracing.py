"""Traced replay: where an operation's time goes, layer by layer.

Tracing lives in the benchmark, not in the program.  The traced round runs
every operation once more and then replays it through each module's public
functions, called directly with the same inputs and in the order the program
calls them, with a span around each call.  Spans are kept in memory and
written out when the run ends.  The replay calls layers the operation also
calls inside, so the traced round does more work than the untimed one; the
difference between the two round times is reported as the tracing overhead.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from karamata_kit import (
    ClaimedClass,
    GeometricGrid,
    IntegralCache,
    Region,
    apply_L_points,
    class_preservation_check,
    classify_limit,
    condition_scan_310,
    eval_array,
    exponent_profile,
    format_expr,
    guct_diagnose,
    hi_check,
    integral_asym_residual,
    integrate_log,
    interval_expand,
    invert_L,
    karamata_uct_check,
    mult_closure_residual,
    parse,
    rv_index,
    sv_test,
    uct_scan,
)
from karamata_kit.asymptotics import DEFAULT_LAMBDAS
from karamata_kit.config import merge_config
from karamata_kit.reporting import build_report, render_json
from karamata_kit.uniformity import halton_points

from workloads import QUAD_TOL, Op, run_cli, run_op

# classification tolerance the scans use by default
SCAN_CLASSIFY_TOL = 1e-2
# _scan refines each row's supremum on this many extra parameter values
REFINE_POINTS = 33
# integrand arrays at least this long count as large
LARGE_ARRAY = 100_000
# the integrand is timed in pieces of at most this many points
_CHUNK = 1 << 20


class Tracer:
    """Spans (name, parent, start, end) and counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.err_over_tol_max = 0.0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, parent, perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def busy_ms(self, name: str) -> float:
        return 1e3 * sum(end - start for n, _, start, end in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def quad_result(self, q) -> None:
        ratio = q.error_estimate / max(QUAD_TOL.abs_tol, QUAD_TOL.rel_tol * abs(q.value))
        self.err_over_tol_max = max(self.err_over_tol_max, ratio)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "start_s": s, "duration_ms": 1e3 * (e - s)}
            for n, p, s, e in self.spans
        ]


def _parse(T: Tracer, text: str):
    return T.call("exprlang.parse", parse, text)


def _time_integrand(T: Tracer, h, lo: float, hi: float, n: int) -> None:
    """``eval_array`` alone on as many points as the quadrature evaluated."""
    with T.span("quad.integrand"):
        for start in range(0, n, _CHUNK):
            size = min(_CHUNK, n - start)
            us = np.linspace(lo, hi, size)
            t0 = perf_counter()
            eval_array(h, {"x": np.exp(us)})
            if size >= LARGE_ARRAY:
                T.counts["eval_array.large.ns"] += (perf_counter() - t0) * 1e9
                T.counts["eval_array.large.points"] += size


def _cache_sweep(T: Tracer, h, points) -> None:
    """The IntegralCache walk behind apply_L_points, one span per extend."""
    cache = IntegralCache(h, tol=QUAD_TOL)
    for x in points:
        T.call("quad.cache_extend", cache.extend, x)
    T.counts["quad.cache_extend.evals"] += cache.evaluations


def _scan_layers(T: Tracer, report, expr, row_env) -> None:
    """Cells, one scan row's eval_array, and the per-column classification
    done again from outside."""
    rows = np.array(report.residuals)
    params = np.array(report.params)
    T.counts["uniformity.scan.cells"] += rows.shape[0] * (params.size + REFINE_POINTS)
    for x in report.xs:
        env = row_env(x, params)
        t0 = perf_counter()
        eval_array(expr, env)
        T.counts["eval_array.row.ns"] += (perf_counter() - t0) * 1e9
        T.counts["eval_array.row.points"] += params.size
    if rows.shape[0] >= 8:
        for j in range(params.size):
            T.call("asymptotics.classify_limit", classify_limit, rows[:, j], SCAN_CLASSIFY_TOL)
        T.call("asymptotics.classify_limit", classify_limit, report.suprema, SCAN_CLASSIFY_TOL)


def _uct_row(x, params):
    return {"x": x, "u": params}


def _ratio_row(x, params):
    return {"x": params * x}


def _scan(T: Tracer, name: str, fn, expr, row_env, *args, **kwargs):
    report = T.call(f"uniformity.{name}", fn, expr, *args, **kwargs)
    _scan_layers(T, report, expr, row_env)
    return report


def _halton(T: Tracer, samples: int, skip: int = 20):
    T.counts["uniformity.halton_points.points"] += samples
    return T.call("uniformity.halton_points", halton_points, samples, 3, skip=skip)


# ---------------------------------------------------------------------------
# library operations (osc_quad, wide_scans)


def _replay_apply_L_detailed(T: Tracer, op: Op):
    a = op.args
    res = T.call("karamata.apply_L_detailed", run_op, op)
    h = _parse(T, a["text"])
    q = T.call("quad.integrate_log", integrate_log, h, a["x"], QUAD_TOL)
    T.counts["quad.evals"] += q.evaluations
    T.quad_result(q)
    _time_integrand(T, h, 0.0, math.log(a["x"]), q.evaluations)
    return res


def _replay_apply_L_points(T: Tracer, op: Op):
    res = T.call("karamata.apply_L_points", run_op, op)
    _cache_sweep(T, _parse(T, op.args["text"]), op.args["points"])
    return res


def _replay_scan(name: str, row_env):
    def replay(T: Tracer, op: Op):
        a = op.args
        expr = _parse(T, a["text"])
        extra = {"integer_mode": a["integer_mode"]} if "integer_mode" in a else {}
        return _scan(T, name, _SCAN_FNS[name], expr, row_env,
                     a["window"], a["grid"], a["params"], **extra)

    return replay


_SCAN_FNS = {
    "uct_scan": uct_scan,
    "karamata_uct_check": karamata_uct_check,
    "condition_scan_310": condition_scan_310,
}


def _replay_hi_check(T: Tracer, op: Op):
    a = op.args
    H = _parse(T, a["text"])
    res = T.call("uniformity.hi_check", hi_check, H, a["samples"], a["region"])
    _halton(T, a["samples"])
    return res


def _replay_halton_points(T: Tracer, op: Op):
    return _halton(T, op.args["samples"], op.args["skip"])


# ---------------------------------------------------------------------------
# CLI commands (desk_reports): merge_config, parse, the library call, then
# build_report and render_json, as the CLI runs them


def _grid_inputs(grid: GeometricGrid) -> dict:
    return {"start": grid.start, "ratio": grid.ratio, "count": grid.count,
            "integer_mode": grid.integer_mode}


def _grid(cfg, start=10.0, ratio=10.0, count=8) -> GeometricGrid:
    return GeometricGrid(
        cfg.grid_start if cfg.grid_start is not None else start,
        cfg.grid_ratio if cfg.grid_ratio is not None else ratio,
        cfg.grid_count if cfg.grid_count is not None else count,
        cfg.integer_mode,
    )


def _expr_inputs(T: Tracer, text: str):
    expr = _parse(T, text)
    return expr, {"expr": text, "canonical": format_expr(expr)}


def _desk_apply_l(T, cfg):
    h, inputs = _expr_inputs(T, cfg.expr)
    grid = _grid(cfg)
    points = T.call("karamata.apply_L_points", apply_L_points, h, grid.points(), QUAD_TOL)
    _cache_sweep(T, h, grid.points())
    return {**inputs, "grid": _grid_inputs(grid)}, {"points": points}, {}


def _desk_invert_l(T, cfg):
    f, inputs = _expr_inputs(T, cfg.expr)
    g = T.call("karamata.invert_L", invert_L, f)
    return {**inputs, "var": cfg.var}, {"inverse": format_expr(g)}, {}


def _lambdas(cfg):
    if cfg.lambdas is None:
        return DEFAULT_LAMBDAS
    return tuple(float(tok) for tok in cfg.lambdas.split(","))


def _desk_classify(T, cfg):
    F, inputs = _expr_inputs(T, cfg.expr)
    lams = _lambdas(cfg)
    kwargs = {}
    if cfg.integer_mode:
        kwargs["grid"] = _grid(cfg, start=1000.0, ratio=2.0, count=33)
    index = T.call("asymptotics.rv_index", rv_index, F, lambdas=lams, **kwargs)
    sv = T.call("asymptotics.sv_test", sv_test, F, lambdas=lams, **kwargs)
    results = {"index": index, "sv": sv}
    verdicts = {"index": index.verdict, "sv": sv.verdict}
    if cfg.profile:
        prof = T.call("asymptotics.exponent_profile", exponent_profile, F, **kwargs)
        results["profile"] = prof
        verdicts["profile"] = prof.verdict.kind
    if cfg.claim is not None:
        check = T.call("asymptotics.class_preservation_check", class_preservation_check,
                       F, ClaimedClass(cfg.claim), lambdas=lams, tol=QUAD_TOL, **kwargs)
        # the default grid of class_preservation_check: 1e4, 1e8, ..., 1e44
        _cache_sweep(T, F, GeometricGrid(1e4, 1e4, 11).points())
        results["preservation"] = check
        verdicts["preservation"] = "holds" if check.conclusion_holds else "not_established"
    inputs["lambdas"] = list(lams)
    inputs["grid"] = _grid_inputs(kwargs["grid"]) if kwargs else "defaults"
    return inputs, results, verdicts


def _desk_uct_scan(T, cfg):
    G, inputs = _expr_inputs(T, cfg.expr)
    grid = _grid(cfg)
    report = _scan(T, "uct_scan", uct_scan, G, _uct_row, (cfg.u_lo, cfg.u_hi), grid, cfg.u_count)
    inputs.update(u=[cfg.u_lo, cfg.u_hi], grid=_grid_inputs(grid))
    return inputs, {"scan": report}, {"scan": report.verdict}


def _desk_uct_karamata(T, cfg):
    F, inputs = _expr_inputs(T, cfg.expr)
    grid = _grid(cfg)
    report = _scan(T, "karamata_uct_check", karamata_uct_check, F, _ratio_row,
                   (cfg.lambda_lo, cfg.lambda_hi), grid, cfg.lambda_count)
    inputs.update({"lambda": [cfg.lambda_lo, cfg.lambda_hi], "grid": _grid_inputs(grid)})
    return inputs, {"scan": report}, {"scan": report.verdict}


def _desk_uct_guct(T, cfg):
    H = _parse(T, cfg.h_expr)
    m = _parse(T, cfg.m_expr)
    grid = _grid(cfg)
    u = (cfg.u_lo, cfg.u_hi)
    report = T.call("uniformity.guct_diagnose", guct_diagnose, H, m, u, grid,
                    cfg.u_count, cfg.samples)
    xs = grid.points()
    region = Region(x=(xs[0], xs[-1]), u=u, v=u)
    T.call("uniformity.hi_check", hi_check, H, cfg.samples, region)
    _halton(T, cfg.samples)
    inputs = {"h_expr": cfg.h_expr, "h_canonical": format_expr(H), "m_expr": cfg.m_expr,
              "m_canonical": format_expr(m), "u": list(u), "grid": _grid_inputs(grid),
              "samples": cfg.samples}
    verdicts = {
        "hi": "ok" if report.hi.ok else "violated",
        "monotone": "ok" if report.monotone_ok else "violated",
        "pointwise": "ok" if report.pointwise_ok else "not_vanishing",
        "scan": report.scan.verdict,
    }
    return inputs, {"diagnosis": report}, verdicts


def _desk_uct_mult_closure(T, cfg):
    f, inputs = _expr_inputs(T, cfg.expr)
    grid = _grid(cfg)
    report = T.call("uniformity.mult_closure_residual", mult_closure_residual,
                    f, cfg.lam, cfg.mu, grid)
    inputs.update({"lambda": cfg.lam, "mu": cfg.mu, "grid": _grid_inputs(grid)})
    verdicts = {"identity": "ok" if report.identity_ok else "broken"}
    if report.verdicts is not None:
        for key, verdict in zip(("step_lam", "step_mu", "combined"), report.verdicts):
            verdicts[key] = verdict.kind
    return inputs, {"closure": report}, verdicts


def _desk_uct_asym(T, cfg):
    h, inputs = _expr_inputs(T, cfg.expr)
    grid = _grid(cfg, start=math.exp(9), ratio=math.e, count=8)
    report = T.call("uniformity.integral_asym_residual", integral_asym_residual,
                    h, cfg.lam, grid, cfg.bound, QUAD_TOL)
    xs = grid.points()
    _cache_sweep(T, h, sorted(set(xs) | {cfg.lam * x for x in xs}))
    inputs.update({"lambda": cfg.lam, "bound": cfg.bound, "grid": _grid_inputs(grid)})
    verdicts = {"bound": "ok" if report.bound_ok else "violated"}
    if report.residual_verdict is not None:
        verdicts["residual"] = report.residual_verdict.kind
        verdicts["lcond"] = report.lcond_verdict.kind
    return inputs, {"asym": report}, verdicts


def _desk_uct_expand_interval(T, cfg):
    lo, hi = T.call("uniformity.interval_expand", interval_expand, cfg.a, cfg.b, cfg.n)
    return {"a": cfg.a, "b": cfg.b, "n": cfg.n}, {"interval": {"lo": lo, "hi": hi}}, {}


_DESK = {
    "apply-l": _desk_apply_l,
    "invert-l": _desk_invert_l,
    "classify": _desk_classify,
    "uct scan": _desk_uct_scan,
    "uct karamata": _desk_uct_karamata,
    "uct guct": _desk_uct_guct,
    "uct mult-closure": _desk_uct_mult_closure,
    "uct asym": _desk_uct_asym,
    "uct expand-interval": _desk_uct_expand_interval,
}


def _replay_cli(T: Tracer, op: Op):
    a = op.args
    run = T.call("cli.main", run_cli, a["argv"])
    cfg = T.call("config.merge_config", merge_config, None, a["flags"])
    inputs, results, verdicts = _DESK[a["command"]](T, cfg)
    report = T.call("reporting.build_report", build_report,
                    a["command"], cfg, inputs, results, verdicts, 0.0)
    text = T.call("reporting.render_json", render_json, report)
    T.counts["reporting.render_json.bytes"] += len(text)
    return run


_REPLAYS = {
    "apply_L_detailed": _replay_apply_L_detailed,
    "apply_L_points": _replay_apply_L_points,
    "uct_scan": _replay_scan("uct_scan", _uct_row),
    "karamata_uct_check": _replay_scan("karamata_uct_check", _ratio_row),
    "condition_scan_310": _replay_scan("condition_scan_310", _ratio_row),
    "hi_check": _replay_hi_check,
    "halton_points": _replay_halton_points,
    "cli": _replay_cli,
}


def replay(T: Tracer, op: Op):
    """Run ``op`` under a span, replay its layers, and return its result."""
    with T.span(f"op:{op.label}"):
        return _REPLAYS[op.kind](T, op)


# ---------------------------------------------------------------------------
# per-layer metrics


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(T: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit).  A layer the
    workload does not reach reads 0."""
    c = T.counts
    integrate_ms = T.busy_ms("quad.integrate_log")
    integrand_ms = T.busy_ms("quad.integrand")
    scan_ms = sum(T.busy_ms(f"uniformity.{n}") for n in _SCAN_FNS)
    return {
        "quad.integrate_log.busy_ms": (integrate_ms, "ms"),
        "quad.integrate_log.calls": (T.calls("quad.integrate_log"), "count"),
        "quad.evals": (c["quad.evals"], "count"),
        "quad.ns_per_eval": (_per(integrate_ms * 1e6, c["quad.evals"]), "ns"),
        "quad.integrand_ms": (integrand_ms, "ms"),
        "quad.overhead_ms": (integrate_ms - integrand_ms, "ms"),
        "quad.err_over_tol_max": (T.err_over_tol_max, "ratio"),
        "quad.cache_extend.busy_ms": (T.busy_ms("quad.cache_extend"), "ms"),
        "quad.cache_extend.calls": (T.calls("quad.cache_extend"), "count"),
        "quad.cache_extend.evals": (c["quad.cache_extend.evals"], "count"),
        "exprlang.parse.busy_ms": (T.busy_ms("exprlang.parse"), "ms"),
        "exprlang.parse.calls": (T.calls("exprlang.parse"), "count"),
        "exprlang.eval_array.ns_per_point_large": (
            _per(c["eval_array.large.ns"], c["eval_array.large.points"]), "ns"),
        "exprlang.eval_array.ns_per_point_row": (
            _per(c["eval_array.row.ns"], c["eval_array.row.points"]), "ns"),
        "karamata.apply_L_detailed.busy_ms": (T.busy_ms("karamata.apply_L_detailed"), "ms"),
        "karamata.apply_L_points.busy_ms": (T.busy_ms("karamata.apply_L_points"), "ms"),
        "uniformity.uct_scan.busy_ms": (T.busy_ms("uniformity.uct_scan"), "ms"),
        "uniformity.karamata_uct_check.busy_ms": (
            T.busy_ms("uniformity.karamata_uct_check"), "ms"),
        "uniformity.condition_scan_310.busy_ms": (
            T.busy_ms("uniformity.condition_scan_310"), "ms"),
        "uniformity.scan.cells": (c["uniformity.scan.cells"], "count"),
        "uniformity.scan.ns_per_cell": (_per(scan_ms * 1e6, c["uniformity.scan.cells"]), "ns"),
        "uniformity.halton_points.busy_ms": (T.busy_ms("uniformity.halton_points"), "ms"),
        "uniformity.halton_points.points": (c["uniformity.halton_points.points"], "count"),
        "uniformity.hi_check.busy_ms": (T.busy_ms("uniformity.hi_check"), "ms"),
        "uniformity.guct_diagnose.busy_ms": (T.busy_ms("uniformity.guct_diagnose"), "ms"),
        "asymptotics.classify_limit.busy_ms": (T.busy_ms("asymptotics.classify_limit"), "ms"),
        "asymptotics.classify_limit.calls": (T.calls("asymptotics.classify_limit"), "count"),
        "asymptotics.rv_index.busy_ms": (T.busy_ms("asymptotics.rv_index"), "ms"),
        "asymptotics.sv_test.busy_ms": (T.busy_ms("asymptotics.sv_test"), "ms"),
        "asymptotics.class_preservation_check.busy_ms": (
            T.busy_ms("asymptotics.class_preservation_check"), "ms"),
        "config.merge_config.busy_ms": (T.busy_ms("config.merge_config"), "ms"),
        "reporting.render_json.busy_ms": (T.busy_ms("reporting.render_json"), "ms"),
        "reporting.render_json.bytes": (c["reporting.render_json.bytes"], "bytes"),
        "cli.main.busy_ms": (T.busy_ms("cli.main"), "ms"),
    }
