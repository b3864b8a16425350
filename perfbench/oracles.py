"""Independent checks of every operation's output.

Each expected value comes from a closed form, from scipy, or from exact
rational arithmetic, never from a stored copy of the program's output.  A
check compares one value the program reported (``got``) with its expectation
(``want``): exactly when ``tol`` is None, else within the absolute
tolerance ``tol`` (a scalar or one entry per element).  Every tolerance is far
below a relative change of 1e-6 of the value it guards; ``selftest.py``
shows that each check fails when its value is perturbed by that much.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import sici

from workloads import QUAD_TOL, Op

REPORT_KEYS = "command,config,inputs,results,timing_ms,verdicts,version"


@dataclass
class Check:
    name: str
    got: object
    want: object
    tol: object = None

    def ok(self) -> bool:
        if self.tol is None:
            if isinstance(self.got, np.ndarray) or isinstance(self.want, np.ndarray):
                return bool(np.array_equal(self.got, self.want))
            return type(self.got) is type(self.want) and self.got == self.want
        got = np.asarray(self.got, dtype=float)
        want = np.asarray(self.want, dtype=float)
        return bool(
            got.shape == want.shape
            and got.size > 0
            and np.all(np.isfinite(got))
            and np.all(np.abs(got - want) <= self.tol)
        )


def _rel(want, rtol: float):
    return rtol * np.abs(np.asarray(want, dtype=float))


def _log_integral(fn: str, a: float, x) -> np.ndarray:
    """``int_1^x f(a t)/t dt`` for f = sin or cos, by the sine and cosine
    integrals: Si(a x) - Si(a) or Ci(a x) - Ci(a)."""
    si_x, ci_x = sici(a * np.asarray(x, dtype=float))
    si_a, ci_a = sici(a)
    return si_x - si_a if fn == "sin" else ci_x - ci_a


def _quad_slack(integral) -> np.ndarray:
    """What the tolerance request allows on top of the reported estimate."""
    return np.maximum(QUAD_TOL.abs_tol, QUAD_TOL.rel_tol * np.abs(integral))


def _operator_checks(integral_at, values) -> list[Check]:
    """``values`` are OperatorValue records, or their JSON form; the value at
    x must be ``integral_at(x) / ln x`` within the reported error estimate
    plus the slack of the tolerance request."""
    get = (lambda v, k: v[k]) if isinstance(values[0], dict) else getattr
    xs = np.array([get(v, "x") for v in values])
    quads = [get(v, "quad") for v in values]
    err = np.array([get(q, "error_estimate") for q in quads])
    integral = integral_at(xs)
    return [
        Check("converged", all(get(q, "converged") for q in quads), True),
        Check(
            "L value",
            [get(v, "value") for v in values],
            integral / np.log(xs),
            (err + _quad_slack(integral)) / np.log(xs),
        ),
    ]


# ---------------------------------------------------------------------------
# osc_quad and wide_scans: library calls


def _osc_integral(op: Op):
    return lambda xs: _log_integral(op.args["fn"], op.args["a"], xs)


def _check_apply_L_detailed(op: Op, res) -> list[Check]:
    return _operator_checks(_osc_integral(op), [res])


def _check_apply_L_points(op: Op, res) -> list[Check]:
    checks = _operator_checks(_osc_integral(op), res)
    return checks + [Check("points", [v.x for v in res], op.args["points"], 0.0)]


def _grid_xs(grid, integer_mode: bool = False) -> np.ndarray:
    if integer_mode:
        return np.array([float(round(grid.start) + k) for k in range(grid.count)])
    return np.array([grid.start * grid.ratio**k for k in range(grid.count)])


def _scan_checks(report, xs, want, rtol: float) -> list[Check]:
    return [
        Check("rows", report.xs, xs, _rel(xs, 1e-12)),
        Check("suprema", report.suprema, want, _rel(want, rtol)),
    ]


def _uct_scan_sup(xs, u_lo: float, u_hi: float):
    """Closed-form supremum of x*u*exp(-x*u) over u in [u_lo, u_hi]: t e^-t
    at t = clip(1/x, u_lo, u_hi) x.  Rows whose peak falls strictly inside the
    window (where a grid scan can only approach it) or that underflow are
    left out."""
    t = np.clip(1.0 / xs, u_lo, u_hi) * xs
    want = t * np.exp(-t)
    keep = ((1.0 / xs <= u_lo) | (1.0 / xs >= u_hi)) & (want > 1e-290)
    return keep, want


def _check_uct_scan(op: Op, res) -> list[Check]:
    xs = _grid_xs(op.args["grid"])
    keep, want = _uct_scan_sup(xs, *op.args["window"])
    sup = np.array(res.suprema)
    return [
        Check("rows", res.xs, xs, _rel(xs, 1e-12)),
        Check("suprema", sup[keep], want[keep], _rel(want[keep], 1e-12)),
    ]


def _check_karamata_uct_check(op: Op, res) -> list[Check]:
    # F = ln x: the residual |ln(lam x)/ln x - 1| = ln(lam)/ln x peaks at lam = b
    xs = _grid_xs(op.args["grid"])
    return _scan_checks(res, xs, math.log(op.args["window"][1]) / np.log(xs), 1e-12)


def _check_condition_scan_310(op: Op, res) -> list[Check]:
    # xi = c/ln x: |xi(lam x) - xi(x)| ln x = c ln(lam)/(ln lam + ln x), largest at lam = b
    xs = _grid_xs(op.args["grid"], op.args["integer_mode"])
    lnb = math.log(op.args["window"][1])
    want = op.args["c"] * lnb / (lnb + np.log(xs))
    return _scan_checks(res, xs, want, 1e-10)


def _check_hi_check(op: Op, res) -> list[Check]:
    # |ln(x+u) - ln x| <= |ln(x+u+v) - ln(x+u)| + |ln(x+u+v) - ln x| for u, v >= 0,
    # because ln is increasing: no sample may violate the inequality
    return [
        Check("samples", res.samples, op.args["samples"]),
        Check("violations", len(res.violations), 0),
        Check("ok", res.ok, True),
    ]


def _check_halton_points(op: Op, res, memo: dict) -> list[Check]:
    key = ("halton", op.args["samples"], op.args["skip"])
    if key not in memo:
        from scipy.stats import qmc

        ref = qmc.Halton(d=3, scramble=False)
        ref.fast_forward(op.args["skip"] + 1)
        memo[key] = ref.random(op.args["samples"])
    return [Check("points", res, memo[key])]


# ---------------------------------------------------------------------------
# desk_reports: CLI reports, one oracle per command of the README


def _desk_apply_l(op, flags, results):
    # L(1/(1+ln x)) = ln(1+ln x)/ln x
    return _operator_checks(lambda xs: np.log1p(np.log(xs)), results["points"])


def _desk_invert_l(op, flags, results):
    # L(2 ln x) = ln x: the inverse must evaluate to 2 ln x
    xs = [2.0, 10.0, 1e3, 1e8]
    text = results["inverse"].replace("^", "**")
    got = [eval(text, {"__builtins__": {}}, {"ln": math.log, "x": x}) for x in xs]
    want = [2.0 * math.log(x) for x in xs]
    return [Check("inverse", got, want, _rel(want, 1e-14))]


def _desk_classify_profile(op, flags, results):
    # ln(F(lam x)/F(x))/ln lam = rho + ln(ln(lam x)/ln x)/ln lam for F = x^rho ln x,
    # averaged over lam in {2, 10} at the last point of the 10, 100, ..., 1e8 grid
    x = 10.0 * 10.0**7
    bias = [math.log(math.log(lam * x) / math.log(x)) / math.log(lam) for lam in (2.0, 10.0)]
    want = op.args["rho"] + sum(bias) / 2
    return [Check("rho_hat", results["index"]["rho_hat"], want, 1e-9 * want)]


def _desk_classify_integer(op, flags, results):
    # x^(sin x/ln x) = e^(sin x): its ratios oscillate along the integers
    return [Check("sv verdict", results["sv"]["verdict"], "not_slowly_varying")]


def _desk_classify_claim(op, flags, results):
    # h = 1/(c + ln x) on the 1e4, 1e8, ..., 1e44 grid: h(1e44), and
    # L(h)(1e44) = ln(1 + ln x / c)/ln x within the tolerance request summed
    # over the grid's 11 quadrature segments
    c, x = op.args["c"], 1e4 * 1e4**10
    pres = results["preservation"]
    integral = math.log1p(math.log(x) / c)
    h_want = 1.0 / (c + math.log(x))
    return [
        Check("h final", pres["hypothesis_detail"]["final"], h_want, 1e-12 * h_want),
        Check(
            "L final",
            pres["conclusion_detail"]["final"],
            integral / math.log(x),
            11 * float(_quad_slack(integral)) / math.log(x),
        ),
    ]


def _desk_uct_scan(op, flags, results):
    xs = np.array(results["scan"]["xs"])
    keep, want = _uct_scan_sup(xs, flags["u_lo"], 1.0)
    sup = np.array(results["scan"]["suprema"])
    return [Check("suprema", sup[keep], want[keep], _rel(want[keep], 1e-12))]


def _desk_uct_karamata(op, flags, results):
    xs = np.array(results["scan"]["xs"])
    want = math.log(flags["lambda_hi"]) / np.log(xs)
    return [Check("suprema", results["scan"]["suprema"], want, _rel(want, 1e-12))]


def _desk_uct_guct(op, flags, results):
    hi = results["diagnosis"]["hi"]
    return [Check("hi violations", len(hi["violations"]), 0), Check("hi ok", hi["ok"], True)]


def _desk_uct_mult_closure(op, flags, results):
    # (ln ln(lam x) - ln ln x) ln x, and the identity flag
    closure = results["closure"]
    xs = np.array(closure["xs"])
    lnx = np.log(xs)
    want = (np.log(np.log(flags["lam"] * xs)) - np.log(lnx)) * lnx
    return [
        Check("identity_ok", closure["identity_ok"], True),
        Check("step_lam", closure["step_lam"], want, _rel(want, 1e-10)),
    ]


def _desk_uct_asym(op, flags, results):
    # constant h = c: residual (ln lam)^2 c / (ln lam + ln x)
    rows = results["asym"]["rows"]
    lnl = math.log(flags["lam"])
    want = np.array([lnl * lnl * op.args["c"] / (lnl + math.log(r["x"])) for r in rows])
    return [Check("residual", [r["residual"] for r in rows], want, _rel(want, 1e-9))]


def _desk_uct_expand_interval(op, flags, results):
    # ((a/b)^n, (b/a)^n) against exact rationals, to n+1 roundings
    a, b, n = Fraction(flags["a"]), Fraction(flags["b"]), flags["n"]
    lo, hi = float((a / b) ** n), float((b / a) ** n)
    interval = results["interval"]
    return [
        Check("lo", interval["lo"], lo, (n + 1) * math.ulp(lo)),
        Check("hi", interval["hi"], hi, (n + 1) * math.ulp(hi)),
    ]


_DESK_CHECKS = {
    "apply-l.grid": _desk_apply_l,
    "invert-l": _desk_invert_l,
    "classify.profile": _desk_classify_profile,
    "classify.integer": _desk_classify_integer,
    "classify.claim": _desk_classify_claim,
    "uct.scan": _desk_uct_scan,
    "uct.karamata": _desk_uct_karamata,
    "uct.guct": _desk_uct_guct,
    "uct.mult-closure": _desk_uct_mult_closure,
    "uct.asym": _desk_uct_asym,
    "uct.expand-interval": _desk_uct_expand_interval,
}


def _check_cli(op: Op, run, memo: dict) -> list[Check]:
    checks = [Check("exit code", run.code, 0), Check("stderr", run.stderr, "")]
    if run.code != 0:
        return checks
    report = json.loads(run.stdout)
    checks.append(Check("report keys", ",".join(sorted(report)), REPORT_KEYS))
    # two runs of one command give byte-identical JSON apart from timing_ms
    report.pop("timing_ms", None)
    canonical = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    first = memo.setdefault(("json", op.label), canonical)
    checks.append(Check("identical to first run", canonical, first))
    stem = op.label.rsplit(".", 1)[0]
    return checks + _DESK_CHECKS[stem](op, op.args["flags"], report["results"])


_CHECKS = {
    "apply_L_detailed": _check_apply_L_detailed,
    "apply_L_points": _check_apply_L_points,
    "uct_scan": _check_uct_scan,
    "karamata_uct_check": _check_karamata_uct_check,
    "condition_scan_310": _check_condition_scan_310,
    "hi_check": _check_hi_check,
}


def checks_for(op: Op, result, memo: dict) -> list[Check]:
    """Every check of one operation's result.  ``memo`` carries state across
    rounds: the first JSON of each command and the scipy Halton points."""
    if op.kind == "cli":
        return _check_cli(op, result, memo)
    if op.kind == "halton_points":
        return _check_halton_points(op, result, memo)
    return _CHECKS[op.kind](op, result)
