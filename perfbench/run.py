"""karamata-kit benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload osc_quad --seed 1 --seconds 20 --trace 0

Workloads: osc_quad, wide_scans, desk_reports (see README.md).  With
``--trace 0`` the run repeats the workload's round of operations for about
``--seconds`` seconds, always finishing the round it started.  Right before
each timed operation it runs the calibration kernel of calib.py; every
operation's output is checked against an independent oracle outside the
timed region.  With ``--trace 1`` it runs one untraced round and one traced
round instead and reports the per-layer metrics of tracing.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment.  The full result, with per-operation medians (and
the spans of a traced run), goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("osc_quad", "wide_scans", "desk_reports")

# fresh-interpreter set-up probes per run, spread over the run
SETUP_PROBES = 7
TRACE_SETUP_PROBES = 3
# desk_reports compares each report with the one of the first round
MIN_ROUNDS = {"osc_quad": 1, "wide_scans": 1, "desk_reports": 2}
# the tail percentile is the highest with this many operations of a round
# beyond it (each round holds at least 40)
TAIL_BEYOND = 10


def _environment(inherited_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "KARAMATA_KIT_THREADS": os.environ.get("KARAMATA_KIT_THREADS"),
        "KARAMATA_KIT_THREADS_inherited": inherited_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def _setup_probe(args, n_ops: int) -> dict:
    """Start a fresh interpreter that imports karamata_kit and builds the
    inputs; return its wall time as seen from here plus what it reports."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=False)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["ops"] != n_ops:
        raise RuntimeError(f"set-up probe built {report['ops']} operations, not {n_ops}")
    return {"wall_s": wall, **report}


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of
    all order statistics, steadier than any single one of them."""
    # numpy loads only after main() has pinned the BLAS threads
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


class _Checker:
    """Runs each operation's oracle checks and collects the failures."""

    def __init__(self, checks_for):
        self.checks_for = checks_for
        self.memo: dict = {}
        self.wrong: list[str] = []

    def __call__(self, op, result) -> None:
        for check in self.checks_for(op, result, self.memo):
            if not check.ok():
                self.wrong.append(f"{op.label}: {check.name}")


def _timed_run(args, ops, warmup, check, calibrate, run_op):
    samples = []  # (op index, op seconds, calibration seconds)
    failures: list[str] = []
    probes: list[dict] = []
    rounds, round_times = 0, []
    # one untimed round at the self-test size lets lazy set-up finish
    for op in warmup:
        run_op(op)
    seconds = args.seconds
    start = perf_counter()
    while True:
        r0 = perf_counter()
        for i, op in enumerate(ops):
            due = len(probes) * seconds / SETUP_PROBES
            if len(probes) < SETUP_PROBES and perf_counter() - start >= due:
                probes.append(_setup_probe(args, len(ops)))
            before = calibrate()
            t0 = perf_counter()
            try:
                result = run_op(op)
            except Exception as exc:  # an operation that fails counts in `failed`
                failures.append(f"{op.label}: {exc!r}")
                continue
            elapsed = perf_counter() - t0
            after = calibrate()
            samples.append((i, elapsed, 0.5 * (before + after)))
            check(op, result)
        rounds += 1
        round_times.append(perf_counter() - r0)
        spent = perf_counter() - start
        if rounds >= MIN_ROUNDS[args.workload] and spent + statistics.mean(round_times) > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(_setup_probe(args, len(ops)))

    times = [t for _, t, _ in samples]
    cals = [c for _, _, c in samples]
    ratios = [t / c for _, t, c in samples]
    # a self-test round is shorter than 40 operations; it uses p75
    tail_q = 1.0 - TAIL_BEYOND / max(len(ops), 4 * TAIL_BEYOND)
    metrics = {
        "setup_s": (statistics.median(p["wall_s"] for p in probes), "s"),
        "wall_ref": (sum(times) / sum(cals), "ref"),
        "op_p50_ref": (hd_quantile(ratios, 0.5), "ref"),
        "op_tail_ref": (hd_quantile(ratios, tail_q), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # the raw-time twins repeat only within 10-15 % from run to run (see
    # README.md); they are kept in the result file, not reported
    raw = {
        "wall_s": sum(times) / rounds,
        "op_p50_ms": 1e3 * hd_quantile(times, 0.5),
        "op_tail_ms": 1e3 * hd_quantile(times, tail_q),
    }
    per_op = {}
    for i, op in enumerate(ops):
        mine = [(t, c) for j, t, c in samples if j == i]
        if mine:
            per_op[op.label] = {
                "median_ms": 1e3 * statistics.median(t for t, _ in mine),
                "median_ref": statistics.median(t / c for t, c in mine),
            }
    detail = {
        "raw": raw,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "tail_percentile": 100.0 * tail_q,
        "measured_s": perf_counter() - start,
        "calibration_ms_median": 1e3 * statistics.median(cals) if cals else None,
        "setup_probes": probes,
        "failures": failures,
        "per_op": per_op,
        "samples": samples,
    }
    return metrics, {"attempted": rounds * len(ops), "failed": len(failures), **detail}


def _traced_run(args, ops, check, run_op):
    import tracing

    failures: list[str] = []
    probes = [_setup_probe(args, len(ops)) for _ in range(TRACE_SETUP_PROBES)]

    def one_round(call):
        spent = 0.0
        for op in ops:
            t0 = perf_counter()
            try:
                result = call(op)
            except Exception as exc:  # an operation that fails counts in `failed`
                failures.append(f"{op.label}: {exc!r}")
                continue
            spent += perf_counter() - t0
            check(op, result)
        return spent

    untraced_s = one_round(run_op)
    tracer = tracing.Tracer()
    traced_s = one_round(lambda op: tracing.replay(tracer, op))
    metrics = tracing.layer_metrics(tracer)
    metrics["import.karamata_kit_ms"] = (statistics.median(p["import_ms"] for p in probes), "ms")
    metrics["trace.overhead_ms"] = (1e3 * (traced_s - untraced_s), "ms")
    detail = {
        "untraced_round_s": untraced_s,
        "traced_round_s": traced_s,
        "setup_probes": probes,
        "failures": failures,
        "spans": tracer.dump(),
    }
    return metrics, {"attempted": 2 * len(ops), "failed": len(failures), **detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="the self-test size")
    args = parser.parse_args(argv)

    if not (SRC / "karamata_kit" / "__init__.py").is_file():
        print(f"error: no karamata_kit sources under {SRC}", file=sys.stderr)
        return 2
    # a user's process: the kit's own thread knob unset; one BLAS thread
    inherited_threads = os.environ.pop("KARAMATA_KIT_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import karamata_kit

    if Path(karamata_kit.__file__).resolve().parent != SRC / "karamata_kit":
        print(f"error: imported karamata_kit from {karamata_kit.__file__}", file=sys.stderr)
        return 2
    from calib import calibrate
    from oracles import checks_for
    from workloads import build, run_op

    env = _environment(inherited_threads)
    print(json.dumps({"environment": env}), flush=True)
    ops = build(args.workload, args.seed, tiny=args.tiny)
    check = _Checker(checks_for)
    if args.trace:
        metrics, detail = _traced_run(args, ops, check, run_op)
    else:
        warmup = build(args.workload, args.seed, tiny=True)
        metrics, detail = _timed_run(args, ops, warmup, check, calibrate, run_op)
    result = {
        "correct": not check.wrong,
        "attempted": detail.pop("attempted"),
        "failed": detail.pop("failed"),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    size = "-tiny" if args.tiny else ""
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{size}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({**result, "args": vars(args), "environment": env,
                   "wrong": check.wrong, **detail}, fh, indent=1)
    for line in check.wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
