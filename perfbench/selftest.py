"""Fast self-test of the benchmark harness (about 20 s).

    python3 perfbench/selftest.py

1. Runs run.py on every workload at the tiny self-test size, untimed and
   traced, and requires every operation to pass its oracle checks, none to
   fail, and exactly the metrics BENCHMARK.json names to be reported.
2. Perturbs every checked value by a relative 1e-6 (a zero becomes 1e-6, a
   flag flips, a string gains a character) and requires every check to fail,
   so that no check can pass vacuously.

Exits 0 when all of this holds and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "~"
    import numpy as np

    arr = np.asarray(value, dtype=float)
    out = np.where(arr == 0.0, 1e-6, arr * (1.0 + 1e-6))
    return out if arr.ndim else float(out)


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(spec: dict) -> list[str]:
    problems = []
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            res = _run(workload, trace)
            where = f"{workload} trace={trace}"
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append(f"{where}: correct={res['correct']} failed={res['failed']}")
            if sorted(res["metrics"]) != sorted(names[trace]):
                problems.append(f"{where}: metrics {sorted(res['metrics'])}")
            for name, metric in res["metrics"].items():
                value = metric["value"]
                if not (isinstance(value, (int, float)) and math.isfinite(value)):
                    problems.append(f"{where}: {name} = {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{where}: end-to-end {name} = {value!r}")
            print(f"ran {where}: attempted {res['attempted']}", flush=True)
    return problems


def check_perturbations(workloads) -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from oracles import checks_for
    from workloads import build, run_op

    problems = []
    total = 0
    for workload in workloads:
        memo: dict = {}
        for op in build(workload, 0, tiny=True):
            for check in checks_for(op, run_op(op), memo):
                total += 1
                if not check.ok():
                    problems.append(f"{workload} {op.label}: {check.name} fails unperturbed")
                check.got = perturbed(check.got)
                if check.ok():
                    problems.append(f"{workload} {op.label}: {check.name} passes perturbed")
    print(f"perturbed {total} checks", flush=True)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_perturbations([w["name"] for w in spec["workloads"]])
    problems += check_runs(spec)
    for line in problems:
        print(f"FAIL {line}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
