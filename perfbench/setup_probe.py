"""Set-up probe: a fresh interpreter that imports karamata_kit and builds one
workload's inputs, then exits at once.

    python3 perfbench/setup_probe.py --workload osc_quad --seed 1

run.py starts it several times per run and times each start from outside
(``setup_s``).  It prints one JSON line: the import time, the input build
time and the number of operations built.
"""

import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    import argparse
    import json
    import os

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import karamata_kit  # noqa: F401

    t1 = perf_counter()
    from workloads import build

    ops = build(args.workload, args.seed, tiny=args.tiny)
    t2 = perf_counter()
    print(json.dumps({"import_ms": 1e3 * (t1 - t0), "build_ms": 1e3 * (t2 - t1), "ops": len(ops)}))
    sys.stdout.flush()
    # skip interpreter teardown: it is not part of set-up
    os._exit(0)
