"""Compare the CLI reports and library results of two karamata-kit source trees.

    python3 tools/compare_reports.py PARENT CHANGE [--seeds 41,42,43] [--command "ARGV" ...]

PARENT and CHANGE are checkouts (or their ``src`` directories).  Every
command is run against both trees and its stdout, stderr and exit code are
compared, with ``timing_ms`` masked.  The commands are:

- the ``karamata-kit ...`` lines of the README's CLI section, each as JSON
  and as CSV (the README is read from CHANGE);
- the ``desk_reports`` benchmark commands for each seed (built by CHANGE's
  ``perfbench/workloads.py``);
- the fixed commands of ``_PATH_COMMANDS`` and ``_file_commands``, which
  reach paths that neither of the above takes.  A comment in the table
  says what each group reaches: the class checks and verdicts of
  ``classify``, the operator next to x = 1, spent budgets (exit 4),
  integrals that overflow, pooled and wide quadrature waves, Halton
  samples, full-size scans as JSON and as CSV, ``--format both``, every
  ``--help``, settings the parser rejects (exit 2), range rules the library
  rejects (exit 3), every message of the expression parser, expressions
  that nest too deeply or just deep enough, the point rule,
  missing required arguments, error and edge paths of the scans, checks
  and classifiers that no other command takes, args files, and ``--out``
  into a missing directory;
- each ``--command``, split like a shell line.

Every JSON report CHANGE prints must also be in canonical form: exactly
what ``json.dumps(json.loads(text), indent=2, sort_keys=True)`` writes, plus
a newline.  That checks CHANGE's renderer without reference to PARENT.

For each seed, both trees also run the library operations of the
``wide_scans`` and ``osc_quad`` rounds (CHANGE's ``workloads.build(name,
seed)``) and compare the ``repr`` of every result by SHA-256: of its
``tolist()`` for an array, of the hex of its floats with its evaluation
count and convergence for an ``OperatorValue`` (one per point of a sweep),
or of the exception it raised.  CHANGE's ``osc_quad`` round also runs
serially (``KARAMATA_KIT_THREADS=1``), and its results must equal those of
the run with the variable unset.

Each tree runs its commands and operations in one fresh interpreter, the
commands through ``karamata_kit.cli.main``, as the benchmark does.  The
script prints one line per command or operation that differs, with a short
diff for a command, and a summary line.  It exits 0 when everything is
identical and every report canonical, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

_TIMING = re.compile(r'"timing_ms": [^,\n]+')

_PATH_COMMANDS = [
    # both ratio classes of classify --claim
    ["classify", "ln(x)", "--claim", "r0"],
    ["classify", "x^0.5*ln(x)", "--claim", "r_alpha:0.5"],
    # every claimed class through the one membership rule: a failed z0
    # hypothesis, a bounded band, a non-positive F (exit 3), a lambda set
    # below and above 1, and a z0 claim that fails only at a tight --value-tol
    ["classify", "ln(x)", "--claim", "z0"],
    ["classify", "2+sin(ln(x))", "--claim", "bounded:1,3"],
    ["classify", "100-x", "--claim", "r0"],
    ["classify", "x^0.5*ln(x)", "--claim", "r_alpha:0.5", "--lambdas", "0.5,2"],
    ["classify", "1/(1+ln(x))", "--claim", "z0", "--value-tol", "0.005"],
    # the continuity value L(h)(1) = h(1), and a point next to 1
    ["apply-l", "exp(-x)", "--x", "1"],
    ["apply-l", "sin(x)/x", "--x", "1.000000001"],
    # uct hi, uct cond310 on both ladders and a bare classify --integer-mode
    ["uct", "hi", "--h", "abs(ln(x+u) - ln(x))", "--samples", "200"],
    ["uct", "cond310", "--xi", "1/ln(x)"],
    ["uct", "cond310", "--xi", "1/ln(x)", "--integer-mode"],
    ["classify", "ln(x)", "--integer-mode"],
    # the sv_test and rv_index verdicts the README commands do not reach: an
    # oscillating witness next to a settled ratio, with a spread that
    # rejects the index and the ratio claim; a ratio claim on an oscillating
    # track; a ratio that settles off 1; both verdicts inconclusive; slowly
    # varying with an inconclusive index
    ["classify", "x^0.5*exp(sin(6.283185307179586*ln(x)/ln(2)))", "--lambdas", "10,2",
     "--claim", "r_alpha:0.5"],
    ["classify", "exp(sin(ln(x)))", "--claim", "r0"],
    ["classify", "exp(ln(x)^0.9)"],
    ["classify", "ln(x)^(1+sin(ln(ln(x))))"],
    ["classify", "2+sin(ln(ln(x)))"],
    # spent budgets: exit 4 with the report written
    ["apply-l", "sin(x)", "--grid-start", "10", "--ratio", "10", "--count", "8",
     "--max-evals", "3000"],
    ["uct", "asym", "--h", "1", "--lambda", "2", "--max-evals", "30"],
    ["classify", "1/(1+ln(x))", "--claim", "z0", "--max-evals", "15"],
    ["classify", "x^0.5", "--claim", "r_alpha:0.5", "--max-evals", "100"],
    # integrals that overflow: exit 3 (the budget keeps an older tree fast)
    ["apply-l", "1.7e308", "--x", "10", "--max-evals", "3000"],
    ["uct", "asym", "--h", "1e308", "--lambda", "2", "--bound", "1.5e308",
     "--max-evals", "3000"],
    # integrals whose panels overflow although the integral does not: exit 0
    ["apply-l", "1e308", "--x", "1.5"],
    ["apply-l", "1e308*sin(x)", "--x", "1000"],
    # an exponent array that holds 0.5 and 2
    ["uct", "scan", "--g", "x^u"],
    # pooled waves of integrands that name x twice, one through the powers
    ["apply-l", "sin(x)*ln(x)", "--x", "1e5"],
    ["apply-l", "sin(x)^2 + x^0.5/x", "--x", "1e5"],
    ["apply-l", "cos(3*x)*ln(x)", "--grid-start", "10", "--ratio", "3.7", "--count", "8"],
    # waves of more than 400,000 panels, and a budget spent inside pooled
    # waves (exit 4)
    ["apply-l", "cos(x)", "--x", "3e6"],
    ["apply-l", "sin(x)", "--x", "1e6", "--max-evals", "2000000"],
    # Halton samples at the cap, whose indices reach every low-digit table's
    # high digits, and the Halton samples of a GUCT diagnosis
    ["uct", "hi", "--h", "abs(ln(x+u) - ln(x))", "--samples", "100000"],
    ["uct", "guct", "--h-expr", "abs(ln(x+u) - ln(x))", "--m-expr", "1", "--samples", "20000"],
    # full-size scans, whose residuals and column verdicts are built on
    # their first read, written as JSON and as CSV
    *([*argv, *fmt] for argv in (
        ["uct", "scan", "--g", "x*u*exp(-x*u)", "--u-lo", "1e-3", "--count", "300",
         "--ratio", "1.02", "--u-count", "257"],
        ["uct", "karamata", "--f", "ln(x)", "--a", "1", "--b", "3", "--count", "300",
         "--ratio", "1.05", "--lambda-count", "257"],
        # an F that reads x twice, which the scan does not compute in lam * x
        ["uct", "karamata", "--f", "x^(x/x + 1) + x^(x/x - 2)", "--a", "1", "--b", "3",
         "--count", "300", "--ratio", "1.05", "--lambda-count", "257"],
        # signed residuals, on both ladders
        *(["uct", "cond310", "--xi", "0.75/ln(x)", "--lambda-lo", "1", "--lambda-hi", "3",
           "--count", "300", "--ratio", "1.05", "--lambda-count", "257", *mode]
          for mode in ([], ["--integer-mode"])),
    ) for fmt in ([], ["--format", "csv"])),
    # JSON then CSV on stdout
    ["uct", "scan", "--g", "x*u*exp(-x*u)", "--u-lo", "1e-3", "--format", "both"],
    ["apply-l", "1/(1+ln(x))", "--grid-start", "10", "--ratio", "10", "--count", "8",
     "--format", "both"],
    # the parser: every help text, and rejections that exit 2 with the usage
    ["--help"],
    ["--version"],
    ["uct", "--help"],
    *([name, "--help"] for name in ("apply-l", "invert-l", "classify")),
    *(["uct", name, "--help"] for name in (
        "scan", "karamata", "guct", "hi", "cond310", "mult-closure", "expand-interval", "asym",
    )),
    ["uct", "scan", "--u-count", "1.5"],
    ["uct", "scan", "--g", "x*u", "--var", "t"],
    ["classify", "ln(x)", "--format", "xml"],
    ["apply-l", "sin(x)", "--y", "1"],
    ["uct"],
    # one flag per rule it is converted by: a finite number, a tolerance,
    # lambda texts, a count with its floor and its cap, a class text and a
    # grid ratio, also in integer mode
    ["apply-l", "sin(x)", "--x", "nan"],
    ["apply-l", "1", "--x", "10", "--abs-tol", "0"],
    ["classify", "x", "--lambdas", "2,nan"],
    ["classify", "x", "--lambdas", "a,b"],
    ["classify", "ln(x)", "--grid-count", "4"],
    ["uct", "scan", "--g", "x*u", "--u-count", "1001"],
    ["classify", "x", "--claim", "r_alpha:q"],
    ["classify", "ln(x)", "--integer-mode", "--ratio", "0.5"],
    # the library's range rules (exit 3): a ratio, a bound, a window start
    # and an ordered window, and a class bound the parser rejects (exit 2)
    ["uct", "asym", "--h", "1", "--lambda", "0.5"],
    ["uct", "asym", "--h", "1", "--lambda", "2", "--bound", "-1"],
    ["uct", "mult-closure", "--f", "ln(x)", "--lambda", "-1", "--mu", "2"],
    ["uct", "expand-interval", "--a", "0", "--b", "2", "--n", "1"],
    ["uct", "expand-interval", "--a", "3", "--b", "2", "--n", "1"],
    ["uct", "karamata", "--f", "ln(x)", "--a", "0", "--b", "2"],
    ["uct", "scan", "--g", "x*u", "--u-lo", "1", "--u-hi", "1"],
    ["classify", "x", "--claim", "bounded:0,inf"],
    # every message of the expression parser (exit 2): an unexpected
    # character after a two-byte space and a two-byte one, a missing ')', a
    # missing value, trailing input, an unknown function, a wrong arity, a
    # function with no argument list, an out-of-range literal, an empty text
    ["invert-l", "x\xa0# 1"],
    ["apply-l", "2 + α?", "--x", "10"],
    ["invert-l", "ln(x"],
    ["apply-l", "2+*3", "--x", "10"],
    ["invert-l", "1 2"],
    ["invert-l", "foo(x)"],
    ["invert-l", "pow(x)"],
    ["classify", "ln"],
    ["uct", "scan", "--g", "x*2e400"],
    ["invert-l", ""],
    # expressions that nest deeper than the recursion limit: exit 2; 400
    # parentheses parse (exit 0) with two parser frames a level
    ["invert-l", "(" * 1200 + "x" + ")" * 1200],
    ["apply-l", "+".join(["x"] * 5000), "--x", "10"],
    ["invert-l", "(" * 400 + "x" + ")" * 400],
    # the operator's point rule (exit 3): a point below 1, and one inside
    # the near-one band below 1
    ["apply-l", "1", "--x", "0.5"],
    ["apply-l", "1", "--x", "0.999999995"],
    # missing required arguments: exit 2 with the usage line
    ["apply-l"],
    ["uct", "mult-closure", "--f", "ln(x)"],
    ["uct", "guct", "--h-expr", "x*u"],
    ["uct", "expand-interval", "--a", "2", "--b", "4"],
    # error and edge paths no other command takes: a pinned geometric grid
    # for classify; a scan row that fails, named by its x (exit 3); a G that
    # returns its own parameters; F not positive on the lambda window, an
    # overflowing residual, tail sum and Halton sample point (exit 3); an m
    # that decreases; a zero-fold and two overflowing interval expansions
    # (exit 3); both bound details of uct asym (exit 0 and 4); an exp that
    # overflows and a non-finite value (exit 3); an unasserted conclusion
    ["classify", "ln(x)", "--grid-count", "9"],
    ["uct", "scan", "--g", "ln(u)"],
    ["uct", "scan", "--g", "u"],
    ["uct", "karamata", "--f", "25-x", "--grid-start", "10", "--ratio", "1.1"],
    ["uct", "cond310", "--xi", "1e307*sin(x)"],
    ["uct", "scan", "--g", "1.5e308*sin(x*u)", "--u-lo", "0.5"],
    ["uct", "hi", "--h", "x", "--u-lo", "1e308", "--u-hi", "1.7e308"],
    ["uct", "guct", "--h-expr", "x*u", "--m-expr", "1/x"],
    ["uct", "expand-interval", "--a", "2", "--b", "4", "--n", "0"],
    ["uct", "expand-interval", "--a", "1", "--b", "1e200", "--n", "2"],
    ["uct", "expand-interval", "--a", "1e-200", "--b", "1e200", "--n", "2"],
    ["uct", "asym", "--h", "2", "--lambda", "2"],
    ["uct", "asym", "--h", "sin(x)", "--lambda", "2"],
    ["classify", "exp(x^0.5)"],
    ["uct", "mult-closure", "--f", "1e300*x", "--lambda", "1e7", "--mu", "2"],
    ["classify", "x^-0.5", "--claim", "r_alpha:-0.5"],
]


def _file_commands(tmp: Path) -> list[list[str]]:
    """Fixed commands that read or write files in ``tmp``: an args file of
    flags ``uct scan`` takes, one of ``--var``, which it does not take, and
    ``--out`` into a missing directory."""
    (tmp / "scan.args").write_text("--grid-count\n12\n--u-lo\n0.5\n")
    (tmp / "var.args").write_text("--var\nt\n")
    return [
        ["uct", "scan", "--g", "x*u*exp(-x*u)", f"@{tmp / 'scan.args'}"],
        ["uct", "scan", "--g", "x*u", f"@{tmp / 'var.args'}"],
        ["invert-l", "ln(x)", "--out", str(tmp / "missing" / "r.json")],
    ]


def _tree(path: str) -> tuple[Path, Path]:
    """The checkout root and the directory that holds ``karamata_kit``."""
    p = Path(path).resolve()
    if (p / "karamata_kit").is_dir():
        return p.parent, p
    if (p / "src" / "karamata_kit").is_dir():
        return p, p / "src"
    raise SystemExit(f"error: no karamata_kit package under {path}")


def _readme_commands(root: Path) -> list[list[str]]:
    text = (root / "README.md").read_text()
    section = text.split("## CLI", 1)[1]
    lines = [ln.strip() for ln in section.splitlines() if ln.strip().startswith("karamata-kit ")]
    argvs = [shlex.split(ln)[1:] for ln in lines]
    return [a for argv in argvs for a in (argv, argv + ["--format", "csv"])]


def _desk_commands(root: Path, src: Path, seeds: list[int]) -> list[list[str]]:
    code = (
        "import json, sys\n"
        "import workloads\n"
        "print(json.dumps([list(op.args['argv']) for s in json.loads(sys.argv[1])\n"
        "                  for op in workloads.build('desk_reports', s)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "perfbench"), str(src)])}
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(seeds)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


# the benchmark rounds whose library results are compared
_ROUNDS = ("wide_scans", "osc_quad")


def _exact(result):
    """What a round result is compared by: an array as its ``tolist()``, an
    ``OperatorValue`` as the hex of its floats with the evaluation count and
    convergence of its quadrature, a list item by item, else the result."""
    import numpy as np
    from karamata_kit import OperatorValue

    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, list):
        return [_exact(item) for item in result]
    if isinstance(result, OperatorValue):
        q = result.quad
        quad = None if q is None else (
            q.value.hex(), q.error_estimate.hex(), q.evaluations, q.converged
        )
        return (result.x.hex(), result.value.hex(), quad)
    return result


def _round_digests(rounds: list[str], seeds: list[int]) -> list[list]:
    """[round, seed, label, SHA-256 of the result's repr] for each operation
    of each of ``rounds`` and seed."""
    import workloads

    digests = []
    for name in rounds:
        for seed in seeds:
            for op in workloads.build(name, seed):
                try:
                    result = _exact(workloads.run_op(op))
                except Exception as exc:  # a raised error is a result too
                    result = exc
                text = repr(result)
                digests.append([name, seed, op.label, hashlib.sha256(text.encode()).hexdigest()])
    return digests


def _worker() -> None:
    """Run the argv lists, rounds and round seeds read from stdin; print
    their results as JSON."""
    from karamata_kit.cli import main

    job = json.load(sys.stdin)
    results = []
    for argv in job["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        results.append([code, _TIMING.sub('"timing_ms": 0', out.getvalue()), err.getvalue()])
    json.dump({"cli": results, "rounds": _round_digests(job["rounds"], job["seeds"])}, sys.stdout)


def _run(
    src: Path, perfbench: Path, argvs: list[list[str]], seeds: list[int],
    rounds=_ROUNDS, threads: str = "",
) -> dict:
    """Run the worker on ``src``, with ``KARAMATA_KIT_THREADS`` set to
    ``threads`` or, when that is empty, unset."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(perfbench)])}
    env.pop("KARAMATA_KIT_THREADS", None)
    if threads:
        env["KARAMATA_KIT_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, __file__, "--worker"],
        input=json.dumps({"argvs": argvs, "rounds": rounds, "seeds": seeds}), env=env,
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: worker for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _canonical(out: str) -> bool:
    """Whether ``out``, a command's stdout that starts with a JSON report (and
    may go on with CSV), starts with the canonical form of that report."""
    try:
        report, _ = json.JSONDecoder().raw_decode(out)
    except ValueError:
        return False
    return out.startswith(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _shown(argv: list[str]) -> str:
    """``argv`` as a shell line, each argument of over 60 characters cut short."""
    return shlex.join(a if len(a) <= 60 else f"{a[:40]}...[{len(a)} chars]" for a in argv)


def _diff(a: str, b: str, what: str) -> list[str]:
    lines = difflib.unified_diff(
        a.splitlines(), b.splitlines(), f"parent {what}", f"change {what}", lineterm="", n=1
    )
    return list(lines)[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", default="41,42,43",
                        help="seeds of the benchmark rounds, comma-separated (default 41,42,43)")
    parser.add_argument("--command", action="append", default=[],
                        help="one more command, e.g. \"apply-l 'sin(x)' --x 10\"")
    args = parser.parse_args(argv)

    _, parent_src = _tree(args.parent)
    change_root, change_src = _tree(args.change)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    argvs = _readme_commands(change_root)
    n_readme = len(argvs)
    argvs += _desk_commands(change_root, change_src, seeds)
    n_desk = len(argvs) - n_readme
    perfbench = change_root / "perfbench"
    with tempfile.TemporaryDirectory() as tmp:
        fixed = _PATH_COMMANDS + _file_commands(Path(tmp))
        argvs += fixed + [shlex.split(c) for c in args.command]
        parent = _run(parent_src, perfbench, argvs, seeds)
        change = _run(change_src, perfbench, argvs, seeds)
    serial = _run(change_src, perfbench, [], seeds, ["osc_quad"], threads="1")["rounds"]
    differ = 0
    for argv, (pc, po, pe), (cc, co, ce) in zip(argvs, parent["cli"], change["cli"]):
        if (pc, po, pe) == (cc, co, ce):
            continue
        differ += 1
        print(f"DIFF karamata-kit {_shown(argv)}")
        if pc != cc:
            print(f"  exit code: parent {pc}, change {cc}")
        for lines in (_diff(po, co, "stdout"), _diff(pe, ce, "stderr")):
            if lines:
                print("\n".join("  " + ln for ln in lines))
    reports = [(argv, out) for argv, (_, out, _) in zip(argvs, change["cli"]) if out.startswith("{")]
    not_canonical = 0
    for argv, out in reports:
        if not _canonical(out):
            not_canonical += 1
            print(f"NOT CANONICAL karamata-kit {_shown(argv)}")
    round_differ = dict.fromkeys(_ROUNDS, 0)
    for (name, seed, label, pd), (*_, cd) in zip(parent["rounds"], change["rounds"]):
        if pd != cd:
            round_differ[name] += 1
            print(f"DIFF {name} seed {seed} {label}: repr differs")
    print(
        f"{len(argvs) - differ} of {len(argvs)} commands identical apart from "
        f"timing_ms ({n_readme} README, {n_desk} desk_reports for seeds {args.seeds}, "
        f"{len(fixed)} fixed, {len(args.command)} extra); {differ} differ"
    )
    for name in _ROUNDS:
        n_round = sum(1 for d in change["rounds"] if d[0] == name)
        print(
            f"{n_round - round_differ[name]} of {n_round} {name} results equal by repr "
            f"(seeds {args.seeds}); {round_differ[name]} differ"
        )
    pooled = [d for d in change["rounds"] if d[0] == "osc_quad"]
    thread_differ = 0
    for (_, seed, label, sd), (*_, pd) in zip(serial, pooled):
        if sd != pd:
            thread_differ += 1
            print(f"DIFF osc_quad seed {seed} {label}: KARAMATA_KIT_THREADS=1 differs from unset")
    print(
        f"{len(pooled) - thread_differ} of {len(pooled)} osc_quad results of CHANGE equal "
        f"with KARAMATA_KIT_THREADS=1 and unset; {thread_differ} differ"
    )
    print(
        f"{len(reports) - not_canonical} of {len(reports)} JSON reports of CHANGE in "
        f"canonical form; {not_canonical} not"
    )
    same = differ == 0 and not any(round_differ.values()) and thread_differ == 0
    return 0 if same and not_canonical == 0 else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        _worker()
    else:
        sys.exit(main())
