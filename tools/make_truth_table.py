"""Write the truth table of ``int_1^x h(t)/t dt`` for the expression corpus.

    python3 tools/make_truth_table.py [--out tests/truth_table.json]

For each of the 50 entries ``(source, lo, hi)`` of ``tests/expr_corpus.py``
it computes the integral at x = hi and x = 10 * hi with mpmath at 30
significant digits, and writes the values as decimal strings, together with
the mpmath version, to ``tests/truth_table.json`` (about 25 s on one core).

Each integral is mpmath's tanh-sinh rule on [1, x] cut into n equal pieces,
with n doubled from 8 until two successive values agree to 1e-24 relative;
the table keeps that last difference as ``spread``.  Constants enter as the
floats the parser made, so ``pi`` is the double nearest to pi, as in the
library.  ``abs(x - 3) + 1`` is also cut at its kink t = 3: without that cut
mpmath is off by about 2e-6 at x = 10.  Its closed form, and that of
``ln(x)``, are checked against the table as it is built.

The rows of ``ln(ln(x))`` and ``ln((x+1)/(x-1))`` keep a ``library`` note:
``integrate_log`` does not converge on them.  Both have a log singularity at
t = 1, and ``exp(u)`` rounds the smallest nodes to within an ulp of 1, so the
panels there never pass and the evaluation budget runs out (or a node where
``exp(u)`` is 1.0 raises ``DomainError``, as at x = 20 for the second).
Their integrals exist and are in the table all the same.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from expr_corpus import CORPUS  # noqa: E402
from karamata_kit.exprlang import Bin, Call, Const, Neg, Var, parse  # noqa: E402

DPS = 30
# points inside [1, 10 * hi] where an entry's integrand has a kink
KINKS = {"abs(x - 3) + 1": (3,)}
# the entries integrate_log does not converge on, and why
LIBRARY_NOTES = dict.fromkeys(
    ("ln(ln(x))", "ln((x+1)/(x-1))"),
    "not converged: a log singularity at t = 1, where exp(u) rounds to within an ulp of 1",
)
_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": mpmath.power,
}
_CALLS = {"ln": mpmath.log, "exp": mpmath.exp, "sin": mpmath.sin, "cos": mpmath.cos,
          "sqrt": mpmath.sqrt, "abs": abs, "pow": mpmath.power}


def mp_eval(expr, t):
    """The value of ``expr`` at ``x = t`` in mpmath arithmetic."""
    if isinstance(expr, Const):
        return mpmath.mpf(expr.value)
    if isinstance(expr, Var):
        return t
    if isinstance(expr, Neg):
        return -mp_eval(expr.arg, t)
    if isinstance(expr, Bin):
        return _BINARY[expr.op](mp_eval(expr.lhs, t), mp_eval(expr.rhs, t))
    if isinstance(expr, Call):
        return _CALLS[expr.func](*(mp_eval(arg, t) for arg in expr.args))
    raise TypeError(f"not an expression node: {expr!r}")


def integral(source: str, x: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """``(int_1^x h(t)/t dt, spread)`` at ``DPS`` digits: the value on the
    finest cut, and its difference from the value on half as many pieces."""
    h = parse(source)
    with mpmath.workdps(DPS + 10):
        def f(t):
            return mp_eval(h, t) / t

        kinks = [mpmath.mpf(k) for k in KINKS.get(source, ()) if 1 < k < x]
        previous, n = None, 8
        while True:
            cuts = sorted({*mpmath.linspace(1, x, n + 1), *kinks})
            value = mpmath.quad(f, cuts, method="tanh-sinh")
            if previous is not None:
                spread = abs(value - previous)
                if spread <= mpmath.mpf("1e-24") * max(1, abs(value)):
                    return +value, spread
            if n > 4096:
                raise RuntimeError(f"{source} at x = {x!r} does not settle")
            previous, n = value, 2 * n


def _closed_forms(x: float) -> dict:
    """Closed forms of two entries, at ``DPS + 10`` digits."""
    x = mpmath.mpf(x)
    return {
        "ln(x)": mpmath.log(x) ** 2 / 2,
        "abs(x - 3) + 1": 4 * mpmath.log(3) - 2 + (x - 3) - 2 * mpmath.log(x / 3),
    }


def build() -> dict:
    entries = []
    for source, _, hi in CORPUS:
        for x in (hi, 10.0 * hi):
            value, spread = integral(source, x)
            with mpmath.workdps(DPS + 10):
                exact = _closed_forms(x).get(source)
                if exact is not None and abs(value - exact) > mpmath.mpf("1e-25") * abs(exact):
                    raise RuntimeError(f"{source} at x = {x!r}: {value} != {exact}")
            entry = {
                "expr": source,
                "x": repr(x),
                "value": mpmath.nstr(value, DPS),
                "spread": mpmath.nstr(spread, 3),
            }
            if source in LIBRARY_NOTES:
                entry["library"] = LIBRARY_NOTES[source]
            entries.append(entry)
    return {
        "what": "int_1^x h(t)/t dt for each entry of tests/expr_corpus.py at x = hi and 10 * hi",
        "made_by": "tools/make_truth_table.py",
        "mpmath": mpmath.__version__,
        "digits": DPS,
        "entries": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "tests" / "truth_table.json",
                        help="where to write the table (default tests/truth_table.json)")
    args = parser.parse_args(argv)
    table = build()
    args.out.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table['entries'])} integrals to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
