"""Command line behavior: exit codes, report shape, determinism, config."""

import argparse
import ast
import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import karamata_kit
from karamata_kit import cli, config, quad
from karamata_kit.asymptotics import DEFAULT_LAMBDAS
from karamata_kit.cli import main

REPORT_KEYS = ["command", "config", "inputs", "results", "timing_ms", "verdicts", "version"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def usage_error(command, message):
    """The stderr of a ``command`` line its parser rejects: the command's
    usage, then ``message`` after the command's name."""
    parser = _leaf_parsers(cli._parser())[command]
    return f"{parser.format_usage()}{parser.prog}: error: {message}\n"


# ---------------------------------------------------------------------------
# exit codes

def test_apply_l_succeeds(capsys):
    code, out, _ = run_cli(capsys, ["apply-l", "5", "--x", "100"])
    assert code == 0
    report = json.loads(out)
    (point,) = report["results"]["points"]
    assert point["x"] == 100.0
    assert point["value"] == pytest.approx(5.0, abs=1e-12)
    assert point["quad"]["converged"] is True


def test_syntax_error_exits_2(capsys):
    code, _, err = run_cli(capsys, ["apply-l", "2+*3", "--x", "100"])
    assert code == 2
    assert "error" in err


def test_config_error_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["classify", "ln(x)", "--grid-count", "4"])
    assert code == 2


def test_bad_threads_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "many")
    code, _, _ = run_cli(capsys, ["apply-l", "5", "--x", "100"])
    assert code == 2


def test_domain_error_exits_3(capsys):
    code, _, err = run_cli(capsys, ["apply-l", "ln(x)", "--x", "0.5"])
    assert code == 3
    assert "error" in err


def test_domain_error_at_the_continuity_point_exits_3(capsys):
    # L(h)(1) = h(1) is evaluated by eval_array, with its message
    code, out, err = run_cli(capsys, ["apply-l", "ln(x-2)", "--x", "1"])
    assert code == 3
    assert out == ""
    assert err == "error: ln of non-positive value in 'ln(x - 2.0)'\n"


def test_nonpositive_classify_input_exits_3(capsys):
    code, _, _ = run_cli(capsys, ["classify", "10 - x"])
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["apply-l", "sin(x)", "--x", "1000000", "--max-evals", "3000"],
        # with a spent budget the final L(h) is 0.0229 where it is 0.0457
        ["classify", "1/(1+ln(x))", "--claim", "z0", "--max-evals", "15"],
        ["classify", "x^0.5", "--claim", "r_alpha:0.5", "--max-evals", "100"],
        ["uct", "asym", "--h", "1", "--lambda", "2", "--max-evals", "30"],
    ],
    ids=["apply-l", "classify-z0", "classify-r_alpha", "uct-asym"],
)
def test_budget_exhaustion_exits_4_with_report(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == 4
    report = json.loads(out)  # report still written
    assert report["verdicts"]["budget"] == "exhausted"


@pytest.mark.parametrize(
    "argv",
    [
        ["apply-l", "sin(x)", "--x", "nan"],
        ["apply-l", "sin(x)", "--x", "inf"],
        ["apply-l", "1/(1+ln(x))", "--x", "100", "--abs-tol", "nan"],
        ["apply-l", "1/(1+ln(x))", "--x", "100", "--rel-tol", "inf"],
        ["uct", "karamata", "--f", "ln(x)", "--a", "1", "--b", "nan"],
    ],
)
def test_non_finite_number_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_non_finite_config_value_exits_2(capsys, tmp_path):
    args = tmp_path / "run.args"
    args.write_text("--x\ninf\n")
    code, _, err = run_cli(capsys, ["apply-l", "sin(x)", f"@{args}"])
    assert code == 2
    assert err == usage_error("apply-l", "argument --x: x must be finite, got inf")


@pytest.mark.parametrize("lambdas", ["inf", "2,nan", "-inf,10"])
def test_non_finite_lambdas_exit_2_without_warnings(capsys, lambdas):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        code, out, err = run_cli(capsys, ["classify", "x", f"--lambdas={lambdas}"])
    assert code == 2
    assert out == ""
    bad = next(tok for tok in lambdas.split(",") if tok not in ("2", "10"))
    assert err == usage_error("classify", f"argument --lambdas: lambda must be finite, got {bad}")


@pytest.mark.parametrize(
    "lambdas, message",
    [("a,b", "cannot parse 'a,b' as comma-separated floats"),
     (",", "need at least one lambda")],
)
def test_unparsable_lambdas_exit_2(capsys, lambdas, message):
    code, out, err = run_cli(capsys, ["classify", "x", f"--lambdas={lambdas}"])
    assert code == 2
    assert out == ""
    assert err == usage_error("classify", f"argument --lambdas: {message}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["uct", "asym", "--h", "1", "--lambda", "0.5"], "lam must be > 1, got 0.5"),
        (["uct", "asym", "--h", "1", "--lambda", "2", "--bound", "-1"],
         "bound must be > 0, got -1.0"),
        (["uct", "mult-closure", "--f", "ln(x)", "--lambda", "-1", "--mu", "2"],
         "lam must be > 0, got -1.0"),
        (["uct", "expand-interval", "--a", "0", "--b", "2", "--n", "1"],
         "a must be > 0, got 0.0"),
        (["uct", "expand-interval", "--a", "3", "--b", "2", "--n", "1"],
         "[a, b] needs a < b, got [3.0, 2.0]"),
        (["uct", "karamata", "--f", "ln(x)", "--a", "0", "--b", "2"],
         "lambda interval start must be > 0, got 0.0"),
        (["uct", "scan", "--g", "x*u", "--u-lo", "1", "--u-hi", "1"],
         "u interval needs a < b, got [1.0, 1.0]"),
    ],
    ids=["asym-lambda", "asym-bound", "closure-lambda", "expand-a", "expand-order",
         "karamata-window", "scan-window"],
)
def test_a_value_outside_its_range_exits_3(capsys, argv, message):
    # each flag is finite, so the parser passes it; the library's range rule rejects it
    assert run_cli(capsys, argv) == (3, "", f"error: {message}\n")


def test_a_lambda_of_1_exits_3(capsys):
    # parses and is finite, so the flag passes; the ratio tests reject it
    code, out, err = run_cli(capsys, ["classify", "x", "--lambdas", "2,1"])
    assert (code, out) == (3, "")
    assert err == "error: lambda must be positive and != 1, got 1.0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["uct", "scan", "--u-count", "1.5"], "argument --u-count: invalid int value: '1.5'"),
        (["apply-l", "1", "--x", "ten"], "argument --x: invalid float value: 'ten'"),
        (["classify", "x", "--integer-mode", "--ratio", "0.5"],
         "argument --grid-ratio/--ratio: grid_ratio must be > 1, got 0.5"),
        (["apply-l", "1", "--x", "10", "--abs-tol", "0"],
         "argument --abs-tol: abs_tol must be > 0, got 0.0"),
        (["classify", "x", "--grid-count", "4"],
         "argument --grid-count/--count: grid_count must be at least 8, got 4"),
        (["apply-l", "1", "--x", "10", "--max-evals", "14"],
         "argument --max-evals: max_evals must be at least 15, got 14"),
        (["apply-l", "1", "--x", "10", "--max-evals", str(2**63)],
         f"argument --max-evals: max_evals must be at most {2**63 - 1:,}, got {2**63}"),
    ],
    ids=["int", "float", "ratio-in-integer-mode", "tolerance", "count", "budget",
         "budget-ceiling"],
)
def test_a_flag_is_checked_where_it_is_converted(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == usage_error(" ".join(argv[:2] if argv[0] == "uct" else argv[:1]), message)


@pytest.mark.parametrize(
    "argv",
    [
        ["invert-l", "(" * 1200 + "x" + ")" * 1200],
        ["apply-l", "+".join(["x"] * 5000), "--x", "10"],
    ],
    ids=["nested-parentheses", "long-sum"],
)
def test_too_deep_expression_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: the expression nests too deeply\n"


def test_an_expression_nested_400_deep_parses(capsys):
    # the parser takes two frames a level, so invert-l follows about 490
    # parentheses under the default recursion limit; 400 leave room for the
    # test runner's frames
    text = "(" * 400 + "x" + ")" * 400
    report = run_json(capsys, ["invert-l", text])
    assert report["inputs"]["canonical"] == "x"
    assert report["results"]["inverse"] == "x + (x * ln(x))"


@pytest.mark.parametrize(
    "argv",
    [
        ["uct", "expand-interval", "--a", "1", "--b", "2", "--n", "2000"],
        ["classify", "ln(x)", "--ratio", "1e300"],
        ["apply-l", "ln(x)", "--grid-start", "1e300", "--ratio", "1e10", "--count", "8"],
        ["uct", "hi", "--h", "abs(ln(x+u)-ln(x))", "--grid-start", "1e307", "--ratio", "1.5",
         "--count", "8", "--u-hi", "1e308"],
        ["uct", "karamata", "--f", "ln(x)", "--a", "1", "--b", "1e308"],
        ["uct", "cond310", "--xi", "1/ln(x)", "--lambda-lo", "1", "--lambda-hi", "1e308"],
        ["uct", "mult-closure", "--f", "ln(x)", "--lambda", "1e300", "--mu", "1e300"],
        ["uct", "asym", "--h", "1", "--lambda", "1e308"],
        # hi_check's H(x+u, v) + H(x, u+v), then H(x, u) minus that sum
        ["uct", "hi", "--h", "1.5e308 + 0*x"],
        ["uct", "hi", "--h", "8e307*cos(3*u)", "--u-lo", "0", "--u-hi", "0.1",
         "--v-lo", "1", "--v-hi", "1.05"],
        # the tail sum of a scan column, in limit classification
        ["uct", "scan", "--g", "1.5e308*sin(x*u)", "--u-lo", "0.5"],
        # the scan residuals F(lam x)/F(x) and (xi(lam x) - xi(x)) * ln x
        ["uct", "karamata", "--f", "x^(-100)", "--a", "1e-4", "--b", "1"],
        ["uct", "cond310", "--xi", "1e300*x", "--grid-start", "2"],
        # the slow-variation ratio F(lam x)/F(x) of finite values
        ["classify", "x^(-40)", "--lambdas", "1e-10", "--grid-start", "1000", "--ratio", "1.01",
         "--count", "8"],
        # the closure residuals (f(lam x) - f(x)) * ln x of finite values;
        # with lambda < 1 < mu its two steps overflow with opposite signs
        ["uct", "mult-closure", "--f", "1e300*x", "--lambda", "1", "--mu", "0.5"],
        ["uct", "mult-closure", "--f", "1e300*x", "--lambda", "0.5", "--mu", "2"],
        # the width u_hi - u_lo of a scan's parameter window
        ["uct", "scan", "--g", "x*u", "--u-lo=-1.5e308", "--u-hi", "1.5e308"],
        # an integral whose value overflows, on one segment or summed over a sweep
        ["apply-l", "1.7e308", "--x", "10", "--max-evals", "3000"],
        ["uct", "asym", "--h", "1e308", "--lambda", "2", "--bound", "1.5e308",
         "--max-evals", "3000"],
        ["apply-l", "5e307", "--grid-start", "10", "--ratio", "10", "--count", "8"],
    ],
)
def test_overflow_exits_3_with_one_error_line(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and "overflow" in err


# L(h)(x) in closed form; Si(1000) and Si(1) were frozen from scipy.special.sici
_SI_1000_MINUS_SI_1 = 1.5702331219687713 - 0.9460830703671831


@pytest.mark.parametrize(
    "h, x, want",
    [
        ("1e308", "1.5", 1e308),
        ("1e308*sin(x)", "1000", 1e308 * _SI_1000_MINUS_SI_1 / math.log(1000.0)),
    ],
)
def test_huge_integrand_with_a_finite_integral_exits_0(capsys, h, x, want):
    # every panel's weighted sum of |h| passes the float range; the integral
    # and L(h)(x) do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        report = run_json(capsys, ["apply-l", h, "--x", x])
    (point,) = report["results"]["points"]
    assert point["value"] == pytest.approx(want, rel=1e-9)
    assert point["quad"]["converged"] is True


def test_integer_grid_rounding_to_one_exits_3_with_one_error_line(capsys):
    argv = ["classify", "x^2", "--integer-mode", "--grid-start", "1.4", "--profile"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == "error: integer grid start must round to an integer > 1, got 1.4\n"


def test_underflowing_ratio_exits_3_with_one_error_line(capsys):
    argv = ["classify", "exp(700*cos(ln(x)))", "--lambdas=1e-10", "--integer-mode"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == "error: F(lam x)/F(x) underflows to 0 at lam = 1e-10, x = 1000.0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["apply-l", "x*1e300", "--x", "1e10"],
        ["classify", "x*1e300"],
        ["uct", "scan", "--g", "x*u", "--u-lo", "1", "--u-hi", "1e308"],
        # the last of the parameters spaced over [0, u_hi] overflows on its
        # way, before linspace puts u_hi there
        ["uct", "scan", "--g", "x*u", "--u-lo", "0", "--u-hi", "1.7976931348623157e308",
         "--u-count", "10"],
    ],
)
def test_non_finite_expression_value_exits_3(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: non-finite value in 'x * ")


# hostile numbers: nan, the infinities, zeros, subnormals, out of range
_FUZZ_NUMBER = st.one_of(
    st.floats(),  # nan and the infinities included
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0 + 2**-52, 1e300, 1.5e308, -1.5e308]),
)
# each flag: (its valid range, its hostile values); small counts keep every
# example fast, and those past the caps exit 2 unbuilt
_FUZZ_COUNT = (st.integers(9, 40), st.sampled_from([-3, 0, 7, 8, 1_001, 10**12]))
_FUZZ_TOL = (st.floats(1e-12, 0.5), _FUZZ_NUMBER)
_FUZZ_GRID = {
    "--grid-start": (st.floats(1.5, 1e4), _FUZZ_NUMBER),
    "--ratio": (st.floats(1.05, 20.0), _FUZZ_NUMBER),
    "--count": _FUZZ_COUNT,
    "--integer-mode": (st.booleans(), None),
}
_FUZZ_CLASSIFY = {**_FUZZ_GRID, "--classify-tol": _FUZZ_TOL}
_FUZZ_COMMON = {**_FUZZ_CLASSIFY, "--value-tol": _FUZZ_TOL}
_FUZZ_SAMPLES = (st.integers(1, 2_000), st.sampled_from([-1, 0, 100_001, 10**12]))


def _lambda_list(entry):
    return st.lists(entry, min_size=1, max_size=3).map(lambda lams: ",".join(map(repr, lams)))


# lambda lists for classify: each entry finite or not, tiny or huge
_FUZZ_LAMBDAS = (
    _lambda_list(st.one_of(st.floats(0.01, 100.0),
                           st.sampled_from([1e-10, 1e-8, 0.5, 2.0, 10.0, 1e10]))),
    _lambda_list(st.one_of(st.sampled_from([1e-300, 1e-10, 1e300]), _FUZZ_NUMBER)),
)
_FUZZ_LO = (st.floats(0.1, 2.0), _FUZZ_NUMBER)
_FUZZ_HI = (st.floats(1.0, 20.0), _FUZZ_NUMBER)
# quadrature requests; x <= 1e5 keeps a converging example within the deadline
_FUZZ_QUAD_TOL = (st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 1.0]),
                  st.sampled_from([0.0, -0.0, -1e-10, math.nan, math.inf, -math.inf]))
_FUZZ_QUAD = {
    "--abs-tol": _FUZZ_QUAD_TOL,
    "--rel-tol": _FUZZ_QUAD_TOL,
    "--max-evals": (st.integers(15, 2_000_000), st.sampled_from([-1, 0, 14])),
}
# an apply-l sweep of sin(x) ends below 10 * 3**8 = 65,610 unless a hostile
# value stops it; in integer mode the ratio is unused and the sweep is short
_FUZZ_SWEEP = {
    "--grid-start": (st.floats(1.5, 10.0),
                     st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -3.0, 1.0,
                                      1.0 + 2**-52])),
    "--ratio": (st.floats(1.05, 3.0),
                st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -2.0, 0.5, 1.0,
                                 1.0 + 2**-52, 1e300])),
    "--count": (st.integers(8, 9), st.sampled_from([-3, 0, 7, 1_001, 10**12])),
}
_APPLY_L_EXPRS = ["sin(x)", "1/(1+ln(x))", "x^0.5", "exp(sin(x))", "x*1e300", "ln(x-2)"]
# each command: its argv up to the expression, the expressions (none for a
# command that takes no expression), the flags it always takes, the flags it
# may take
_FUZZ_COMMANDS = {
    "apply-l": (["apply-l"], _APPLY_L_EXPRS,
                {"--x": (st.floats(1.0, 1e5),
                         st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 0.0, -3.0]))},
                _FUZZ_QUAD),
    "apply-l-sweep": (["apply-l"], _APPLY_L_EXPRS, _FUZZ_SWEEP,
                      {"--integer-mode": (st.booleans(), None), **_FUZZ_QUAD}),
    "invert-l": (["invert-l"], ["ln(x)", "x^2", "1/(1+ln(x))", "sin(x)", "exp(x)", "x*1e300",
                                "ln(ln(x))", "5", "x^x"], {},
                 {"--var": (st.just("x"), st.sampled_from(["t", "u"]))}),
    "guct": (["uct", "guct", "--h-expr"], ["abs(ln(x+u) - ln(x))", "u/x", "exp(-x*u)",
                                           "1e300*u"],
             {"--m-expr": (st.sampled_from(["1", "ln(x)", "x^0.5"]),
                           st.sampled_from(["-x", "sin(x)", "1e300*x", "ln(x-2)"]))},
             {"--u-lo": (st.floats(0.0, 2.0), _FUZZ_NUMBER),
              "--u-hi": (st.floats(0.5, 10.0), _FUZZ_NUMBER),
              "--u-count": _FUZZ_COUNT, "--samples": _FUZZ_SAMPLES, **_FUZZ_COMMON}),
    "hi": (["uct", "hi", "--h"], ["abs(ln(x+u) - ln(x))", "exp(-u)", "x + u",
                                  "1.5e308 + 0*x", "8e307*cos(3*u)"], {},
           {"--u-lo": (st.floats(0.0, 2.0), _FUZZ_NUMBER),
            "--u-hi": (st.floats(0.5, 10.0), _FUZZ_NUMBER),
            "--v-lo": (st.floats(0.0, 2.0), _FUZZ_NUMBER),
            "--v-hi": (st.floats(0.5, 10.0), _FUZZ_NUMBER),
            "--samples": _FUZZ_SAMPLES, **_FUZZ_GRID}),
    "mult-closure": (["uct", "mult-closure", "--f"], ["ln(ln(x))", "ln(x)", "x^0.5", "sin(x)",
                                                      "1e300*x"],
                     {"--lambda": (st.floats(0.1, 20.0), _FUZZ_NUMBER),
                      "--mu": (st.floats(0.1, 20.0), _FUZZ_NUMBER)},
                     _FUZZ_CLASSIFY),
    # integrands smooth in ln x: their quadrature costs little at any grid
    "asym": (["uct", "asym", "--h"], ["1", "2 + sin(ln(x))", "1/(1+ln(x))", "exp(-x)",
                                      "x^0.5", "ln(x-2)"],
             {"--lambda": (st.floats(1.01, 10.0), _FUZZ_NUMBER)},
             {"--bound": (st.floats(0.5, 10.0), _FUZZ_NUMBER), **_FUZZ_QUAD, **_FUZZ_CLASSIFY}),
    "expand-interval": (["uct", "expand-interval"], [],
                        {"--a": _FUZZ_LO, "--b": _FUZZ_HI,
                         "--n": (st.integers(0, 50),
                                 st.sampled_from([-3, 1_075, 2_000, 10**12]))},
                        {}),
    "scan": (["uct", "scan", "--g"], ["x*u*exp(-x*u)", "sin(x*u)/ln(x)", "1e300*u/x"], {},
             {"--u-lo": (st.floats(0.0, 2.0), _FUZZ_NUMBER),
              "--u-hi": (st.floats(0.5, 10.0), _FUZZ_NUMBER),
              "--u-count": _FUZZ_COUNT, **_FUZZ_COMMON}),
    "karamata": (["uct", "karamata", "--f"], ["ln(x)", "x^0.5", "exp(sin(x))", "x^(-100)"], {},
                 {"--a": _FUZZ_LO, "--b": _FUZZ_HI, "--lambda-count": _FUZZ_COUNT,
                  **_FUZZ_COMMON}),
    "cond310": (["uct", "cond310", "--xi"], ["1/ln(x)", "sin(x)/ln(x)", "1e300*x"], {},
                {"--lambda-lo": _FUZZ_LO, "--lambda-hi": _FUZZ_HI,
                 "--lambda-count": _FUZZ_COUNT, **_FUZZ_COMMON}),
    # exp(700*cos(ln(x))) stays finite, but its ratios F(lam x)/F(x) need not;
    # first, so that hypothesis's simplest example, with no flags, runs it
    "classify": (["classify"], ["exp(700*cos(ln(x)))", "ln(x)", "x^0.5", "x^(-40)",
                                "exp(sqrt(ln(x)))"], {},
                 {"--lambdas": _FUZZ_LAMBDAS, "--profile": (st.booleans(), None),
                  **_FUZZ_COMMON}),
}


@st.composite
def _fuzzed_argv(draw, command):
    """Flags from their valid ranges, and in about one example of three one
    of them hostile instead: most examples get past validation."""
    prefix, exprs, required, optional = _FUZZ_COMMANDS[command]
    values = draw(st.fixed_dictionaries(
        {name: valid for name, (valid, _) in required.items()},
        optional={name: valid for name, (valid, _) in optional.items()},
    ))
    specs = {**required, **optional}
    hostile = sorted(name for name in values if specs[name][1] is not None)
    if hostile and draw(st.integers(0, 2)) == 0:
        name = draw(st.sampled_from(hostile))
        values[name] = draw(specs[name][1])
    argv = [*prefix, draw(st.sampled_from(exprs))] if exprs else list(prefix)
    for name, value in values.items():
        if isinstance(value, bool):
            argv.append(name if value else "--no-" + name[2:])
        elif isinstance(value, str):
            argv.append(f"{name}={value}")
        else:
            # --flag=value, so that argparse takes "-inf" or "-1e+308" as a value
            argv.append(f"{name}={value!r}")
    return argv


@pytest.mark.parametrize("command", sorted(_FUZZ_COMMANDS))
@settings(max_examples=80, deadline=5000)
@given(data=st.data())
def test_fuzzed_scan_flags_end_in_a_documented_exit_code(command, data):
    argv = data.draw(_fuzzed_argv(command))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err.getvalue()
    if code == 0:
        # a run that ends well reports no non-finite number
        assert not {"nan", "inf", "-inf"} & set(_strings(json.loads(out.getvalue())))


def _strings(obj):
    """Every string value in a JSON document."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _strings(item)
    elif isinstance(obj, str):
        yield obj


def test_points_past_a_spent_budget_report_an_unbounded_error(capsys):
    code, out, _ = run_cli(
        capsys,
        ["apply-l", "sin(x)", "--grid-start", "10", "--ratio", "10", "--count", "8",
         "--max-evals", "3000"],
    )
    assert code == 4
    quads = [p["quad"] for p in json.loads(out)["results"]["points"]]
    # a point whose segment was not integrated adds no evaluations
    skipped = [b for a, b in zip(quads, quads[1:]) if b["evaluations"] == a["evaluations"]]
    assert skipped and quads[-1] in skipped
    assert all(q["error_estimate"] == "inf" for q in skipped)
    integrated = [q for q in quads if q not in skipped]
    assert all(isinstance(q["error_estimate"], float) for q in integrated)


def test_budget_is_hard_across_a_grid_sweep(capsys):
    code, out, _ = run_cli(
        capsys,
        ["apply-l", "sin(x)", "--grid-start", "10", "--ratio", "10", "--count", "8",
         "--max-evals", "3000"],
    )
    assert code == 4
    points = json.loads(out)["results"]["points"]
    assert max(p["quad"]["evaluations"] for p in points) <= 3000


def test_unknown_command_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["frobnicate"])
    assert code == 2


def test_version_flag(capsys):
    code, out, err = run_cli(capsys, ["--version"])
    assert code == 0
    assert "karamata-kit" in out + err


# ---------------------------------------------------------------------------
# the command table

def _leaf_parsers(parser, prefix=""):
    """{command name: its parser} of every command under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            leaves = {}
            for name, sub in action.choices.items():
                leaves.update(_leaf_parsers(sub, f"{prefix}{name} "))
            return leaves
    return {prefix.strip(): parser}


def test_command_flags_and_run_config_fields_agree():
    kinds = config._KINDS
    leaves = _leaf_parsers(cli._parser())
    assert len(leaves) == 11
    settable = set()
    for name, parser in leaves.items():
        assert parser.get_default("command") == name
        actions = [a for a in parser._actions if a.dest != "help"]
        keys = {a.dest for a in actions}
        assert keys <= kinds.keys(), name
        for a in actions:
            kind = kinds.get(a.dest, "str")
            assert isinstance(a, argparse.BooleanOptionalAction) == (kind == "bool"), a.dest
            assert a.type is config.CONVERTERS.get(a.dest), a.dest
        settable |= keys
    assert settable >= kinds.keys()
    # every number converts, and argparse names a bad one by its kind
    numbers = {key for key, kind in kinds.items() if kind in ("int", "float")}
    assert numbers <= config.CONVERTERS.keys()
    for key in numbers:
        assert config.CONVERTERS[key].__name__ == kinds[key], key


class _ReadRecorder:
    """A ``RunConfig`` that records the name of every key read from it."""

    def __init__(self, cfg):
        self._cfg = cfg
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._cfg, name)


# runs that take every branch of each runner that reads a flag
_FLAG_READ_RUNS = {
    "apply-l": [["apply-l", "1", "--x", "10"], ["apply-l", "1"]],
    "invert-l": [["invert-l", "ln(x)"]],
    "classify": [["classify", "ln(x)"],
                 ["classify", "1/(1+ln(x))", "--claim", "z0", "--profile"]],
    "uct scan": [["uct", "scan", "--g", "u/x"]],
    "uct karamata": [["uct", "karamata", "--f", "ln(x)"]],
    "uct guct": [["uct", "guct", "--h-expr", "u/x", "--m-expr", "1", "--samples", "10"]],
    "uct hi": [["uct", "hi", "--h", "exp(-u)", "--samples", "10"]],
    "uct cond310": [["uct", "cond310", "--xi", "1/ln(x)"]],
    "uct mult-closure": [["uct", "mult-closure", "--f", "ln(x)", "--lambda", "2", "--mu", "3"]],
    "uct expand-interval": [["uct", "expand-interval", "--a", "2", "--b", "4", "--n", "3"]],
    "uct asym": [["uct", "asym", "--h", "1", "--lambda", "2"]],
}


def test_every_runner_reads_exactly_its_flags():
    leaves = _leaf_parsers(cli._parser())
    assert sorted(_FLAG_READ_RUNS) == sorted(leaves)
    for name, runs in _FLAG_READ_RUNS.items():
        read = set()
        for argv in runs:
            args = cli._parser().parse_args(argv)
            cfg = _ReadRecorder(config.merge_config(None, vars(args)))
            _, _, _, rows = args.runner(cfg)
            list(rows)
            read |= cfg.read
        flags = {a.dest for a in leaves[name]._actions}
        # main reads out and format; --help is the parser's
        assert read == flags - {"help", "out", "format"}, name


@pytest.mark.parametrize(
    "argv",
    [
        ["uct", "scan", "--g", "x*u", "--var", "t"],
        ["uct", "guct", "--h-expr", "u/x", "--m-expr", "1", "--var", "t"],
        ["uct", "hi", "--h", "exp(-u)", "--var", "t"],
        ["uct", "expand-interval", "--a", "2", "--b", "4", "--n", "3", "--var", "t"],
        ["uct", "mult-closure", "--f", "ln(x)", "--lambda", "2", "--mu", "3",
         "--value-tol", "0.1"],
        ["uct", "asym", "--h", "1", "--lambda", "2", "--value-tol", "0.1"],
    ],
)
def test_a_flag_the_command_does_not_read_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


def test_a_flag_without_a_run_config_field_fails_the_build(monkeypatch):
    runner, help_, expr_help, flags = cli._COMMANDS["invert-l"]
    monkeypatch.setitem(cli._COMMANDS, "invert-l", (runner, help_, expr_help, (*flags, "lamda")))
    with pytest.raises(KeyError, match="lamda"):
        cli._parser.__wrapped__()


def _cli_env():
    """The environment of a fresh ``python -m karamata_kit.cli`` that imports
    this package."""
    src = str(Path(karamata_kit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _fresh_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "karamata_kit.cli", *argv],
        capture_output=True, text=True, timeout=60, env=_cli_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


def _without_timing(text):
    return re.sub(r'"timing_ms": [^,\n]+', '"timing_ms": 0', text)


def test_main_called_repeatedly_sees_only_its_own_flags(capsys, tmp_path):
    target = tmp_path / "first.json"
    code, out, _ = run_cli(
        capsys, ["classify", "ln(x)", "--lambdas", "2,10", "--out", str(target)]
    )
    assert code == 0 and out == ""
    first = target.read_text()
    assert json.loads(first)["inputs"]["lambdas"] == [2.0, 10.0]

    later = [
        ["classify", "ln(x)"],
        ["classify", "ln(x)", "--lambdas"],  # parse error: the flag needs a value
        ["--version"],
        ["invert-l", "ln(x)"],
    ]
    runs = [run_cli(capsys, argv) for argv in later]
    assert target.read_text() == first  # the earlier --out is not reused

    code, out, err = runs[0]
    assert code == 0, err
    report = json.loads(out)
    assert report["inputs"]["lambdas"] == list(DEFAULT_LAMBDAS)
    assert report["config"]["lambdas"] is None and report["config"]["out"] is None
    assert runs[1][0] == 2 and runs[1][1] == ""
    assert runs[2][0] == 0 and "karamata-kit" in runs[2][1]
    assert json.loads(runs[3][1])["results"]["inverse"] == "2.0 * ln(x)"

    for argv, (code, out, err) in zip(later, runs):
        fresh_code, fresh_out, fresh_err = _fresh_process(argv)
        assert code == fresh_code, argv
        assert _without_timing(out) == _without_timing(fresh_out), argv
        assert err == fresh_err, argv


def test_console_script_is_installed():
    proc = subprocess.run(
        ["karamata-kit", "apply-l", "7", "--x", "10"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    (point,) = json.loads(proc.stdout)["results"]["points"]
    assert point["value"] == pytest.approx(7.0)


# ---------------------------------------------------------------------------
# the commands that compute nothing import no numpy

def _fresh_python(script, cwd):
    """The stdout lines of ``script`` run by a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=_cli_env(), cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize(
    "argv, code",
    [
        (None, None),
        (["--help"], 0),
        (["--version"], 0),
        (["uct", "scan", "--help"], 0),
        (["apply-l", "x", "--x", "nan"], 2),
        (["apply-l", "@missing.args"], 2),
    ],
    ids=["import", "help", "version", "command-help", "bad-flag", "missing-args-file"],
)
def test_help_and_flag_errors_import_no_numpy(tmp_path, argv, code):
    # the package's names of the stdlib-only rules module come without numpy
    run = ("karamata_kit.PreconditionError, karamata_kit.ClaimedClass\n" if argv is None
           else f"from karamata_kit.cli import main; print(main({argv!r}))\n")
    lines = _fresh_python(f"import sys, karamata_kit\n{run}print('numpy' in sys.modules)", tmp_path)
    assert lines[-1] == "False"
    if argv is not None:
        assert lines[-2] == str(code)


def _imports(module):
    """``(level, name)`` of every module that ``module``'s source imports
    from: ``level`` 0 for an absolute import, 1 for ``from .name``."""
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module


def test_the_rules_import_only_the_stdlib_and_config_only_the_rules():
    from karamata_kit import rules

    for level, name in _imports(rules):
        assert level == 0 and name.partition(".")[0] in sys.stdlib_module_names, name
    package = {(level, name) for level, name in _imports(config)
               if level or name.partition(".")[0] == "karamata_kit"}
    assert package == {(1, "rules")}


def test_the_package_binds_each_export_to_its_defining_module():
    namespace = {}
    exec("from karamata_kit import *", namespace)
    modules = [importlib.import_module(f"karamata_kit.{name}") for name in
               ("exprlang", "quad", "karamata", "asymptotics", "uniformity", "rules")]
    for name in karamata_kit.__all__[1:]:
        homes = [module for module in modules if name in module.__all__]
        assert homes and all(namespace[name] is getattr(m, name) for m in homes), name
    source = Path(karamata_kit.__file__).read_text()
    assert [name for name in karamata_kit.__all__ if source.count(f'"{name}"') != 1] == []
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        karamata_kit.nope  # noqa: B018


def test_an_import_error_inside_a_module_reaches_the_caller(tmp_path):
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"  # so that importing numpy raises ImportError
        "import karamata_kit\n"
        "try:\n"
        "    karamata_kit.parse\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__, exc.name)\n"
    )
    assert _fresh_python(script, tmp_path) == ["ModuleNotFoundError numpy"]


# ---------------------------------------------------------------------------
# report shape

def test_report_has_exactly_the_contract_keys(capsys):
    report = run_json(capsys, ["apply-l", "ln(x)", "--x", "100"])
    assert sorted(report.keys()) == REPORT_KEYS
    assert report["version"] == 1
    assert report["command"] == "apply-l"
    assert isinstance(report["timing_ms"], float)


def test_report_embeds_canonical_expression(capsys):
    report = run_json(capsys, ["apply-l", "ln( x ) + 0", "--x", "100"])
    assert report["inputs"]["canonical"] == "ln(x) + 0.0"


def test_report_json_is_sorted_and_round_trips(capsys):
    _, out, _ = run_cli(capsys, ["uct", "scan", "--g", "u/x"])
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_config_echoes_resolved_values(capsys):
    report = run_json(capsys, ["classify", "ln(x)", "--grid-count", "9",
                               "--grid-start", "100", "--grid-ratio", "50"])
    assert report["config"]["grid_count"] == 9
    assert report["config"]["grid_start"] == 100.0
    assert report["config"]["grid_ratio"] == 50.0


def test_classify_reports_verdicts(capsys):
    report = run_json(capsys, ["classify", "x^2"])
    assert report["verdicts"]["index"] == "regularly_varying"
    assert report["results"]["index"]["rho_hat"] == pytest.approx(2.0, abs=1e-9)


def test_classify_counterexample_with_integer_grid(capsys):
    report = run_json(
        capsys, ["classify", "x^(sin(x)/ln(x))", "--integer-mode"]
    )
    assert report["verdicts"]["sv"] == "not_slowly_varying"


def test_classify_profile_flag_adds_profile(capsys):
    report = run_json(capsys, ["classify", "x^3", "--profile"])
    assert report["results"]["profile"]["verdict"]["value"] == pytest.approx(3.0, abs=1e-9)


def test_classify_claim_flag_adds_class_check(capsys):
    report = run_json(capsys, ["classify", "1/(1+ln(x))", "--claim", "z0"])
    assert report["verdicts"]["preservation"] == "holds"


def test_classify_claim_z0_reads_value_tol(capsys):
    # L(h) ends at 0.0457: within the default 0.05 of 0, not within 0.005
    argv = ["classify", "1/(1+ln(x))", "--claim", "z0"]
    loose = run_json(capsys, argv)
    strict = run_json(capsys, [*argv, "--value-tol", "0.005"])
    final = strict["results"]["preservation"]["conclusion_detail"]["final"]
    assert 0.005 < final < 0.05
    assert loose["verdicts"]["preservation"] == "holds"
    assert strict["verdicts"]["preservation"] == "not_established"
    assert strict["results"]["preservation"]["conclusion_holds"] is False


@pytest.mark.parametrize(
    "claim", ["r_alpha:nan", "r_alpha:inf", "r_alpha:1e400", "bounded:0,inf"]
)
def test_non_finite_claim_exits_2(capsys, claim):
    code, out, err = run_cli(capsys, ["classify", "x", "--claim", claim])
    assert code == 2
    assert out == ""
    message = {
        "r_alpha:nan": "alpha must be finite, got nan",
        "r_alpha:inf": "alpha must be finite, got inf",
        "r_alpha:1e400": "alpha must be finite, got inf",
        "bounded:0,inf": "bounds must be finite, got inf",
    }[claim]
    assert err == usage_error("classify", f"argument --claim: {message}")


def test_classify_claim_r0(capsys):
    report = run_json(capsys, ["classify", "ln(x)", "--claim", "r0"])
    assert report["results"]["preservation"]["claimed"] == "r0"
    assert report["verdicts"]["preservation"] == "holds"


def test_unknown_claim_exits_2(capsys):
    code, out, err = run_cli(capsys, ["classify", "x", "--claim", "r1"])
    assert code == 2
    assert out == ""
    assert err == usage_error(
        "classify", "argument --claim: unknown class 'r1'; use z0, r0, r_alpha or bounded"
    )


def test_invert_l_prints_symbolic_inverse(capsys):
    report = run_json(capsys, ["invert-l", "ln(x)"])
    assert report["results"]["inverse"] == "2.0 * ln(x)"


def test_uct_karamata_window_aliases(capsys):
    report = run_json(
        capsys,
        ["uct", "karamata", "--f", "ln(x)", "--a", "1", "--b", "2",
         "--grid-start", "100", "--grid-ratio", "10", "--grid-count", "8"],
    )
    sups = report["results"]["scan"]["suprema"]
    assert sups == sorted(sups, reverse=True)
    assert sups[-1] == pytest.approx(math.log(2) / math.log(1e9), rel=1e-9)
    assert report["verdicts"]["scan"] == "uniform"


def test_uct_hi_reports_violations(capsys):
    report = run_json(capsys, ["uct", "hi", "--h", "exp(-u)"])
    assert report["verdicts"]["hi"] == "violated"
    assert len(report["results"]["hi"]["violations"]) > 0


def test_uct_expand_interval(capsys):
    report = run_json(
        capsys, ["uct", "expand-interval", "--a", "2", "--b", "4", "--n", "3"]
    )
    assert report["results"]["interval"] == {"lo": 0.125, "hi": 8.0}


def test_uct_mult_closure(capsys):
    report = run_json(
        capsys,
        ["uct", "mult-closure", "--f", "ln(ln(x))", "--lambda", "2", "--mu", "3"],
    )
    assert report["verdicts"]["identity"] == "ok"
    assert report["results"]["closure"]["max_ulp_deviation"] <= 4.0


def test_uct_mult_closure_requires_factors(capsys):
    code, out, err = run_cli(capsys, ["uct", "mult-closure", "--f", "ln(x)"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("the following arguments are required: --lambda, --mu")


def test_a_missing_required_argument_exits_2(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme = [shlex.split(line)[1:] for line in text.split("## CLI", 1)[1].splitlines()
              if line.startswith("karamata-kit ")]
    missing = []
    for name, (*_, flags) in cli._COMMANDS.items():
        path = name.split()
        # the README's command, else the bare command, which lacks every required argument
        full = next((argv for argv in readme if argv[:len(path)] == path), path)
        for flag in flags:
            key, *names = (flag, "--" + flag.replace("_", "-")) if isinstance(flag, str) else flag
            if key not in {"expr", "h_expr", "m_expr", "lam", "mu", "a", "b", "n"}:
                continue
            if full is path:
                argv = path
            elif names[0].startswith("-"):
                i = next(i for i, arg in enumerate(full) if arg in names)
                argv = full[:i] + full[i + 2:]
            else:  # the positional expression follows the command
                argv = full[:len(path)] + full[len(path) + 1:]
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, ""), argv
            last = err.splitlines()[-1]
            assert "the following arguments are required: " in last, argv
            assert names[0] in last.partition("required: ")[2], argv
            missing.append((name, key))
    # the expression of every command but expand-interval; guct's two; the
    # factors of mult-closure and asym; expand-interval's a, b and n
    assert len(missing) == 17


# ---------------------------------------------------------------------------
# output formats and files

def test_csv_output_has_contract_header(capsys):
    code, out, _ = run_cli(
        capsys, ["uct", "scan", "--g", "u/x", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "param", "residual"]
    assert len(rows) == 1 + 8 * 33  # default grid count x default u_count
    for x_text, param_text, residual_text in rows[1:]:
        x, u = float(x_text), float(param_text)
        assert float(residual_text) == pytest.approx(u / x, rel=1e-12)


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["apply-l", "ln(x)", "--x", "100", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "apply-l"


def test_format_both_writes_two_files(capsys, tmp_path):
    base = tmp_path / "scan"
    code, _, _ = run_cli(
        capsys,
        ["uct", "scan", "--g", "u/x", "--format", "both", "--out", str(base)],
    )
    assert code == 0
    report = json.loads((tmp_path / "scan.json").read_text())
    assert report["command"] == "uct scan"
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "x,param,residual"


def _command_name(argv):
    return argv[1] if argv[0] == "uct" else argv[0]


# one command of each row shape: scan cells, sweep points, index tracks,
# closure triples and Halton violations
_ROW_SHAPES = [
    ["uct", "scan", "--g", "u/x"],
    ["apply-l", "1/(1+ln(x))", "--grid-start", "10", "--ratio", "10", "--count", "8"],
    ["classify", "ln(x)", "--lambdas", "2,10"],
    ["uct", "mult-closure", "--f", "ln(ln(x))", "--lambda", "2", "--mu", "3"],
    ["uct", "hi", "--h", "exp(-u)", "--samples", "200"],
]


@pytest.mark.parametrize("argv", _ROW_SHAPES, ids=_command_name)
@pytest.mark.parametrize("fmt", ["json", "csv", "both"])
def test_out_files_hold_what_stdout_prints(capsys, tmp_path, argv, fmt):
    code, printed, _ = run_cli(capsys, [*argv, "--format", fmt])
    assert code == 0
    base = tmp_path / "report"
    code, out, _ = run_cli(capsys, [*argv, "--format", fmt, "--out", str(base)])
    assert code == 0 and out == ""
    if fmt == "both":
        written = (tmp_path / "report.json").read_text() + (tmp_path / "report.csv").read_text()
    else:
        written = base.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["report.csv", "report.json"] if fmt == "both" else ["report"]
    )
    # the report echoes --out in its config
    written = written.replace(f'"out": {json.dumps(str(base))}', '"out": null', 1)
    assert _without_timing(written) == _without_timing(printed)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(capsys, tmp_path, where):
    out = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
    code, printed, err = run_cli(capsys, ["invert-l", "ln(x)", "--out", str(out)])
    assert code == 2
    assert printed == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: cannot write the report: ") and str(out) in err


def test_closed_stdout_exits_2_with_one_line():
    with subprocess.Popen(
        [sys.executable, "-m", "karamata_kit.cli", "invert-l", "ln(x)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_env(),
    ) as proc:
        proc.stdout.close()  # the reader goes before the report is written
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert err == "error: cannot write the report: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "argv",
    [
        *_ROW_SHAPES,
        ["uct", "karamata", "--f", "ln(x)"],
        ["uct", "cond310", "--xi", "1/ln(x)"],
        ["uct", "guct", "--h-expr", "abs(ln(x+u) - ln(x))", "--m-expr", "1", "--samples", "200"],
        ["uct", "asym", "--h", "1", "--lambda", "2"],
    ],
    ids=_command_name,
)
def test_runner_rows_are_a_lazy_iterator(argv):
    args = cli._parser().parse_args(argv)
    *_, rows = args.runner(config.merge_config(None, vars(args)))
    assert iter(rows) is rows
    rows = list(rows)
    assert rows and all(len(row) == 3 for row in rows)


# ---------------------------------------------------------------------------
# args files: @FILE holds one argument a line, and a later argument wins

def _args_file(tmp_path, *lines):
    path = tmp_path / "run.args"
    path.write_text("".join(line + "\n" for line in lines))
    return f"@{path}"


def test_config_file_overrides_defaults(capsys, tmp_path):
    args = _args_file(tmp_path, "--grid-count", "12")
    report = run_json(capsys, ["classify", "x^2", args])
    assert report["config"]["grid_count"] == 12


def test_flags_override_config_file(capsys, tmp_path):
    args = _args_file(tmp_path, "--grid-count", "12", "--grid-start", "100.0")
    report = run_json(capsys, ["classify", "x^2", args, "--grid-count", "10"])
    assert report["config"]["grid_count"] == 10
    assert report["config"]["grid_start"] == 100.0  # file value survives


def test_unknown_config_key_exits_2(capsys, tmp_path):
    args = _args_file(tmp_path, "--grid-cont", "12")
    code, _, err = run_cli(capsys, ["classify", "x^2", args])
    assert code == 2
    assert "unrecognized arguments: --grid-cont 12" in err


def test_wrong_config_type_exits_2(capsys, tmp_path):
    args = _args_file(tmp_path, "--grid-count", "twelve")
    code, _, err = run_cli(capsys, ["classify", "x^2", args])
    assert code == 2
    assert "invalid int value: 'twelve'" in err


def test_args_file_with_a_flag_the_command_does_not_read_exits_2(capsys, tmp_path):
    args = _args_file(tmp_path, "--var", "t")
    code, out, err = run_cli(capsys, ["uct", "scan", "--g", "x*u", args])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --var t" in err


def test_missing_args_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["classify", "x^2", f"@{tmp_path / 'none.args'}"])
    assert code == 2
    assert out == ""
    assert "No such file or directory" in err


def test_top_level_help_names_args_files(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "@FILE" in out


def test_out_of_range_literal_exits_2(capsys):
    code, out, err = run_cli(capsys, ["apply-l", "1e309", "--x", "10"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: number '1e309' is out of range")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "ln(x)", "--grid-count", "1001"],
        ["uct", "scan", "--g", "x*u", "--u-count", "1001"],
        ["uct", "karamata", "--f", "ln(x)", "--lambda-count", "1001"],
        ["uct", "hi", "--h", "x + u", "--samples", "100001"],
        ["uct", "guct", "--h-expr", "abs(ln(x+u) - ln(x))", "--m-expr", "1",
         "--samples", "100001"],
    ],
)
def test_over_cap_sizes_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    flag, value = argv[-2:]
    key = flag.removeprefix("--").replace("-", "_")
    name = "--grid-count/--count" if key == "grid_count" else flag
    message = f"argument {name}: {key} must be at most {int(value) - 1:,}, got {value}"
    assert err == usage_error(" ".join(argv[:2] if argv[0] == "uct" else argv[:1]), message)


def test_size_caps_admit_their_own_value():
    caps = {
        "grid_count": config.MAX_GRID_COUNT,
        "u_count": config.MAX_PARAM_COUNT,
        "lambda_count": config.MAX_PARAM_COUNT,
        "samples": config.MAX_SAMPLES,
    }
    # the last flag of each takes the cap
    runs = {
        "grid_count": ["classify", "x", "--grid-count"],
        "u_count": ["uct", "scan", "--g", "u", "--u-count"],
        "lambda_count": ["uct", "karamata", "--f", "x", "--lambda-count"],
        "samples": ["uct", "hi", "--h", "u", "--samples"],
    }
    for key, cap in caps.items():
        args = cli._parser().parse_args([*runs[key], str(cap)])
        assert getattr(config.merge_config(None, vars(args)), key) == cap, key


def test_the_parser_rejects_an_unknown_format(capsys):
    code, out, err = run_cli(capsys, ["classify", "ln(x)", "--format", "xml"])
    assert (code, out) == (2, "")
    assert err == usage_error(
        "classify", "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'both')"
    )


# ---------------------------------------------------------------------------
# determinism across thread counts

def _canonical(report_text):
    report = json.loads(report_text)
    report.pop("timing_ms")
    return json.dumps(report, sort_keys=True)


@pytest.fixture
def block_threads(monkeypatch, fresh_pool):
    """The threads that measured a quadrature block.  Three usable cores, so
    that KARAMATA_KIT_THREADS=8 really runs three workers.

    Whether a pool thread gets a block before the calling thread has taken
    them all depends on scheduling, so each submission to the pool waits
    (at most 10 s) until a pool thread has taken a block: then one has
    whenever a wave submitted helpers, and never otherwise."""
    monkeypatch.setattr(quad, "_usable_cores", lambda: 3)
    threads = set()
    caller = threading.get_ident()
    taken = threading.Condition()
    rule_block, make_pool = quad._rule_block, quad._pool

    def spy(f, lo, hi):
        with taken:
            threads.add(threading.get_ident())
            taken.notify_all()
        return rule_block(f, lo, hi)

    class WaitingPool:
        def __init__(self):
            self.pool = make_pool()

        def submit(self, fn, *args):
            future = self.pool.submit(fn, *args)
            with taken:
                taken.wait_for(lambda: threads - {caller}, timeout=10)
            return future

    monkeypatch.setattr(quad, "_rule_block", spy)
    monkeypatch.setattr(quad, "_pool", WaitingPool)
    return threads


# apply-l integrates in multi-block waves; the scans never integrate.  The
# sweep ends at 10 * 3.7**7 = 9.5e4.
_INTEGRATING = [
    ["apply-l", "sin(x)", "--x", "1e5"],
    ["apply-l", "sin(x)", "--grid-start", "10", "--ratio", "3.7", "--count", "8"],
]


def _across_thread_counts(capsys, monkeypatch, threads, argv, workers):
    """Exit codes and outputs of ``argv`` serial and under ``workers``
    threads, and whether a worker thread measured a block of the second run."""
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "1")
    serial = run_cli(capsys, argv)
    threads.clear()
    monkeypatch.setenv("KARAMATA_KIT_THREADS", workers)
    pooled = run_cli(capsys, argv)
    return serial[:2], pooled[:2], bool(threads - {threading.get_ident()})


def test_reports_are_identical_across_thread_counts(capsys, monkeypatch, block_threads):
    scan = ["uct", "scan", "--g", "x*u*exp(-x*u)", "--u-lo", "0.001"]
    for argv in [scan, *_INTEGRATING]:
        serial, pooled, on_workers = _across_thread_counts(
            capsys, monkeypatch, block_threads, argv, "8"
        )
        assert serial[0] == pooled[0] == 0, argv
        assert _canonical(serial[1]) == _canonical(pooled[1]), argv
        assert on_workers == (argv is not scan), argv


def test_csv_bytes_identical_across_thread_counts(capsys, monkeypatch, block_threads):
    scan = ["uct", "karamata", "--f", "ln(x)"]
    for argv in [scan, *_INTEGRATING]:
        serial, pooled, on_workers = _across_thread_counts(
            capsys, monkeypatch, block_threads, [*argv, "--format", "csv"], "6"
        )
        assert serial == pooled, argv
        assert serial[0] == 0, argv
        assert on_workers == (argv is not scan), argv


# ---------------------------------------------------------------------------
# the README's experiment scripts

@pytest.mark.parametrize(
    "script, lines",
    [
        ("oscillation_smoothing.py",
         ["verdict: not_slowly_varying", "classification: converges, value 0.042270",
          "       n      log ratio        -sin(n)        gap"]),
        ("uniformity_ladder.py",
         ["verdict: inconclusive",
          "           x    sup |F(lam x)/F(x) - 1|   worst lambda",
          "                     F    rho_hat     spread              verdict"]),
    ],
)
def test_experiment_script_runs_clean(script, lines):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # no numpy warning leaks
    assert set(lines) <= set(proc.stdout.splitlines())
