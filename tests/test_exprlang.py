"""Parser, evaluator, derivative and fold tests for the expression language."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from karamata_kit.exprlang import (
    Bin,
    Call,
    Const,
    DomainError,
    EvalError,
    ExprSyntaxError,
    Neg,
    UnboundVariableError,
    UnknownFunctionError,
    Var,
    differentiate,
    eval_array,
    evaluate,
    fold,
    format_expr,
    parse,
    variables,
)

from expr_corpus import CORPUS


# ---------------------------------------------------------------------------
# parsing

def test_precedence_and_literals():
    assert evaluate(parse("2+3*4"), {}) == 14.0
    assert evaluate(parse("(2+3)*4"), {}) == 20.0
    assert evaluate(parse("2^3^2"), {}) == 512.0  # right associative
    assert evaluate(parse("-2^2"), {}) == -4.0  # unary binds looser than ^
    assert evaluate(parse("6/3/2"), {}) == 1.0  # left associative
    assert evaluate(parse("1 - 2 - 3"), {}) == -4.0
    assert evaluate(parse("3.25e-2"), {}) == 3.25e-2
    assert evaluate(parse(".5 + 1."), {}) == 1.5


def test_constants_keep_symbolic_spelling():
    e = parse("pi")
    assert e == Const(math.pi, symbol="pi")
    assert format_expr(e) == "pi"
    assert evaluate(parse("e"), {}) == math.e


def test_variables_collects_names():
    assert variables(parse("x*u + sin(v)")) == frozenset({"x", "u", "v"})
    assert variables(parse("3.5")) == frozenset()


def test_negative_number_parses_as_negation():
    assert parse("-2") == Neg(Const(2.0))


@pytest.mark.parametrize(
    "text, offset",
    [
        ("2+*3", 2),
        ("(1+2", 4),
        ("1 2", 2),
        ("ln", 0),  # function name without argument list; offset points at name
        ("", 0),
    ],
)
def test_syntax_errors_carry_byte_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset


def test_syntax_error_offset_counts_bytes():
    src = "2 + α?"
    with pytest.raises(ExprSyntaxError) as exc:
        parse(src)
    assert exc.value.offset == len("2 + ".encode("utf-8"))


@pytest.mark.parametrize(
    "text, offset",
    [("1e309 + x", 0), ("x * 2e400", 4), ("sin(pi / 1.8e308)", 9)],
)
def test_out_of_range_literal_is_a_syntax_error(text, offset):
    with pytest.raises(ExprSyntaxError, match="out of range") as exc:
        parse(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text", ["1.7976931348623157e308 + x", "x * 1e-320", "1e-400 + x"])
def test_extreme_literals_round_trip_through_format(text):
    # the largest finite literal, a subnormal, and one that rounds to 0.0
    tree = parse(text)
    assert "inf" not in format_expr(tree)
    assert parse(format_expr(tree)) == tree


def test_unknown_function_is_syntax_error():
    with pytest.raises(UnknownFunctionError):
        parse("foo(2)")
    with pytest.raises(ExprSyntaxError):
        parse("pow(2)")  # wrong arity


# ---------------------------------------------------------------------------
# evaluation and domain errors

def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x + y"), {"x": 1.0})


@pytest.mark.parametrize(
    "text, env",
    [
        ("1/x", {"x": 0.0}),
        ("ln(x)", {"x": 0.0}),
        ("ln(x)", {"x": -2.0}),
        ("sqrt(x)", {"x": -1.0}),
        ("x^0.5", {"x": -4.0}),
        ("0^x", {"x": -1.0}),
        ("exp(x)", {"x": 1e6}),  # overflow
    ],
)
def test_domain_errors(text, env):
    with pytest.raises(DomainError):
        evaluate(parse(text), env)


@pytest.mark.parametrize(
    "text, x",
    [
        ("x*1e300", 1e10),
        ("x+1e308", 1e308),
        ("-x-1e308", 1e308),
        ("x/1e-300", 1e10),
        ("x*1e300 - x*1e300", 1e10),  # inf - inf is nan
        ("sin(x*1e300)", 1e10),
        ("cos(x*1e300)", 1e10),
    ],
)
def test_non_finite_value_raises_in_both_evaluators(text, x):
    expr = parse(text)
    with pytest.raises(DomainError, match="non-finite value"):
        evaluate(expr, {"x": x})
    with pytest.raises(DomainError, match="non-finite value"):
        eval_array(expr, {"x": np.array([2.0, x])})


def test_intermediate_infinity_that_ends_finite_is_kept():
    # finiteness is checked on the result only, not on every node
    expr = parse("1/(x*1e300)")
    assert evaluate(expr, {"x": 1e10}) == 0.0
    assert eval_array(expr, {"x": np.array([1e10])}).tolist() == [0.0]


def test_power_conventions():
    assert evaluate(parse("0^0"), {}) == 1.0
    assert evaluate(parse("x^3"), {"x": -2.0}) == -8.0
    assert evaluate(parse("pow(x, 2)"), {"x": -3.0}) == 9.0


def test_evaluate_is_pure():
    e = parse("x^(sin(x)/ln(x))")
    env = {"x": 17.3}
    assert evaluate(e, env) == evaluate(e, env)


def test_eval_array_matches_pointwise_loop():
    e = parse("x^2 * exp(-x) + u")
    xs = np.geomspace(1.0, 50.0, 40)
    got = eval_array(e, {"x": xs, "u": 0.25})
    want = np.array([evaluate(e, {"x": float(x), "u": 0.25}) for x in xs])
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_eval_array_broadcasts_constants():
    got = eval_array(parse("7"), {"x": np.zeros(5)})
    assert got.shape == (5,)
    assert np.all(got == 7.0)


def test_eval_array_raises_on_any_bad_element():
    with pytest.raises(DomainError):
        eval_array(parse("ln(x)"), {"x": np.array([2.0, 1.0, 0.0])})


# ---------------------------------------------------------------------------
# round trip

@pytest.mark.parametrize("text", [src for src, _, _ in CORPUS])
def test_corpus_round_trips_through_format(text):
    tree = parse(text)
    assert parse(format_expr(tree)) == tree


_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(
        lambda v: Const(abs(v))
    ),
    st.sampled_from(["x", "u", "v"]).map(Var),
    st.sampled_from([Const(math.pi, symbol="pi"), Const(math.e, symbol="e")]),
)


def _compound(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: Bin(t[0], t[1], t[2])
        ),
        st.tuples(
            st.sampled_from(["ln", "exp", "sin", "cos", "sqrt", "abs"]), children
        ).map(lambda t: Call(t[0], (t[1],))),
        st.tuples(children, children).map(lambda t: Call("pow", t)),
    )


_trees = st.recursive(_leaves, _compound, max_leaves=12)


@given(_trees)
@settings(max_examples=200)
def test_format_parse_is_identity_on_trees(tree):
    assert parse(format_expr(tree)) == tree


# ---------------------------------------------------------------------------
# differentiation

def _central_difference(e, x, h):
    f_hi = evaluate(e, {"x": x + h})
    f_lo = evaluate(e, {"x": x - h})
    return (f_hi - f_lo) / (2.0 * h)


@pytest.mark.parametrize("text, lo, hi", CORPUS)
def test_derivative_matches_central_differences(text, lo, hi):
    e = parse(text)
    de = differentiate(e, "x")
    rng = np.random.default_rng(abs(hash(text)) % (2**32))
    for x in rng.uniform(lo, hi, size=25):
        x = float(x)
        h = 1e-5 * max(1.0, abs(x))
        sym = evaluate(de, {"x": x})
        fd = _central_difference(e, x, h)
        assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym), abs(fd)), (text, x)


def test_constant_exponent_power_rule_avoids_ln():
    # d/dx x^3 must come out as a plain power rule, with no ln factor that
    # would poison evaluation at negative x.
    de = differentiate(parse("x^3"), "x")
    assert "ln" not in format_expr(de)
    assert evaluate(de, {"x": -2.0}) == 12.0


def test_derivative_of_other_variable_is_zero():
    de = fold(differentiate(parse("u^2"), "x"))
    assert de == Const(0.0)


# ---------------------------------------------------------------------------
# folding

@pytest.mark.parametrize(
    "text, want",
    [
        ("x*1", "x"),
        ("1*x", "x"),
        ("x+0", "x"),
        ("0+x", "x"),
        ("x-0", "x"),
        ("x/1", "x"),
        ("x^1", "x"),
        ("x^0", "1.0"),
        ("1^x", "1.0"),
        ("0*ln(x)", "0.0"),
        ("2+3", "5.0"),
        ("2*pi", repr(2 * math.pi)),
    ],
)
def test_fold_identities(text, want):
    assert format_expr(fold(parse(text))) == want


def test_fold_collapses_double_negation():
    assert fold(Neg(Neg(Var("x")))) == Var("x")


@given(_trees, st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(0.5, 3.0))
@settings(max_examples=150)
def test_fold_preserves_semantics(tree, xv, uv, vv):
    env = {"x": xv, "u": uv, "v": vv}
    try:
        want = evaluate(tree, env)
    except EvalError:
        assume(False)
    assume(math.isfinite(want))
    got = evaluate(fold(tree), env)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(_trees, st.floats(0.5, 3.0))
@settings(max_examples=150)
def test_eval_array_agrees_with_scalar_evaluate(tree, xv):
    env = {"x": xv, "u": 1.7, "v": 0.9}
    try:
        want = evaluate(tree, env)
    except EvalError:
        assume(False)
    assume(math.isfinite(want))
    arr = eval_array(tree, {"x": np.array([xv, xv]), "u": 1.7, "v": 0.9})
    assert arr.shape == (2,)
    np.testing.assert_allclose(arr, want, rtol=1e-12, atol=1e-300)
