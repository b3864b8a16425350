"""Parser, evaluator, derivative and fold tests for the expression language."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    occurrences,
    parse,
    variables,
)

from eval_oracle import reference_evaluate
from expr_corpus import CORPUS
from parse_oracle import reference_parse


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


def test_occurrences_counts_each_leaf():
    e = parse("sin(x)*ln(x) - pow(u, x)")
    assert (occurrences(e, "x"), occurrences(e, "u"), occurrences(e, "v")) == (3, 1, 0)
    assert occurrences(parse("-sin(3*x)"), "x") == 1
    assert occurrences(parse("pi"), "x") == 0


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


# the differential test draws from these: numbers, numbers that run into a
# name, an out-of-range literal, constants, functions, a variable, an unknown
# name, every operator and bracket, three kinds of space and two characters
# the language has no use for
_TOKENS = ("0", "1", "7", "42", ".5", "1.", "1e400", "2e", "e", "pi", "ln", "pow", "foo", "x",
           "+", "-", "*", "/", "^", "(", ")", ",", " ", "\t", "\xa0", "α", "?")
_ATOMS = ("0", "1", "7", "42", ".5", "1.", "1e400", "2e", "e", "pi", "x", "foo")


def _well_formed(rng, depth):
    """The tokens of a random expression: an atom, a negation, a binary
    operation, parentheses, or a call of one to three arguments."""
    pick = rng.randrange(5 if depth < 4 else 1)
    if pick == 0:
        return [rng.choice(_ATOMS)]
    if pick == 1:
        return ["-", *_well_formed(rng, depth + 1)]
    if pick == 2:
        return [*_well_formed(rng, depth + 1), rng.choice("+-*/^"), *_well_formed(rng, depth + 1)]
    if pick == 3:
        return ["(", *_well_formed(rng, depth + 1), ")"]
    tokens = [rng.choice(("ln", "pow", "foo")), "("]
    for k in range(rng.randint(1, 3)):
        tokens += [","] * (k > 0) + _well_formed(rng, depth + 1)
    return [*tokens, ")"]


def _token_text(rng):
    """Half the texts are tokens drawn at random; the other half are
    expressions with up to two tokens inserted, replaced or deleted.
    Tokens are joined with or without a space, so some run together."""
    if rng.random() < 0.5:
        tokens = rng.choices(_TOKENS, k=rng.randint(0, 12))
    else:
        tokens = _well_formed(rng, 0)
        for _ in range(rng.randint(0, 2)):
            at = rng.randrange(len(tokens) + 1)
            tokens[at:at + rng.randint(0, 1)] = rng.choices(_TOKENS, k=rng.randint(0, 1))
    return "".join(rng.choice(("", " ")) + token for token in tokens)


def _parsed(parser, text):
    """The tree's ``repr``, or the error's class, message and byte offset."""
    try:
        return repr(parser(text))
    except ExprSyntaxError as exc:
        return type(exc), str(exc), exc.offset


def test_parse_matches_its_frozen_oracle():
    rng = random.Random(32)
    texts = [_token_text(rng) for _ in range(20_000)]
    outcomes = [_parsed(parse, text) for text in texts]
    assert [t for t, o in zip(texts, outcomes) if o != _parsed(reference_parse, t)] == []
    messages = " ".join(o[1] for o in outcomes if isinstance(o, tuple))
    for message in ("unexpected character", "expected a value, found '", "found end of input",
                    "unexpected trailing input", "needs an argument list", "unknown function",
                    "expects 1 argument,", "expects 2 arguments", "expected ')'",
                    "out of range"):
        assert message in messages, message
    assert sum(isinstance(o, str) for o in outcomes) > 2_000


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
    # 1e16 is an even integer: a negative base takes it like any other
    assert evaluate(parse("x^1e16"), {"x": -1.0}) == 1.0
    assert eval_array(parse("x^1e16"), {"x": np.array([-1.0])}).tolist() == [1.0]


def test_evaluate_is_pure():
    e = parse("x^(sin(x)/ln(x))")
    env = {"x": 17.3}
    assert evaluate(e, env) == evaluate(e, env)


def test_eval_array_matches_pointwise_loop():
    e = parse("x^2 * exp(-x) + u")
    xs = np.geomspace(1.0, 50.0, 40)
    got = eval_array(e, {"x": xs, "u": 0.25})
    want = np.array([reference_evaluate(e, {"x": float(x), "u": 0.25}) for x in xs])
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_eval_array_broadcasts_constants():
    got = eval_array(parse("7"), {"x": np.zeros(5)})
    assert got.shape == (5,)
    assert np.all(got == 7.0)


@pytest.mark.parametrize(
    "text, constant",
    [
        ("x^(x/x+1)", "x^2"),
        ("x^(x/x-0.5)", "x^0.5"),
        ("x^(x/x-2)", "x^(-1)"),
        ("(x+0.1)^(x/x+1)", "(x+0.1)^2"),
    ],
)
def test_eval_array_bits_do_not_depend_on_shape(text, constant):
    # an exponent array holding 2, 0.5 or -1 gets the correctly rounded power
    # that the constant exponent gets, whatever the shape of the arrays
    xs = np.random.default_rng(5).uniform(0.5, 50.0, 600)
    want = eval_array(parse(constant), {"x": xs}).tobytes()
    e = parse(text)
    for shaped in (xs, xs[:, None], xs[None, :]):
        assert eval_array(e, {"x": shaped}).tobytes() == want
    points = [eval_array(e, {"x": np.array(x)}) for x in xs]  # 0-d
    assert np.array(points).tobytes() == want


@pytest.mark.parametrize("text, lo, hi", CORPUS)
def test_eval_array_bits_do_not_depend_on_memory_order(text, lo, hi):
    # the quadrature's column rule hands its (panels, 15) nodes over as the
    # transpose of a node-major array; every value must keep its bits
    xs = np.random.default_rng(13).uniform(lo, hi, (600, 15))
    node_major = np.ascontiguousarray(xs.T).T
    assert not node_major.flags.c_contiguous
    e = parse(text)
    want = eval_array(e, {"x": xs}).tobytes()
    assert eval_array(e, {"x": node_major}).tobytes() == want
    if occurrences(e, "x") == 1:
        for x in (xs, node_major):
            assert eval_array(e, {"x": x.copy(order="K")}, "x").tobytes() == want


@pytest.mark.parametrize("text", [src for src, _, _ in CORPUS])
def test_eval_array_never_writes_an_env_array(text):
    # the walk computes in the arrays it made, never in the caller's, even
    # where an intermediate has the shape of an env array
    xs = np.random.default_rng(11).uniform(1.5, 5.0, 40)
    e = parse(text)
    for env in (
        {"x": xs},
        {"x": xs[:, None], "u": xs[None, :8]},
        {"x": np.array(2.5), "u": np.array([0.5, 2.0])},
    ):
        before = {name: (a.tobytes(), a.shape) for name, a in env.items()}
        try:
            eval_array(e, env)
        except DomainError:
            pass
        assert {name: (a.tobytes(), a.shape) for name, a in env.items()} == before


@pytest.mark.parametrize("text", ["sin(3*x)", "-exp(-x)/2", "1 + ln(x)^2", "abs(cos(x))"])
def test_eval_array_computes_in_the_owned_array(text):
    # a variable that occurs once: the result is written into its array,
    # with the bits of the plain evaluation
    xs = np.random.default_rng(12).uniform(1.5, 5.0, 300)
    want = eval_array(parse(text), {"x": xs})
    owned = xs.copy()
    got = eval_array(parse(text), {"x": owned}, "x")
    assert got.tobytes() == want.tobytes()
    assert np.shares_memory(got, owned) == (text != "1 + ln(x)^2")  # ^ allocates


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


@pytest.mark.parametrize("text, want", [("x - x", "0.0"), ("(u/x)*x", "u")])
def test_fold_cancels_shared_subterms(text, want):
    assert format_expr(fold(parse(text))) == want


def test_fold_keeps_a_constant_division_by_zero():
    tree = parse("1/0")
    assert fold(tree) == tree
    with pytest.raises(DomainError):
        evaluate(fold(tree), {})


@given(_trees, st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(0.5, 3.0))
@settings(max_examples=150)
def test_fold_preserves_semantics(tree, xv, uv, vv):
    env = {"x": xv, "u": uv, "v": vv}
    try:
        want = reference_evaluate(tree, env)
    except EvalError:
        assume(False)
    assume(math.isfinite(want))
    got = evaluate(fold(tree), env)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(_trees, st.floats(0.5, 3.0))
# Python's ** and np.power differ by an ulp on this power, which sin amplifies
@example(parse("sin((11.5/0.00390625) * pow(1.192092896e-07, 1.192092896e-07))"), 1.0)
@settings(max_examples=150)
def test_eval_array_agrees_with_scalar_evaluate(tree, xv):
    env = {"x": xv, "u": 1.7, "v": 0.9}
    try:
        want = reference_evaluate(tree, env)
    except EvalError:
        assume(False)
    assume(math.isfinite(want))
    arr = eval_array(tree, {"x": np.array([xv, xv]), "u": 1.7, "v": 0.9})
    assert arr.shape == (2,)
    np.testing.assert_allclose(arr, want, rtol=1e-12, atol=1e-300)
