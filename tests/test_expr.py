"""Expression language: parsing, printing round-trips, evaluation agreement."""

import dataclasses
import math

import numpy as np
import pytest

from bitension import expr, jets
from bitension.expr import (
    Binary, Const, ExprEvalError, ExprSyntaxError, Param, Pi, Power, Unary,
    Var, eval_jet, parse, to_string,
)
from oracle import eval_real


def test_parse_basic_component():
    t = parse("cos(u1)/sqrt(2)")
    assert t == Binary("/", Unary("cos", Var(0)), Unary("sqrt", Const(2.0)))


def test_unbalanced_paren_column():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin(u1")
    assert err.value.column == 7
    assert err.value.line == 1


def test_unknown_function():
    with pytest.raises(ExprSyntaxError) as err:
        parse("foo(u1)")
    assert "unknown function 'foo'" in str(err.value)


def test_unknown_parameter_at_eval():
    t = parse("a * u1")
    with pytest.raises(ExprEvalError):
        eval_real(t, [1.0], {})
    with pytest.raises(ExprEvalError):
        eval_jet(t, jets.space(1), [jets.seed_variable(0, 1.0, 1)], {}, [None])


@pytest.mark.parametrize("source,messages", [
    # sqrt: degree-0 value <= 0, each row's own value; a row keeps its first error
    ("sqrt(u1) + sqrt(u1 - 5)", ["sqrt applied to jet with degree-0 value -1.0",
                                 "sqrt applied to jet with degree-0 value -1.0",
                                 "sqrt applied to jet with degree-0 value 0.0",
                                 "sqrt applied to jet with degree-0 value -0.0"]),
    # division: a zero denominator, reported as 0.0 whatever its sign
    ("1 / u1", [None, None, "recip applied to jet with degree-0 value 0.0",
                "recip applied to jet with degree-0 value 0.0"]),
    # a negative power: the row's own value
    ("u1^-2", [None, None, "recip applied to jet with degree-0 value 0.0",
               "recip applied to jet with degree-0 value -0.0"]),
])
def test_eval_jet_domain_errors_per_row(source, messages):
    # rows at u1 = 4, -1, 0, -0: a row outside the domain gets its error and
    # turns NaN, and a healthy row equals its lone evaluation
    sp = jets.space(1)
    values = [4.0, -1.0, 0.0, -0.0]
    errors = [None] * 4
    out = eval_jet(parse(source), sp, [jets.seed_variable(0, np.array(values), 1)], {}, errors)
    assert [e if e is None else str(e) for e in errors] == messages
    assert all(isinstance(e, jets.JetDomainError) for e in errors if e is not None)
    for p, v in enumerate(values):
        if messages[p] is None:
            alone = eval_jet(parse(source), sp, [jets.seed_variable(0, v, 1)], {}, [None])
            assert out[p].tobytes() == alone.tobytes()
        else:
            assert np.isnan(out[p]).all()


def test_unexpected_character():
    with pytest.raises(ExprSyntaxError):
        parse("u1 % 2")


def test_trailing_tokens():
    with pytest.raises(ExprSyntaxError):
        parse("u1 + 1 )")


def test_depth_bound():
    # each node and each parenthesized group is one level; a source deeper
    # than MAX_DEPTH is refused at the token that crosses the bound, before
    # parsing or any tree walk recurses that deep
    bound = expr.MAX_DEPTH
    fits = ["(" * (bound - 1) + "u1" + ")" * (bound - 1),
            " + ".join(["u1"] * bound),
            "u1 * " * (bound - 1) + "u1",
            "-" * (bound - 1) + "u1",
            "sin(" * (bound - 1) + "u1" + ")" * (bound - 1),
            "(" * (bound - 2) + "u1^2" + ")" * (bound - 2)]
    for source in fits:
        e = expr.parse(source)
        assert expr.facts(source) == (expr.max_var_index(e), frozenset())
    crossing = [("(" * bound + "u1" + ")" * bound, bound),
                ("(" * 2 * bound + "u1" + ")" * 2 * bound, bound),
                (" + ".join(["u1"] * (bound + 1)), 5 * bound - 1),
                (" + ".join(["u1"] * 10 * bound), 5 * bound - 1),
                ("u1 * " * bound + "u1", 5 * bound - 1),
                ("- " * bound + "u1", 2 * bound - 1),
                ("sin(" * bound + "u1" + ")" * bound, 4 * bound - 3),
                ("(" * (bound - 1) + "u1^2" + ")" * (bound - 1), bound + 2)]
    for source, column in crossing:
        with pytest.raises(ExprSyntaxError, match=f"deeper than {bound} levels") as info:
            expr.parse(source)
        assert (info.value.line, info.value.column) == (1, column), source


def test_facts_cached_by_source(monkeypatch):
    # a source string's facts are computed once and kept by the string; a
    # tree passed in is walked on every call
    source = "r * sin(u3) + c / u2"
    assert expr.facts(source) == (2, frozenset({"r", "c"}))
    walks = []
    monkeypatch.setattr(expr, "free_params", lambda e: walks.append(e) or set())
    assert expr.facts(source) == (2, frozenset({"r", "c"}))
    assert walks == []
    tree = expr.parse(source)
    expr.facts(tree)
    assert walks == [tree]


def test_integer_exponent_required():
    with pytest.raises(ExprSyntaxError):
        parse("u1^u2")
    with pytest.raises(ExprSyntaxError):
        parse("u1^1.5")


def test_precedence():
    assert parse("-u1^2") == Unary("neg", Power(Var(0), 2))
    assert parse("2*u1+1") == Binary("+", Binary("*", Const(2.0), Var(0)), Const(1.0))
    assert parse("u1^-2") == Power(Var(0), -2)
    assert parse("-u1*u2") == Binary("*", Unary("neg", Var(0)), Var(1))


def test_const_compares_by_bits():
    # leaves compare and hash by float.hex, so a memo keyed by subtree keeps
    # the two zeros apart
    assert parse("-0.0") == Const(-0.0) != Const(0.0)
    assert hash(Const(-0.0)) != hash(Const(0.0))
    assert Const(2) == Const(2.0) and hash(Const(2)) == hash(Const(2.0))
    sp = jets.space(1)
    memo: dict = {}
    for value in (0.0, -0.0):
        jet = eval_jet(Const(value), sp, [], {}, [None], memo)
        assert math.copysign(1.0, jet[0]) == math.copysign(1.0, value)


@pytest.mark.parametrize("source", [
    "cos(u1)/sqrt(2)",
    "-u1^2 + 3.5*pi - (u2 - 1)/2",
    "a * sin(2*u1 + phase) - b/(1 + u2^2)",
    "sqrt(1 + sin(u1)^2)",
    "--u1",
    "1e-3 * u1 + 2.5e2",
])
def test_round_trip_parsed(source):
    t = parse(source)
    assert parse(to_string(t)) == t


def test_round_trip_right_nested_trees():
    # manually built trees that a naive printer would re-associate
    t = Binary("+", Var(0), Binary("+", Var(1), Const(1.0)))
    assert parse(to_string(t)) == t
    t = Binary("-", Var(0), Binary("-", Var(1), Const(1.0)))
    assert parse(to_string(t)) == t
    t = Binary("/", Const(1.0), Binary("*", Var(0), Var(1)))
    assert parse(to_string(t)) == t
    t = Unary("neg", Binary("*", Var(0), Var(1)))
    assert parse(to_string(t)) == t
    t = Power(Unary("neg", Var(0)), 3)
    assert parse(to_string(t)) == t


def _random_tree(rng, depth, num_vars):
    if depth == 0:
        k = int(rng.integers(0, 4))
        if k == 0:
            return Const(float(np.round(rng.uniform(-3, 3), 4)))
        if k == 1:
            return Pi()
        if k == 2:
            return Param("alpha")
        return Var(int(rng.integers(0, num_vars)))
    k = int(rng.integers(0, 8))
    child = _random_tree(rng, depth - 1, num_vars)
    if k < 4:
        other = _random_tree(rng, depth - 1, num_vars)
        return Binary("+-*/"[k], child, other)
    if k == 4:
        return Unary("neg", child)
    if k == 5:
        return Power(child, int(rng.integers(-3, 4)))
    return Unary(("sin", "cos")[k - 6], child)


@pytest.mark.parametrize("seed", range(30))
def test_round_trip_random_trees(seed):
    rng = np.random.default_rng(seed)
    t = _random_tree(rng, int(rng.integers(1, 5)), 3)
    assert parse(to_string(t)) == t


@pytest.mark.parametrize("seed", range(10))
def test_jet_real_agreement(seed):
    rng = np.random.default_rng(1000 + seed)
    # safe compositions only: trig, polynomials, guarded sqrt
    source = "sin(2*u1 + 0.3) * cos(u2)^2 + sqrt(2.5 + sin(u1*u2)) - u1/(2.5 + cos(u2))"
    t = parse(source)
    point = rng.uniform(-1.2, 1.2, 2)
    j = eval_jet(t, jets.space(2), [jets.seed_variable(i, point[i], 2) for i in range(2)], {},
                 [None])
    r = eval_real(t, list(point), {})
    assert abs(j[0] - r) <= 1e-13 * max(1.0, abs(r))


def test_eval_real_mpmath():
    import mpmath
    t = parse("sqrt(2 + sin(u1)) / (1 + u1^2)")
    x = mpmath.mpf("0.3125")
    with mpmath.workdps(40):
        v = eval_real(t, [x], {}, lib=mpmath)
    assert abs(float(v) - eval_real(t, [0.3125], {})) < 1e-15


def test_sqrt_negative_real_eval():
    t = parse("sqrt(u1 - 10)")
    with pytest.raises(ExprEvalError):
        eval_real(t, [0.5], {})


def test_division_by_zero():
    t = parse("1/(u1 - u1)")
    with pytest.raises(ExprEvalError):
        eval_real(t, [0.5], {})


def test_pi_value():
    assert eval_real(parse("pi"), [], {}) == math.pi


def test_free_params_and_vars():
    t = parse("a * sin(u3) + b - pi")
    assert expr.free_params(t) == {"a", "b"}
    assert expr.max_var_index(t) == 2


def test_parse_is_memoized_and_its_trees_are_frozen():
    source = "r * sin(u1) * cos(u2)"
    assert parse(source) is parse(source)
    for _ in range(2):                  # an error is raised again, never cached
        with pytest.raises(ExprSyntaxError):
            parse("sin(u1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        parse(source).op = "+"
    with pytest.raises(dataclasses.FrozenInstanceError):
        parse("2.5").value = 3.0


def test_param_with_one_value_per_row():
    # an array of values is a (P, L) constant jet, one value on each row with
    # its sign, and in a tree each row has the bits of its value's own pass
    sp = jets.space(1)
    jet = eval_jet(Param("c"), sp, [], {"c": np.array([0.0, 0.0, -0.0, -0.0, -0.0])},
                   [None] * 5)
    assert jet.shape == (5, sp.size) and not jet.any()
    assert [math.copysign(1.0, v) for v in jet[:, 0]] == [1.0, 1.0, -1.0, -1.0, -1.0]
    assert jet[4].tobytes() == eval_jet(Param("c"), sp, [], {"c": -0.0}, [None]).tobytes()
    tree = parse("c * sin(u1) + sqrt(c + 2) / c - c^2")
    u, c = np.array([0.3, 0.4, 0.5, 0.6]), np.array([1.5, -0.0, 0.25, -1e300])
    errors = [None] * 4
    with np.errstate(all="ignore"):
        rows = eval_jet(tree, sp, [jets.seed_variable(0, u, 1)], {"c": c}, errors)
        for p in range(4):
            own = [None]
            ref = eval_jet(tree, sp, [jets.seed_variable(0, u[p:p + 1], 1)], {"c": c[p]}, own)
            assert np.where(np.isnan(rows[p]), np.nan, rows[p]).tobytes() == \
                np.where(np.isnan(ref), np.nan, ref).reshape(-1).tobytes()
            assert str(errors[p]) == str(own[0])
    assert errors[0] is None and errors[1] is not None
