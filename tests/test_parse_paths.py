"""Every drift is read as a tree and lowered to a polynomial.

These tests hold the lowering to exact evaluation of the tree on random
drift texts, check that long sums lower without recursion, pin the tree
shapes of a model whose drifts do not all lower, and check that
serialization is a fixpoint of parsing.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odelump import (OdeSystem, Polynomial, monomial, parse_expression, parse_model,
                     serialize_model)
from odelump.cli import main
from odelump.driftexpr import Bin, Const, Var, drift_eval, to_polynomial
from odelump.parsing import _Parser
from conftest import read_whole

NAMES = ("a", "b", "c")

# every numeral shape the grammar has: integer, decimal, leading zeros,
# a p/q literal, zero
NUMERALS = st.sampled_from(["3", "0.25", "007", "4/3", "0", "1", "2.50", "10/4"])


def _factor():
    base = st.one_of(st.sampled_from(NAMES), NUMERALS,
                     st.sampled_from(["a/2", "b/0.5", "c/-3"]))
    return st.tuples(st.sampled_from(["", "", "-"]), base).map("".join)


_TERMS = st.lists(_factor(), min_size=1, max_size=4).map("*".join)
# a few shapes that are not products of constants and variables: parentheses,
# division by a variable or by zero, and min/abs calls
_OTHER = st.sampled_from(["(a + 1)", "a/b", "a/0", "min(a, b)", "abs(c)", "2*(b - c)"])


@st.composite
def drift_texts(draw, other=False):
    terms = draw(st.lists(st.one_of(_TERMS, _OTHER) if other else _TERMS,
                          min_size=1, max_size=5))
    out = draw(st.sampled_from(["", "-"])) + terms[0]
    for term in terms[1:]:
        out += draw(st.sampled_from([" + ", " - ", "+", "-"])) + term
    return out


# shapes that lower although they are not products of constants and variables
_NESTED = st.sampled_from(["(a + 1)", "2*(b - c)", "(a - b)*(a + b)/3",
                           "-(a*b - 1/2)", "c/(1 + 1)", "a/-4"])
# shapes that divide by zero or by a variable, or call min/abs: never lower
_NOT_LOWERING = st.sampled_from(["a/b", "a/0", "b/(c - c)", "1/(a*0)",
                                 "min(a, b)", "abs(c)"])
_JOINS = st.sampled_from([" + ", " - ", "*"])
POINTS = ((Fraction(1, 2), Fraction(-3), Fraction(5, 7)),
          (Fraction(-7, 5), Fraction(11, 2), Fraction(3)),
          (Fraction(2), Fraction(1, 3), Fraction(-4, 9)))


@given(drift_texts(), st.lists(st.tuples(_JOINS, _NESTED), max_size=2),
       st.one_of(st.none(), st.tuples(_JOINS, _NOT_LOWERING)))
@settings(deadline=None)
def test_sum_of_products_matches_tree(text, nested, spoiler):
    """A lowered drift takes the tree's exact values; a drift that divides by
    zero or by a variable, or calls min or abs, does not lower."""
    text += "".join(join + piece for join, piece in nested)
    if spoiler is not None:
        text += "".join(spoiler)
    tree = parse_expression(text, NAMES)
    poly = to_polynomial(tree)
    if spoiler is not None:
        assert poly is None
        return
    for point in POINTS:
        assert poly.eval(point) == drift_eval(tree, point)


LONG_NAMES = tuple(f"x{i}" for i in range(100))
# 5000 distinct terms 3*xi*xj, i <= j, alternately added and subtracted
LONG_PAIRS = [(i, j) for i in range(100) for j in range(i, 100)][:5000]
LONG_SUM = "3*x0*x0" + "".join(
    f" {'-' if k % 2 else '+'} 3*x{i}*x{j}" for k, (i, j) in enumerate(LONG_PAIRS) if k)


def test_long_sum_lowers():
    poly = to_polynomial(parse_expression(LONG_SUM, LONG_NAMES))
    assert poly.monomial_count() == 5000
    point = [Fraction(i + 1, 7) for i in range(100)]
    assert poly.eval(point) == sum(
        (-3 if k % 2 else 3) * point[i] * point[j] for k, (i, j) in enumerate(LONG_PAIRS))


def test_long_drift_in_a_commented_text_is_read_whole():
    text = ("begin model\nbegin init\n"
            + "".join(f"  {nm} = 1\n" for nm in LONG_NAMES)
            + f"end init\nbegin ode\n  d(x0) = {LONG_SUM}\nend ode\nend model\n")
    commented = text.replace("begin model\n", "begin model  // one long drift\n", 1)
    expected = _Parser(text).parse_model()
    assert read_whole(commented) == expected
    start = time.perf_counter()
    doc = parse_model(commented)
    assert time.perf_counter() - start < 1.0
    assert doc == expected


@given(drift_texts(other=True))
@settings(max_examples=200, deadline=None)
def test_drift_paths_agree_inside_models(text):
    """A drift reads the same in a model as on its own, on either path."""
    doc = parse_model("begin model begin init a=1 b=2 c=3 end init "
                      f"begin ode d(a) = {text} d(b) = a*b - 1/3 end ode end model")
    tree = parse_expression(text, NAMES)
    lowered = to_polynomial(tree)
    if lowered is None:
        assert doc.system.drifts[0] == tree
        assert doc.system.drifts[1] == parse_expression("a*b - 1/3", NAMES)
    else:
        assert doc.system.drifts[0] == lowered


MIXED = """\
begin model
begin init
  x = 1
  y = 2
  z = 1
end init
begin ode
  d(x) = x - y
  d(y) = 2*x/3
  d(z) = min(x, y)
end ode
begin partition
  {x, y}, {z}
end partition
end model
"""

MIXED_BDE_SCRIPT = """\
(set-logic QF_NRA)
(declare-const x Real)
(declare-const y Real)
(declare-const z Real)
(assert (not (=> (and (= x y) (not (= 3 0))) (= (- x y) (/ (* 2 x) 3)))))
(check-sat)
(get-model)
"""


def test_mixed_model_keeps_tree_shapes(tmp_path, capsys):
    drifts = parse_model(MIXED).system.drifts
    assert drifts == (
        Bin("sub", Var(0), Var(1)),
        Bin("div", Bin("mul", Const(Fraction(2)), Var(0)), Const(Fraction(3))),
        Bin("min", Var(0), Var(1)),
    )
    model = tmp_path / "mixed.ode"
    model.write_text(MIXED)
    out = tmp_path / "mixed.smt2"
    assert main(["convert", "--to", "smt2", "--mode", "bde",
                 "--in", str(model), "--out", str(out)]) == 0
    assert out.read_text() == MIXED_BDE_SCRIPT


_COEFFS = st.one_of(st.integers(-5, 5).map(Fraction),
                    st.fractions(min_value=-4, max_value=4, max_denominator=12))


@st.composite
def systems(draw):
    n = draw(st.integers(1, 4))
    drifts = []
    for _ in range(n):
        terms = draw(st.lists(
            st.tuples(_COEFFS, st.lists(st.integers(0, n - 1), max_size=3)),
            max_size=4))
        drifts.append(Polynomial(
            [monomial(c, [(v, 1) for v in vs]) for c, vs in terms]))
    init = draw(st.lists(_COEFFS, min_size=n, max_size=n))
    return OdeSystem.make([f"v{i}" for i in range(n)], drifts, init)


@given(systems(), st.sampled_from(["ode", "rn"]))
@settings(max_examples=150, deadline=None)
def test_serialization_is_a_fixpoint_of_parsing(system, form):
    text = serialize_model(system, form=form)
    assert serialize_model(parse_model(text), form=form) == text
    if form == "ode":
        assert parse_model(text).system == system
