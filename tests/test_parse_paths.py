"""The two drift paths of the parser agree.

A plain sum of products is read straight into monomials; anything else is
read as a drift-expression tree.  These tests hold the first path to the
second on random drift texts, pin the tree shapes of a model that mixes
both, and check that serialization is a fixpoint of parsing.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from odelump import (OdeSystem, monomial, parse_expression, parse_model,
                     parse_polynomial, poly_normalize, serialize_model)
from odelump.cli import main
from odelump.driftexpr import Bin, Const, Var, to_polynomial

NAMES = ("a", "b", "c")

# every numeral shape the grammar has: integer, decimal, leading zeros,
# a p/q literal, zero
NUMERALS = st.sampled_from(["3", "0.25", "007", "4/3", "0", "1", "2.50", "10/4"])


def _factor():
    base = st.one_of(st.sampled_from(NAMES), NUMERALS,
                     st.sampled_from(["a/2", "b/0.5", "c/-3"]))
    return st.tuples(st.sampled_from(["", "", "-"]), base).map("".join)


_TERMS = st.lists(_factor(), min_size=1, max_size=4).map("*".join)
# a few shapes that leave the sum-of-products path: parentheses, division by a
# variable or by zero, and min/abs calls
_OTHER = st.sampled_from(["(a + 1)", "a/b", "a/0", "min(a, b)", "abs(c)", "2*(b - c)"])


@st.composite
def drift_texts(draw, other=False):
    terms = draw(st.lists(st.one_of(_TERMS, _OTHER) if other else _TERMS,
                          min_size=1, max_size=5))
    out = draw(st.sampled_from(["", "-"])) + terms[0]
    for term in terms[1:]:
        out += draw(st.sampled_from([" + ", " - ", "+", "-"])) + term
    return out


@given(drift_texts())
@settings(max_examples=300, deadline=None)
def test_sum_of_products_matches_tree(text):
    assert parse_polynomial(text, NAMES) == to_polynomial(parse_expression(text, NAMES))


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
        drifts.append(poly_normalize(
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
