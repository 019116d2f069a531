from fractions import Fraction

import pytest

from odelump import (Abs, Bin, Const, DivisionByZero, OdeSystem, Polynomial, Var,
                     drift_eval, expr_variables, poly_to_expr, to_polynomial)
from odelump.driftexpr import denominators, format_expr, substitute_exprs
from odelump.parsing import parse_expression
from conftest import polynomial_of

NAMES = ("x1", "x2", "x3")


def E(text):
    return parse_expression(text, NAMES)


def F(*values):
    return tuple(Fraction(v) for v in values)


def test_min_is_set_theoretic():
    assert drift_eval(E("min(x1, x2)"), F(2, 3, 0)) == 2
    assert drift_eval(E("max(x1, x2)"), F(2, 3, 0)) == 3


def test_abs_of_negation():
    assert drift_eval(E("abs(-x1)"), F(5, 0, 0)) == 5


def test_division_by_zero_names_subexpression():
    with pytest.raises(DivisionByZero) as err:
        drift_eval(E("x1/x2"), F(1, 0, 0))
    # subexpression rendered with default index names
    assert "x0 / x1" in str(err.value)


def test_exact_rational_evaluation():
    assert drift_eval(E("x1/3 + 1/6"), F(Fraction(1, 2), 0, 0)) == Fraction(1, 3)


def test_expr_variables():
    assert expr_variables(E("min(x1, x3) * 2")) == frozenset({0, 2})
    assert expr_variables(Const(Fraction(1))) == frozenset()


def test_denominators_collects_unique():
    e = E("x1/x2 + x3/x2 + 1/(x1 - 1)")
    found = denominators(e)
    assert E("x2") in found
    assert len(found) == 2


def test_rename_vars():
    e = substitute_exprs(E("min(x1, x2)"), {0: Var(2), 1: Var(0)})
    assert drift_eval(e, F(7, 0, 3)) == 3


def test_to_polynomial_plain_arithmetic():
    assert to_polynomial(E("(x1 + x2) * (x1 - x2)")) == \
        polynomial_of("x1*x1 - x2*x2", NAMES)


def test_to_polynomial_constant_division():
    assert to_polynomial(E("x1/2")) == Polynomial.variable(0).scale(Fraction(1, 2))
    assert to_polynomial(E("x1/(3 - 1)")) == Polynomial.variable(0).scale(Fraction(1, 2))


def test_to_polynomial_rejections():
    assert to_polynomial(E("x1/x2")) is None
    assert to_polynomial(E("min(x1, x2)")) is None
    assert to_polynomial(E("abs(x1)")) is None
    assert to_polynomial(E("x1/0")) is None


def test_poly_to_expr_agrees_with_poly_eval():
    p = polynomial_of("-x1 + 5/2*x2*x2 - 1/3", NAMES)
    e = poly_to_expr(p)
    point = F(Fraction(2, 3), -2, 1)
    assert drift_eval(e, point) == p.eval(point)


def test_format_round_trips():
    for text in ("min(x1, x2)", "abs(x1 - x2) / (x3 + 1)", "x1 - (x2 - x3)",
                 "0 - x1", "x1 / x2 / x3", "(x1 + x2) * x3"):
        e = E(text)
        again = E(format_expr(e, NAMES))
        point = F(Fraction(5, 7), Fraction(-3, 2), Fraction(11, 4))
        assert drift_eval(again, point) == drift_eval(e, point)


def test_bad_operator_rejected():
    with pytest.raises(ValueError):
        Bin("pow", Var(0), Var(1))


def test_unary_abs_structure():
    e = E("abs(x2)")
    assert isinstance(e, Abs)
    assert e.arg == Var(1)


def test_equality_hash_and_repr_follow_the_tree():
    tree = Bin("add", Var(0), Abs(Bin("min", Const(Fraction(2)), Var(1))))
    assert repr(tree) == ("Bin(op='add', lhs=Var(index=0), rhs=Abs(arg=Bin(op='min', "
                          "lhs=Const(value=Fraction(2, 1)), rhs=Var(index=1))))")
    same = Bin("add", Var(0), Abs(Bin("min", Const(2), Var(1))))
    assert tree == same and hash(tree) == hash(same)
    for other in (Bin("add", Var(0), Abs(Bin("max", Const(2), Var(1)))),
                  Bin("add", Abs(Bin("min", Const(2), Var(1))), Var(0)),
                  Bin("add", Var(0), Bin("min", Const(2), Var(1))), Abs(tree), Var(0)):
        assert tree != other


def _deep(depth):
    """A tree ``depth`` operators deep, nested on both sides in turn."""
    e = Var(0)
    for i in range(depth):
        e = Bin("sub", Const(Fraction(i)), e) if i % 2 else Abs(Bin("div", e, Var(1)))
    return e


def test_deep_trees_compare_hash_and_repr():
    a, b = _deep(5000), _deep(5000)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and repr(a).startswith("Bin(op='sub', lhs=Const(value=")
    assert a != _deep(4999)
    names = ("x", "y")
    assert (OdeSystem(names, (a, Var(0)), (Fraction(1), Fraction(2)))
            == OdeSystem(names, (b, Var(0)), (Fraction(1), Fraction(2))))
