"""``to_polynomial`` lowers every tree its reference lowers, to the same
polynomial, and declines the rest; it runs on an explicit stack.

The reference is a copy of the lowering the single fold replaced, with
each product's exponent vector normalized by ``_canon``: a loop over the
sum's add/sub chain, ``_product_term`` for summands that are products of
constants and variables, and ``Polynomial`` arithmetic, called
recursively, for every other summand.
"""

import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from odelump import Polynomial, monomial, parse_expression
from odelump.driftexpr import Abs, Bin, Const, DriftExpr, Var, drift_eval, to_polynomial
from odelump.poly import _add_term, _canon, _from_accumulator


def reference_to_polynomial(expr: DriftExpr) -> Polynomial | None:
    """Lower to a polynomial when possible, else None.

    Division is accepted only by a subexpression that lowers to a nonzero
    constant; min/max/abs never lower.  It does not recurse over sums: the
    chain of add/sub nodes is walked with a loop, and every summand that is
    a product of constants and variables goes straight into one term
    accumulator.  Only other summands are lowered recursively.
    """
    acc: dict = {}
    den = 1
    others = []
    summands = [(expr, 1)]
    while summands:
        e, sign = summands.pop()
        if isinstance(e, Bin) and e.op in ("add", "sub"):
            summands.append((e.lhs, sign))
            summands.append((e.rhs, -sign if e.op == "sub" else sign))
            continue
        term = _product_term(e)
        if term is not None:
            num, q, variables = term
            den = _add_term(acc, den, _canon([(v, 1) for v in variables]), sign * num, q)
            continue
        if isinstance(e, Abs) or e.op in ("min", "max"):
            return None
        lhs = reference_to_polynomial(e.lhs)
        if lhs is None:
            return None
        rhs = reference_to_polynomial(e.rhs)
        if rhs is None:
            return None
        if e.op == "mul":
            p = lhs * rhs
        elif rhs.degree() == 0:  # division by a nonzero constant
            p = lhs.scale(1 / rhs.terms[0].coeff)
        else:
            return None
        others.append(p if sign > 0 else -p)
    return Polynomial.sum([_from_accumulator(acc, den), *others])


def _product_term(expr: DriftExpr):
    """``(num, q, variables)`` when ``expr`` is num/q, q > 0, times the
    product of ``variables``: a product of constants and variables, with
    unary minus, in which ``/`` divides only by a nonzero constant.  None
    for anything else."""
    num = q = 1
    variables = []
    factors = [expr]
    while factors:
        e = factors.pop()
        if isinstance(e, Var):
            variables.append(e.index)
        elif isinstance(e, Const):
            num *= e.value.numerator
            q *= e.value.denominator
        elif not isinstance(e, Bin):
            return None
        elif e.op == "mul":
            factors.append(e.lhs)
            factors.append(e.rhs)
        elif e.op == "sub" and isinstance(e.lhs, Const) and not e.lhs.value:
            num = -num  # unary minus
            factors.append(e.rhs)
        elif e.op == "div" and isinstance(e.rhs, Const) and e.rhs.value:
            num *= e.rhs.value.denominator
            q *= e.rhs.value.numerator
            factors.append(e.lhs)
        else:
            return None
    return (num, q, variables) if q > 0 else (-num, -q, variables)


NAMES = ("x", "y", "z")
# zero, negative and non-dyadic constants, weighted towards small integers
CONSTS = st.sampled_from(["0", "1", "2", "-1", "-3", "1/3", "-2/7", "5/6", "0.25"]).map(
    lambda text: Const(Fraction(text)))
LEAVES = st.one_of(CONSTS, st.integers(0, 2).map(Var))
RING = st.sampled_from(["add", "sub", "mul"])
# divisors that lower to a constant, zero among them
CONST_TREES = st.recursive(CONSTS, lambda kids: st.builds(Bin, RING, kids, kids),
                           max_leaves=3)
Y_MINUS_Y = Bin("sub", Var(1), Var(1))


def _spoil(e, other, how):
    """A node over ``e`` that never lowers."""
    if how == "abs":
        return Abs(e)
    if how == "y - y":
        return Bin("div", e, Y_MINUS_Y)
    return Bin(how, e, other)  # min, max, or division by a tree that may vary


def trees():
    """Trees over x, y and z of every operator; about half of them lower."""
    return st.recursive(LEAVES, lambda kids: st.one_of(
        st.builds(Bin, RING, kids, kids),
        st.builds(Bin, RING, kids, kids),
        st.builds(lambda e: Bin("sub", Const(Fraction(0)), e), kids),  # unary minus
        st.builds(lambda e, c: Bin("div", e, c), kids, CONST_TREES),
        st.builds(lambda e: Bin("div", e, Bin("add", Y_MINUS_Y, Const(Fraction(2)))), kids),
        st.builds(_spoil, kids, kids, st.sampled_from(["abs", "y - y", "min", "max", "div"])),
    ), max_leaves=24)


def _same(tree):
    new, ref = to_polynomial(tree), reference_to_polynomial(tree)
    if ref is None:
        assert new is None
    else:
        assert new is not None
        assert (new.exps, new.nums, new.den) == (ref.exps, ref.nums, ref.den)
    return new


@given(trees())
@settings(deadline=None)
def test_lowering_matches_the_reference(tree):
    _same(tree)


TEXTS = [
    "x/(y - y)", "x/(y - y + 2)", "x/0", "x/-4", "-x*y", "--x", "-(x*y - 1/2)",
    "((x + 1)*(y - (z - 2)))/3", "(((x)))*((y + (z)))", "2*(x - (y - (z + 1)))/-6",
    "x/(2*y/y)", "(x - y)*(x + y)/3 - x*x/3", "0*min(x, y)", "abs(x) - abs(x)",
    "1/3*x + 2/3*x - x", "(x + y)/(1/3 - 1/3)", "(x*y)/(0.5 - 1/3*3/2 + 1)",
    "x/(y + 2)", "x/(2 - y*y)", "x*y + z + x/-3", "x/-3 - (x*y + z)",
    "-(x/-2) - (y - z)/-5", "(x + y)/-2 - (x - y)/(0 - 4)",
]


def test_lowering_matches_the_reference_on_texts():
    for text in TEXTS:
        _same(parse_expression(text, NAMES))


def test_long_product_lowers():
    names = ("x1", "x2", "x3")
    tree = parse_expression("(x1 + x2)*" + "*".join(["x3"] * 2999), names)
    assert to_polynomial(tree) == Polynomial(
        [monomial(1, {0: 1, 2: 2999}), monomial(1, {1: 1, 2: 2999})])


def test_product_merges_like_terms():
    # unmerged, the 20-fold product of (x1 + x2) has 2**20 terms
    tree = parse_expression("*".join(["(x1 + x2)"] * 20), ("x1", "x2"))
    start = time.perf_counter()
    poly = to_polynomial(tree)
    assert time.perf_counter() - start < 1.0
    assert poly.monomial_count() == 21
    assert poly.eval([Fraction(1), Fraction(1)]) == 2 ** 20


RECURSION_GUARD = textwrap.dedent("""\
    import sys
    from fractions import Fraction
    from odelump.driftexpr import Bin, Const, Var, drift_eval, to_polynomial

    def chain(right):
        # 300 levels of +, *, - and /2 with x1, x2 or 3 at each level,
        # the chain on the left of each node, or on its right
        e = Var(0)
        for k in range(300):
            op = ("add", "mul", "sub", "div")[k % 4]
            leaf = (Var(1), Var(2), Const(Fraction(3)))[k % 3]
            if op == "div":
                leaf = Const(Fraction(2))
            e = Bin(op, leaf, e) if right and op != "div" else Bin(op, e, leaf)
        return e

    point = [Fraction(1, 2), Fraction(2), Fraction(-1)]
    sys.setrecursionlimit(100)
    for right in (False, True):
        e = chain(right)
        assert to_polynomial(e).eval(point) == drift_eval(e, point)
    print("ok")
""")


def test_lowering_runs_under_a_small_recursion_limit():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", RECURSION_GUARD],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"


def test_right_nested_sum_lowers_in_linear_time():
    # each sum adds its smaller operand into the larger: added the other way
    # round, x0 - (x1 + (x2 - ...)) costs quadratic time
    tree = Const(Fraction(1))
    for k in range(5000):
        tree = Bin("sub" if k % 2 else "add", Bin("mul", Var(k % 100), Var(k // 100)), tree)
    start = time.perf_counter()
    poly = to_polynomial(tree)
    assert time.perf_counter() - start < 1.0
    point = [Fraction(i + 1, 7) for i in range(100)]
    assert poly.eval(point) == drift_eval(tree, point)
