"""The tree walkers against the recursive walkers they replaced.

The functions in the reference section are the recursive walkers as they
stood before every walk moved onto the explicit stack of
``driftexpr._fold`` and ``driftexpr._nodes``, copied verbatim but for the
SMT-LIB text of ``min``, ``max`` and ``abs``: each is one application of a
function that ``smt_emit`` defines once (``FUNCTIONS``).  On shallow
random trees, with all six operators, ``abs``, zero and negative constants
and divisions by subexpressions that evaluate to zero, the new code must
give the same model text, SMT-LIB text, denominators, variables,
substitutions, exact values (or the same ``DivisionByZero`` message) and,
bit for bit, the same floats as the per-node closures (or an error where
they raise one), also on chains deep enough that ``sim`` computes their deep
subtrees first.
"""

from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from odelump import OdeSystem
from odelump import driftexpr as new
from odelump import smt as new_smt
from odelump.driftexpr import Abs, Bin, Const, DriftExpr, Var
from odelump.errors import DivisionByZero
from odelump.sim import _DEPTH, _compile_system
from odelump.smt import Phi, _emit_conjunction, _emit_rational, _symbol

# -- reference: the recursive walkers, verbatim -----------------------------------


def compile_expr(expr: DriftExpr, number):
    """Compile ``expr`` to a function of the values (a sequence or mapping
    over variable indices); ``number`` converts the constants: ``Fraction``
    for exact evaluation, ``float`` for integration.  A division whose ``/``
    raises ZeroDivisionError raises :class:`DivisionByZero` naming the
    subexpression; numpy's own division rules are left as they are."""
    if isinstance(expr, Const):
        c = number(expr.value)
        return lambda x: c
    if isinstance(expr, Var):
        i = expr.index
        return lambda x: x[i]
    if isinstance(expr, Abs):
        f = compile_expr(expr.arg, number)
        return lambda x: abs(f(x))
    fa = compile_expr(expr.lhs, number)
    fb = compile_expr(expr.rhs, number)
    if expr.op == "div":
        def div(x):
            try:
                return fa(x) / fb(x)
            except ZeroDivisionError:
                raise DivisionByZero(format_expr(expr)) from None
        return div
    return {
        "add": lambda x: fa(x) + fb(x),
        "sub": lambda x: fa(x) - fb(x),
        "mul": lambda x: fa(x) * fb(x),
        "min": lambda x: min(fa(x), fb(x)),
        "max": lambda x: max(fa(x), fb(x)),
    }[expr.op]


def drift_eval(expr: DriftExpr, values) -> Fraction:
    """Exact evaluation over rationals; min/max/abs are set-theoretic.
    Raises :class:`DivisionByZero` naming the subexpression whose denominator
    evaluates to zero.  ``values`` is a sequence or mapping over indices."""
    return compile_expr(expr, Fraction)(values)


def expr_variables(expr: DriftExpr) -> frozenset:
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.index,))
    if isinstance(expr, Abs):
        return expr_variables(expr.arg)
    return expr_variables(expr.lhs) | expr_variables(expr.rhs)


def substitute_exprs(expr: DriftExpr, sigma: Mapping[int, DriftExpr]) -> DriftExpr:
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return sigma.get(expr.index, expr)
    if isinstance(expr, Abs):
        return Abs(substitute_exprs(expr.arg, sigma))
    return Bin(expr.op,
               substitute_exprs(expr.lhs, sigma),
               substitute_exprs(expr.rhs, sigma))


def denominators(expr: DriftExpr) -> list:
    """All syntactic denominators, outermost first (duplicates removed)."""
    found: list = []

    def walk(e):
        if isinstance(e, Abs):
            walk(e.arg)
        elif isinstance(e, Bin):
            if e.op == "div" and e.rhs not in found:
                found.append(e.rhs)
            walk(e.lhs)
            walk(e.rhs)

    walk(expr)
    return found


_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2}


def format_expr(expr: DriftExpr, names=None) -> str:
    """Render in model-grammar syntax."""

    def name_of(i):
        return names[i] if names is not None else f"x{i}"

    def go(e, parent_prec):
        if isinstance(e, Const):
            v = e.value
            s = str(v)
            if v < 0 and parent_prec > 0:
                return f"({s})"
            return s
        if isinstance(e, Var):
            return name_of(e.index)
        if isinstance(e, Abs):
            return f"abs({go(e.arg, 0)})"
        if e.op in ("min", "max"):
            return f"{e.op}({go(e.lhs, 0)}, {go(e.rhs, 0)})"
        prec = _PRECEDENCE[e.op]
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
        left = go(e.lhs, prec)
        # right operand of - and / needs parens at equal precedence
        right = go(e.rhs, prec + (1 if e.op in ("sub", "div") else 0))
        out = f"{left} {sym} {right}"
        if prec < parent_prec:
            return f"({out})"
        return out

    return go(expr, 0)


def _emit_expr(e: DriftExpr, names: Sequence[str]) -> str:
    if isinstance(e, Const):
        return _emit_rational(e.value)
    if isinstance(e, Var):
        return _symbol(names[e.index])
    if isinstance(e, Abs):
        a = _emit_expr(e.arg, names)
        return f"(abs! {a})"
    a = _emit_expr(e.lhs, names)
    b = _emit_expr(e.rhs, names)
    if e.op in ("min", "max"):
        return f"({e.op}! {a} {b})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
    return f"({sym} {a} {b})"


def smt_emit(phi: Phi, names: Sequence[str]) -> str:
    """SMT-LIB 2 script asserting the negation of ``phi``.

    Declares one Real constant per name in ``names``; every denominator of
    an equation side is guarded in the antecedent; ends with
    (check-sat)(get-model), so unsat answers may be followed by a
    model-unavailable error, which the reply parser tolerates.
    """
    def equation(lhs, rhs):
        return f"(= {_emit_expr(lhs, names)} {_emit_expr(rhs, names)})"

    body = "true"
    if phi.consequent:
        guards = dict.fromkeys(d for eq in phi.antecedent + phi.consequent
                               for side in eq for d in denominators(side))
        antecedent = [equation(*eq) for eq in phi.antecedent]
        antecedent.extend(f"(not {equation(d, Const(Fraction(0)))})" for d in guards)
        consequent = [equation(*eq) for eq in phi.consequent]
        body = f"(=> {_emit_conjunction(antecedent)} {_emit_conjunction(consequent)})"
    lines = ["(set-logic QF_NRA)"]
    lines.extend(f"(declare-const {_symbol(nm)} Real)" for nm in names)
    lines.extend(f"(define-fun {fun})" for op, fun in FUNCTIONS.items() if f"({op}! " in body)
    lines.append(f"(assert (not {body}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


FUNCTIONS = {"min": "min! ((a! Real) (b! Real)) Real (ite (<= a! b!) a! b!)",
             "max": "max! ((a! Real) (b! Real)) Real (ite (>= a! b!) a! b!)",
             "abs": "abs! ((a! Real)) Real (ite (>= a! 0) a! (- a!))"}


# -- the comparisons ----------------------------------------------------------------

NAMES = ("a", "b", "min", "c")  # "min" is quoted in SMT-LIB text
VALUES = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), 3, Fraction(1, 3), Fraction(-5, 7)]

LEAVES = st.one_of(st.sampled_from(VALUES).map(lambda v: Const(Fraction(v))),
                   st.integers(0, len(NAMES) - 1).map(Var))
TREES = st.recursive(
    LEAVES,
    lambda sub: st.one_of(st.builds(Bin, st.sampled_from(new._BIN_OPS), sub, sub),
                          st.builds(Abs, sub)),
    max_leaves=12)
POINTS = st.lists(st.sampled_from(VALUES).map(Fraction),
                  min_size=len(NAMES), max_size=len(NAMES))
EQUATIONS = st.lists(st.tuples(TREES, TREES), max_size=3)

A, B, ZERO = Var(0), Var(1), Const(Fraction(0))
# a/(b - a) + 2/(b - a), over a denominator that is zero at a = b, and (a + b)
# next to a + (b), which print alike but are different trees
SHARED = Bin("add", Bin("div", A, Bin("sub", B, A)),
             Bin("div", Const(Fraction(2)), Bin("sub", B, A)))
ASSOC = Bin("add", Bin("div", A, Bin("add", Bin("add", A, B), ZERO)),
            Bin("div", B, Bin("add", A, Bin("add", B, ZERO))))
# ints as constants, built through the API: b + 2 is the same denominator
# twice, and min(2, 3) is exactly 2
PLAIN = Bin("add", Bin("div", A, Bin("add", B, Const(2))),
            Bin("div", Const(1), Bin("add", B, Const(Fraction(2)))))
INTS = Bin("min", Const(2), Const(3))


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (ZeroDivisionError, DivisionByZero, FloatingPointError) as exc:
        return type(exc), str(exc)
    return "value", value


@given(TREES, POINTS)
@example(SHARED, [Fraction(1)] * len(NAMES))
@example(ASSOC, [Fraction(1), Fraction(-1), Fraction(2), Fraction(0)])
@example(PLAIN, [Fraction(1), Fraction(1, 3), Fraction(0), Fraction(0)])
@example(INTS, [Fraction(1)] * len(NAMES))
def test_scans_text_and_exact_values_match(tree, point):
    assert new.format_expr(tree) == format_expr(tree)
    assert new.format_expr(tree, NAMES) == format_expr(tree, NAMES)
    assert new_smt._emit_expr(tree, NAMES) == _emit_expr(tree, NAMES)
    assert new.denominators(tree) == denominators(tree)
    assert new.expr_variables(tree) == expr_variables(tree)
    got, want = _outcome(new.drift_eval, tree, point), _outcome(drift_eval, tree, point)
    assert got == want and type(got[1]) is type(want[1])


@given(TREES, st.dictionaries(st.integers(0, len(NAMES) - 1), TREES, max_size=3))
def test_substitution_matches(tree, sigma):
    assert new.substitute_exprs(tree, sigma) == substitute_exprs(tree, sigma)


@given(EQUATIONS, EQUATIONS)
@example([(SHARED, A)], [(ASSOC, SHARED)])
@example([], [(PLAIN, A)])
def test_smt_scripts_match(antecedent, consequent):
    phi = Phi(tuple(antecedent), tuple(consequent))
    assert new_smt.smt_emit(phi, NAMES) == smt_emit(phi, NAMES)


@given(TREES, POINTS)
@example(SHARED, [Fraction(1)] * len(NAMES))
@example(Bin("div", Const(Fraction(1)), ZERO), [Fraction(1)] * len(NAMES))
@example(PLAIN, [Fraction(1)] * len(NAMES))
def test_float_evaluation_matches_bit_for_bit(tree, point):
    _assert_same_floats(tree, point)


CHAIN_OPS = new._BIN_OPS + ("abs",)
CHAIN_LEAVES = [Const(Fraction(v)) for v in VALUES] + [Var(i) for i in range(len(NAMES))]
# each step wraps the chain so far in one node: an operator, a leaf, and
# whether the leaf goes left, drawn as one integer so that long chains draw fast
STEPS = st.lists(st.integers(0, len(CHAIN_OPS) * len(CHAIN_LEAVES) * 2 - 1),
                 min_size=_DEPTH, max_size=3 * _DEPTH)


def _chain(steps):
    tree = Var(0)
    for step in steps:
        (op, leaf), left = divmod(step // 2, len(CHAIN_LEAVES)), step % 2
        op, leaf = CHAIN_OPS[op], CHAIN_LEAVES[leaf]
        tree = Abs(tree) if op == "abs" else Bin(op, leaf, tree) if left else Bin(op, tree, leaf)
    return tree


@given(STEPS, POINTS)
def test_float_evaluation_of_deep_chains_matches_bit_for_bit(steps, point):
    """Two chains deeper than ``sim._DEPTH``, side by side, whose deep
    subtrees are computed first, give the floats of the recursive closures."""
    _assert_same_floats(Bin("sub", _chain(steps), _chain(steps[::-1])), point)


def _assert_same_floats(tree, point):
    # integrate reports every zero division alike, as DivisionByZero at its
    # time, so an error need only meet an error
    system = OdeSystem.make(NAMES, [tree] + [Const(Fraction(0))] * (len(NAMES) - 1),
                            [0] * len(NAMES))
    x = np.array([float(v) for v in point])
    f = _compile_system(system)
    with np.errstate(divide="raise", invalid="ignore", over="ignore"):
        _outcome(f, x + 1.0)  # no value of a call at another point may leak into the next
        got = _outcome(lambda: f(x)[0])
        want = _outcome(compile_expr(tree, float), x)
    if got[0] == "value" and want[0] == "value":
        got, want = np.float64(got[1]).tobytes(), np.float64(want[1]).tobytes()
    else:
        got, want = got[0] == "value", want[0] == "value"
    assert got == want
