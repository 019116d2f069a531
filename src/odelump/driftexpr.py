"""Expression trees for general (non-polynomial) drifts.

The drift language covers exactly: rational constants, variables, the four
arithmetic operators, binary min/max, and unary absolute value.  Subtraction
and division are kept as primitive nodes rather than rewritten, so emitted
solver scripts mirror the source text.

Trees are walked only by ``_nodes`` (pre-order) and ``_fold`` (post-order),
on an explicit stack, here and in ``smt`` and ``sim``, so drifts of any depth
work; ``==`` and ``hash`` compare pre-orders, and ``repr`` is built on a
stack too.  Still recursive: the closures ``sim`` evaluates drifts with, at
most ``sim._DEPTH`` calls deep.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import DivisionByZero, _ProductTooLarge
from .poly import Polynomial, _add_term, _from_accumulator, _mul_terms

# The most pairs of terms one product may multiply when drift text is
# lowered.  A product of k two-term sums has 2^k terms, so a 200-byte text
# could otherwise ask for millions.  On a 2-core development host, reading
# a product of 14 such sums, which reaches the bound, takes 0.13 s and 20 MB
# (15 sums: 0.29 s and 44 MB); no golden model or benchmark workload
# multiplies more than 4 pairs of terms in one product.
_PRODUCT_LIMIT = 1 << 14

_BIN_OPS = ("add", "sub", "mul", "div", "min", "max")


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int


class _Node:
    """``==``, ``hash`` and the dataclass ``repr`` of Bin and Abs, without
    recursion.  A tree is keyed on its pre-order, each leaf as itself and each
    operator by its name: that sequence spells exactly one tree."""

    def _key(self) -> tuple:
        return tuple(e if isinstance(e, (Const, Var)) else getattr(e, "op", "abs")
                     for e in _nodes(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            e = stack.pop()
            if isinstance(e, Bin):
                out.append(f"Bin(op={e.op!r}, lhs=")
                stack += (")", e.rhs, ", rhs=", e.lhs)
            elif isinstance(e, Abs):
                out.append("Abs(arg=")
                stack += (")", e.arg)
            else:
                out.append(e if isinstance(e, str) else repr(e))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Bin(_Node):
    op: str
    lhs: "DriftExpr"
    rhs: "DriftExpr"

    def __post_init__(self):
        if self.op not in _BIN_OPS:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True, eq=False, repr=False)
class Abs(_Node):
    arg: "DriftExpr"


DriftExpr = Union[Const, Var, Bin, Abs]


def _nodes(expr: DriftExpr, right_first=False):
    """A list of every node of ``expr`` in pre-order, left child first (or
    right child first), built on an explicit stack."""
    order, stack = [], [expr]
    while stack:
        e = stack.pop()
        order.append(e)
        if isinstance(e, Bin):
            stack += (e.lhs, e.rhs) if right_first else (e.rhs, e.lhs)
        elif isinstance(e, Abs):
            stack.append(e.arg)
    return order


def _fold(expr: DriftExpr, leaf, node):
    """Post-order fold, left operand first: ``leaf(e)`` for a Const or Var,
    ``node(e, a, b)`` for a Bin or Abs (``b`` None) from its operands'
    results.  The right-first pre-order, reversed, is that post-order."""
    results = []
    for e in reversed(_nodes(expr, right_first=True)):
        if isinstance(e, Bin):
            b = results.pop()
            results[-1] = node(e, results[-1], b)
        elif isinstance(e, Abs):
            results[-1] = node(e, results[-1], None)
        else:
            results.append(leaf(e))
    return results[0]


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "div": operator.truediv, "min": min, "max": max}


def _apply(node, a, b):
    """The value of ``node`` from its operands' values.  A division whose
    ``/`` raises ZeroDivisionError raises :class:`DivisionByZero` naming the
    subexpression; numpy's own division rules are left as they are."""
    try:
        return abs(a) if isinstance(node, Abs) else _OPS[node.op](a, b)
    except ZeroDivisionError:
        raise DivisionByZero(format_expr(node)) from None


def drift_eval(expr: DriftExpr, values) -> Fraction:
    """Exact evaluation over rationals; min/max/abs are set-theoretic.
    Raises :class:`DivisionByZero` naming the first, left to right, of the
    subexpressions whose denominator evaluates to zero.  ``values`` is a
    sequence or mapping over indices."""
    return _fold(expr, lambda e: values[e.index] if isinstance(e, Var) else Fraction(e.value),
                 _apply)


def expr_variables(expr: DriftExpr) -> frozenset:
    return frozenset(e.index for e in _nodes(expr) if isinstance(e, Var))


def substitute_exprs(expr: DriftExpr, sigma: Mapping[int, DriftExpr]) -> DriftExpr:
    """Replace each variable whose index ``sigma`` maps by its image."""
    return _fold(expr, lambda e: sigma.get(e.index, e) if isinstance(e, Var) else e,
                 lambda e, a, b: Abs(a) if b is None else Bin(e.op, a, b))


def denominators(*exprs: DriftExpr) -> list:
    """All syntactic denominators of ``exprs``, outermost first and left
    before right, duplicates removed."""
    return list(dict.fromkeys(e.rhs for expr in exprs for e in _nodes(expr)
                              if isinstance(e, Bin) and e.op == "div"))


def to_polynomial(expr: DriftExpr) -> Polynomial | None:
    """Lower to a polynomial when possible, else None.

    Every subtree lowers to an ``{exps: numerator}`` accumulator over a
    nonzero denominator, whose sign negates the accumulator: a sum adds the
    smaller accumulator into the larger one, a product merges like terms as
    it builds them, and a divisor must lower to a nonzero constant.
    ``min``, ``max`` and ``abs`` never lower.  A product whose operands'
    term counts multiply to more than ``_PRODUCT_LIMIT`` raises
    :class:`~odelump.errors.TooLarge`, also below a node that does not
    lower.  :meth:`Polynomial.__mul__` has no such bound.
    """

    def leaf(e):
        if isinstance(e, Var):
            return {((e.index, 1),): 1}, 1
        return {(): e.value.numerator}, e.value.denominator

    def node(e, a, b):
        if b is None or a is None or e.op in ("min", "max"):
            return None  # an abs, min or max, or above one that did not lower
        (acc, den), (terms, q) = a, b
        if e.op == "mul":
            pairs = len(acc) * len(terms)
            if pairs > _PRODUCT_LIMIT:
                raise _ProductTooLarge(pairs, _PRODUCT_LIMIT)
            return _mul_terms(acc.items(), terms.items()), den * q
        if e.op == "div":
            c = terms.get((), 0)
            if not c or any(n for exps, n in terms.items() if exps):
                return None
            if q != 1:
                acc = {exps: n * q for exps, n in acc.items()}
            return acc, den * c
        sign = -1 if e.op == "sub" else 1
        if len(acc) < len(terms):  # a - b is -b + a
            (acc, den), (terms, q), sign = (terms, sign * q), (acc, den), 1
        for exps, n in terms.items():
            den = _add_term(acc, den, exps, sign * n, q)
        return acc, den

    lowered = _fold(expr, leaf, node)
    if lowered is None:
        return None
    acc, den = lowered
    if den < 0:
        acc, den = {exps: -n for exps, n in acc.items()}, -den
    return _from_accumulator(acc, den)


def sum_exprs(exprs) -> DriftExpr:
    """Left-nested sum of ``exprs``; the constant 0 when there are none."""
    total = None
    for e in exprs:
        total = e if total is None else Bin("add", total, e)
    return Const(Fraction(0)) if total is None else total


def poly_to_expr(p: Polynomial) -> DriftExpr:
    """Embed a polynomial into the expression language (sum of products)."""

    def product(m):
        factors: list = []
        if m.coeff != 1 or not m.exps:
            factors.append(Const(m.coeff))
        for v, e in m.exps:
            factors.extend(Var(v) for _ in range(e))
        term = factors[0]
        for f in factors[1:]:
            term = Bin("mul", term, f)
        return term

    return sum_exprs(product(m) for m in p.terms)


_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2}
_ATOM = 3  # variables, constants of at least 0, and calls never need parentheses


def format_expr(expr: DriftExpr, names=None) -> str:
    """Render in model-grammar syntax."""

    def leaf(e):
        if isinstance(e, Var):
            return names[e.index] if names is not None else f"x{e.index}", _ATOM
        # a negative constant is parenthesized as an operand of any operator
        return str(e.value), 0 if e.value < 0 else _ATOM

    def node(e, a, b):
        if isinstance(e, Abs):
            return f"abs({a[0]})", _ATOM
        if e.op in ("min", "max"):
            return f"{e.op}({a[0]}, {b[0]})", _ATOM
        prec = _PRECEDENCE[e.op]
        (left, p), (right, q) = a, b
        if p < prec:
            left = f"({left})"
        # the right operand of - and / needs parentheses at equal precedence
        if q < prec or q == prec and e.op in ("sub", "div"):
            right = f"({right})"
        return f"{left} {_SYMBOLS[e.op]} {right}", prec

    return _fold(expr, leaf, node)[0]
