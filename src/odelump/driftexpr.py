"""Expression trees for general (non-polynomial) drifts.

The drift language covers exactly: rational constants, variables, the four
arithmetic operators, binary min/max, and unary absolute value.  Subtraction
and division are kept as primitive nodes rather than rewritten, so emitted
solver scripts mirror the source text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import DivisionByZero
from .poly import Polynomial, _add_term, _from_accumulator, _product

_BIN_OPS = ("add", "sub", "mul", "div", "min", "max")


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: "DriftExpr"
    rhs: "DriftExpr"

    def __post_init__(self):
        if self.op not in _BIN_OPS:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Abs:
    arg: "DriftExpr"


DriftExpr = Union[Const, Var, Bin, Abs]


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


def rename_vars(expr: DriftExpr, mapping: Mapping[int, int]) -> DriftExpr:
    """Replace variable indices per ``mapping`` (identity when absent)."""
    return substitute_exprs(expr, {v: Var(w) for v, w in mapping.items()})


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


def to_polynomial(expr: DriftExpr) -> Polynomial | None:
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
            den = _add_term(acc, den, _product(variables), sign * num, q)
            continue
        if isinstance(e, Abs) or e.op in ("min", "max"):
            return None
        lhs = to_polynomial(e.lhs)
        if lhs is None:
            return None
        rhs = to_polynomial(e.rhs)
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
