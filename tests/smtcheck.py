"""Reads emitted SMT-LIB back, for tests that have no solver to do it.

``scope_errors`` checks the terms of a script's ``assert`` and ``define-fun``
commands: every symbol must be a built-in, a declared constant, a function
defined before it or a parameter of the function around it, and no name may
be declared, defined or bound twice.  ``equation_sides`` evaluates both
sides of every ``=`` in the assertions at a point, applying each
``define-fun`` by its definition, with ``ZERO_DIVISOR`` for a side that
divides by zero anywhere.
"""

import operator
import re
from fractions import Fraction

from odelump.smt import _read_sexps, _sexp_tokens, _strip_pipes

ZERO_DIVISOR = "zero divisor"

_NUMERAL = re.compile(r"\d+(\.\d+)?")
_OPS = {
    "+": operator.add, "*": operator.mul, "/": operator.truediv,
    "-": lambda a, b=None: -a if b is None else a - b,
    "ite": lambda c, a, b: a if c else b,
    "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
    "=": operator.eq,
}
BUILTINS = frozenset(_OPS) | {"and", "or", "not", "=>", "true", "false"}


def _commands(script):
    return [form for form in _read_sexps(_sexp_tokens(script))
            if isinstance(form, list) and form]


def _symbols(term):
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, list):
            stack.extend(t)
        elif not _NUMERAL.fullmatch(t):
            yield _strip_pipes(t)


def scope_errors(script) -> list:
    """What is unbound, or bound twice, in ``script``; empty if nothing."""
    errors, known = [], set(BUILTINS)

    def bind(name, what):
        if name in known:
            errors.append(f"{what} {name} rebinds a known symbol")
        known.add(name)

    for form in _commands(script):
        if form[0] == "declare-const":
            bind(_strip_pipes(form[1]), "constant")
        elif form[0] == "define-fun":
            params = [_strip_pipes(p[0]) for p in form[2]]
            for p in params:
                if p in known or params.count(p) > 1:
                    errors.append(f"parameter {p} of {form[1]} rebinds a symbol")
            scope = known | set(params)
            errors.extend(f"unbound {s} in {form[1]}" for s in _symbols(form[4]) if s not in scope)
            bind(_strip_pipes(form[1]), "function")
        elif form[0] == "assert":
            errors.extend(f"unbound {s}" for s in _symbols(form[1]) if s not in known)
    return errors


def equation_sides(script, point) -> list:
    """``(lhs, rhs)`` values of each ``=`` in the assertions, left to right,
    at ``point``, a mapping from the declared names to values."""
    funs, equations = {}, []
    for form in _commands(script):
        if form[0] == "define-fun":
            funs[form[1]] = ([p[0] for p in form[2]], form[4])
        elif form[0] == "assert":
            stack = [form[1]]
            while stack:
                t = stack.pop()
                if isinstance(t, list) and t[0] == "=":
                    equations.append(t[1:])
                elif isinstance(t, list):
                    stack.extend(reversed(t[1:]))
    env = {name: Fraction(value) for name, value in point.items()}
    return [tuple(_side(side, env, funs) for side in eq) for eq in equations]


def _side(term, env, funs):
    try:
        return _value(term, env, funs)
    except ZeroDivisionError:
        return ZERO_DIVISOR


def _value(term, env, funs):
    if isinstance(term, str):
        return Fraction(term) if _NUMERAL.fullmatch(term) else env[_strip_pipes(term)]
    head, *args = term
    values = [_value(a, env, funs) for a in args]  # every operand, as drift_eval does
    if head in funs:
        params, body = funs[head]
        return _value(body, {**env, **dict(zip(params, values))}, funs)
    return _OPS[head](*values)
