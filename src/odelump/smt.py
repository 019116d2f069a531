"""Solver-backed equivalence checking for general drifts.

The equivalence conditions are encoded as quantifier-free formulas over
nonlinear real arithmetic and decided by an external solver process speaking
SMT-LIB 2 text over stdin/stdout (default command ``z3 -in``).  No in-process
bindings are used, so any conforming QF_NRA solver can be substituted.

Out, every drift node is one application: ``min``, ``max`` and ``abs`` call
``min!``, ``max!`` and ``abs!``, defined once per script that uses them (no
model name has a ``!``), so scripts grow linearly with their drifts.  In, a
reply is read whole as s-expressions (see :func:`solver_invoke`).

Division is guarded: for every syntactic denominator d the antecedent gains
``(not (= d 0))``.  SMT-LIB leaves x/0 underspecified, so an unguarded
encoding could report spurious witnesses; the guarded one trades completeness
near the zero-denominator locus for soundness.  A guard that vanishes on the
block equalities (``1/(x - y)`` with x and y in one block) makes the query
vacuous: its antecedent never holds, so the solver answers unsat and the loop
accepts that block.  Witness values are parsed as exact rationals; algebraic
(root-form) model values are reported as unknown rather than rounded,
because splitting on rounded values can be unsound.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .driftexpr import (_SYMBOLS, Bin, Const, DriftExpr, Var, _fold,
                        denominators, poly_to_expr, substitute_exprs, sum_exprs)
from .errors import (DivisionByZero, ProtocolError, SolverNotFound,
                     SolverTimeout, SolverUnknown, _NumberTooLong)
from .partition import Partition
from .poly import _digits_past_limit
from .system import OdeSystem, _by_mode, _require

DEFAULT_SOLVER_CMD = "z3 -in"
SOLVER_ENV_VAR = "ODELUMP_SOLVER"
DEFAULT_TIMEOUT_MS = 60_000


def resolve_solver_cmd(cmd: Optional[str] = None) -> str:
    """Explicit command, else the ODELUMP_SOLVER environment variable, else z3."""
    return cmd or os.environ.get(SOLVER_ENV_VAR) or DEFAULT_SOLVER_CMD


# -- formulas -------------------------------------------------------------------


@dataclass(frozen=True)
class Phi:
    """The formula ``antecedent => consequent``.

    Each side is a tuple of ``(lhs, rhs)`` drift-expression equations, read
    as their conjunction.  An empty consequent makes the formula ``true``.
    """

    antecedent: tuple
    consequent: tuple


@dataclass(frozen=True)
class SolverVerdict:
    kind: str  # "sat" | "unsat" | "unknown"
    model: Optional[dict] = None  # variable name -> Fraction, total over declared
    reason: Optional[str] = None


def _expr_drifts(system: OdeSystem) -> list:
    if system.is_polynomial:
        return [poly_to_expr(d) for d in system.drifts]
    return list(system.drifts)


def build_phi_bde(system: OdeSystem, part: Partition) -> Phi:
    """(same-block variables equal) implies (same-block drifts equal),
    with pairs chained through each block representative."""
    _require(system, part)
    drifts = _expr_drifts(system)
    pairs = [(block[0], other) for block in part.blocks for other in block[1:]]
    return Phi(tuple((Var(rep), Var(other)) for rep, other in pairs),
               tuple((drifts[rep], drifts[other]) for rep, other in pairs))


def _block_drift_sums_across_copies(system: OdeSystem, part: Partition) -> tuple:
    """The two-copy consequent: each block's drift sum equals its primed
    copy's, where the primed copy of variable i is variable n + i."""
    n = system.n
    drifts = _expr_drifts(system)
    shift = {i: Var(n + i) for i in range(n)}
    primed = [substitute_exprs(d, shift) for d in drifts]
    return tuple((sum_exprs(drifts[v] for v in block), sum_exprs(primed[v] for v in block))
                 for block in part.blocks)


def build_phi_fde(system: OdeSystem, part: Partition) -> Phi:
    """Two-copy encoding: equal block sums must force equal block drift sums.

    The primed copy of variable i is variable n + i in the formula's index
    space; :func:`phi_variable_names` supplies matching names.
    """
    _require(system, part)
    n = system.n
    return Phi(tuple((sum_exprs(Var(v) for v in block), sum_exprs(Var(n + v) for v in block))
                     for block in part.blocks),
               _block_drift_sums_across_copies(system, part))


def phi_variable_names(system: OdeSystem, mode: str) -> tuple:
    """Names for the formula's variable indices: the system's names and, for
    fde, a primed copy of each."""
    taken = set(system.names)
    primed = []
    for nm in _by_mode(mode, (), system.names):
        candidate = nm + "_p"
        while candidate in taken:
            candidate += "_"
        taken.add(candidate)
        primed.append(candidate)
    return tuple(system.names) + tuple(primed)


# -- SMT-LIB emission --------------------------------------------------------------


_SMT_RESERVED = frozenset("""
    abs min max div mod rem and or not xor ite true false let forall exists
    as par assert distinct select store to_real to_int is_int
    _ BINARY DECIMAL HEXADECIMAL NUMERAL STRING match echo exit pop push reset
""".split())


def _symbol(name: str) -> str:
    return f"|{name}|" if name in _SMT_RESERVED else name


def _emit_rational(value: Fraction) -> str:
    p, q = value.numerator, value.denominator
    try:
        num = str(p) if p >= 0 else f"(- {-p})"
        return num if q == 1 else f"(/ {num} {q})"
    except ValueError:  # the interpreter's limit on int text
        raise _NumberTooLong from None


# min, max and abs as functions a script defines when it uses them
_FUNCTIONS = {"min": "min! ((a! Real) (b! Real)) Real (ite (<= a! b!) a! b!)",
              "max": "max! ((a! Real) (b! Real)) Real (ite (>= a! b!) a! b!)",
              "abs": "abs! ((a! Real)) Real (ite (>= a! 0) a! (- a!))"}


def _emit_expr(e: DriftExpr, names: Sequence[str]) -> str:
    return _fold(e, lambda leaf: _emit_rational(leaf.value) if isinstance(leaf, Const)
                 else _symbol(names[leaf.index]), _emit_node)


def _emit_node(e, a, b) -> str:
    if b is None:
        return f"(abs! {a})"
    return f"({_SYMBOLS.get(e.op) or e.op + '!'} {a} {b})"


def _emit_conjunction(parts: list) -> str:
    if len(parts) == 1:
        return parts[0]
    return "(and " + " ".join(parts) + ")" if parts else "true"


def smt_emit(phi: Phi, names: Sequence[str]) -> str:
    """SMT-LIB 2 script asserting the negation of ``phi``.

    Declares one Real constant per name in ``names`` and defines each of
    ``min!``, ``max!`` and ``abs!`` that it applies; every denominator of
    an equation side is guarded in the antecedent; ends with
    (check-sat)(get-model), so unsat answers may be followed by a
    model-unavailable error, which the reply parser tolerates.
    """
    def equation(lhs, rhs):
        return f"(= {_emit_expr(lhs, names)} {_emit_expr(rhs, names)})"

    body = "true"
    if phi.consequent:
        guards = denominators(*(side for eq in phi.antecedent + phi.consequent
                                for side in eq))
        antecedent = [equation(*eq) for eq in phi.antecedent]
        antecedent.extend(f"(not {equation(d, Const(Fraction(0)))})" for d in guards)
        consequent = [equation(*eq) for eq in phi.consequent]
        body = f"(=> {_emit_conjunction(antecedent)} {_emit_conjunction(consequent)})"
    lines = ["(set-logic QF_NRA)"]
    lines.extend(f"(declare-const {_symbol(nm)} Real)" for nm in names)
    lines.extend(f"(define-fun {fun})" for op, fun in _FUNCTIONS.items() if f"({op}! " in body)
    lines.append(f"(assert (not {body}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def phi_script(system: OdeSystem, part: Partition, mode: str):
    """``(script, names)``: the SMT-LIB script asserting that ``part`` is not
    a ``mode`` equivalence of ``system``, and the names of its variables."""
    names = phi_variable_names(system, mode)
    phi = _by_mode(mode, build_phi_bde, build_phi_fde)(system, part)
    return smt_emit(phi, names), names


# -- solver process ------------------------------------------------------------------


_DECLARE_RE = re.compile(r"\(declare-const\s+(\|[^|]*\||[^\s()]+)\s+Real\)")


def _strip_pipes(name: str) -> str:
    if name.startswith("|") and name.endswith("|"):
        return name[1:-1]
    return name


def _sexp_tokens(text: str):
    return re.findall(r"\(|\)|\|[^|]*\||\"(?:[^\"\\]|\\.)*\"|[^\s()]+", text)


def _read_sexps(tokens):
    forms = []
    stack = [forms]
    for tok in tokens:
        if tok == "(":
            inner: list = []
            stack[-1].append(inner)
            stack.append(inner)
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced parenthesis")
            stack.pop()
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unbalanced parenthesis")
    return forms


_NUMERAL_RE = re.compile(r"^\d+(\.\d+)?$")
_VERDICTS = ("sat", "unsat", "unknown")


def _unwrap(sexp):
    """``(sign, v)`` for ``(- v)`` and ``(to_real v)``, else ``(1, sexp)``."""
    if isinstance(sexp, list) and len(sexp) == 2 and sexp[0] in ("-", "to_real"):
        return (-1 if sexp[0] == "-" else 1), sexp[1]
    return 1, sexp


def _parse_value(sexp):
    """Rational from a rational literal, else None: a numeral or a quotient of
    two, each perhaps under ``-`` or ``to_real``, and the whole under one more.
    A numeral past the interpreter's limit on int text raises
    ``_NumberTooLong``."""
    sign, sexp = _unwrap(sexp)
    parts = sexp[1:] if isinstance(sexp, list) and len(sexp) == 3 and sexp[0] == "/" else [sexp]
    numbers = []
    for part in parts:
        part_sign, atom = _unwrap(part)
        if not isinstance(atom, str) or not _NUMERAL_RE.match(atom):
            return None
        if _digits_past_limit(atom):
            raise _NumberTooLong
        numbers.append(part_sign * Fraction(atom))
    if numbers[1:] == [0]:
        return None
    return sign * (numbers[0] / numbers[1] if len(numbers) == 2 else numbers[0])


def solver_invoke(script: str, cmd: Optional[str] = None,
                  timeout_ms: int = DEFAULT_TIMEOUT_MS) -> SolverVerdict:
    """Run the external solver on ``script`` and interpret its reply.

    The reply is read whole as s-expressions: its first top-level
    sat/unsat/unknown decides; an ``(error ...)`` before it, no verdict or
    unbalanced text is a :class:`ProtocolError`.  On sat, each later list but
    an ``(error ...)`` must be a list of ``define-fun`` entries, perhaps
    headed ``model``; their values are read as exact rationals, and declared
    variables they omit (solver don't-cares) are 0.  A value that is not a
    rational literal yields unknown("irrational-model"), and one with a
    numeral past the interpreter's limit on int text an unknown that names
    the limit.
    """
    cmd = resolve_solver_cmd(cmd)
    args = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
    try:
        proc = subprocess.run(
            args, input=script + "(exit)\n", capture_output=True, text=True,
            timeout=max(0.001, timeout_ms / 1000.0))
    except FileNotFoundError as exc:
        raise SolverNotFound(f"cannot launch solver command {cmd!r}: {exc}") from None
    except subprocess.TimeoutExpired:
        raise SolverTimeout(f"solver {cmd!r} exceeded {timeout_ms} ms") from None

    out = proc.stdout
    try:
        forms = _read_sexps(_sexp_tokens(out))
    except ValueError:
        raise ProtocolError(out + proc.stderr) from None
    verdict = next((form for form in forms if form in _VERDICTS or form[:1] == ["error"]), None)
    if verdict not in _VERDICTS:
        raise ProtocolError(out + proc.stderr)
    if verdict == "unsat":
        return SolverVerdict("unsat")
    if verdict == "unknown":
        return SolverVerdict("unknown", reason="solver reported unknown")

    model = {}
    for form in forms[forms.index(verdict) + 1:]:
        if isinstance(form, str) or form[:1] == ["error"]:
            continue
        for entry in form[1:] if form[:1] == ["model"] else form:
            if not isinstance(entry, list) or len(entry) != 5 or entry[0] != "define-fun":
                raise ProtocolError(out + proc.stderr)
            if entry[2] == [] and entry[3] == "Real":
                try:
                    value = _parse_value(entry[4])
                except _NumberTooLong as exc:
                    return SolverVerdict("unknown", reason=f"a model value has more than "
                                         f"{exc.limit} digits")
                if value is None:
                    return SolverVerdict("unknown", reason="irrational-model")
                model[_strip_pipes(entry[1])] = value
    for name in _DECLARE_RE.findall(script):
        model.setdefault(_strip_pipes(name), Fraction(0))
    return SolverVerdict("sat", model=model)


def solver_ask(script: str, names: Sequence[str], partition: Partition,
               cmd: Optional[str] = None,
               timeout_ms: int = DEFAULT_TIMEOUT_MS) -> Optional[list]:
    """Send ``script`` to the solver: None on unsat, the witness values of
    ``names`` on sat.  On unknown raises :class:`SolverUnknown` carrying
    ``partition``, the partition reached so far."""
    verdict = solver_invoke(script, cmd, timeout_ms)
    if verdict.kind == "unknown":
        raise SolverUnknown(verdict.reason, partition)
    if verdict.kind == "unsat":
        return None
    return [verdict.model[nm] for nm in names]


# -- witness-guided refinement -----------------------------------------------------------


def _exact_drift(system: OdeSystem, i: int, values):
    try:
        return system.drift_value(i, values)
    except DivisionByZero:
        raise ProtocolError("model assigns a zero denominator "
                            "despite the emitted guards") from None


def _split_bde_by_witness(system: OdeSystem, part: Partition, values,
                          cmd, timeout_ms) -> Partition:
    for block in part.blocks:
        first = values[block[0]]
        if any(values[v] != first for v in block[1:]):
            raise ProtocolError("model violates the block-equality antecedent")
    split = part.split_by(lambda v: _exact_drift(system, v, values))
    if split is part:
        raise ProtocolError("model does not falsify the current formula")
    return split


def _pair_swap_formula(system: OdeSystem, i: int, j: int, sums: tuple) -> Phi:
    """Two-copy check that i and j are interchangeable: redistributing
    amounts between i and j alone must preserve every block drift sum.
    ``sums`` is ``_block_drift_sums_across_copies``, built once per split."""
    n = system.n
    antecedent = [(Bin("add", Var(i), Var(j)), Bin("add", Var(n + i), Var(n + j)))]
    antecedent.extend((Var(w), Var(n + w)) for w in range(n) if w not in (i, j))
    return Phi(tuple(antecedent), sums)


def _split_fde_by_witness(system: OdeSystem, part: Partition, values,
                          cmd, timeout_ms) -> Partition:
    n = system.n
    x, xp = values[:n], values[n:]
    for block in part.blocks:
        if sum((x[v] for v in block), Fraction(0)) != \
                sum((xp[v] for v in block), Fraction(0)):
            raise ProtocolError("model violates the block-sum antecedent")

    names = phi_variable_names(system, "fde")
    sums = _block_drift_sums_across_copies(system, part)

    def compatible(i, j):
        script = smt_emit(_pair_swap_formula(system, i, j, sums), names)
        return solver_ask(script, (), part, cmd, timeout_ms) is None

    group = {}
    for block in part.blocks:
        groups: list = []
        # v meets only members of earlier groups, which all precede it, so
        # each pair (w, v) is asked at most once.
        for v in block:
            for g in groups:
                if all(compatible(w, v) for w in g):
                    g.append(v)
                    break
            else:
                groups.append([v])
        group.update((v, g[0]) for g in groups for v in g)
    split = part.split_by(group.__getitem__)
    if split is not part:
        return split

    # Pairwise checks found nothing to separate although the full formula is
    # falsifiable (possible for non-polynomial drifts): force progress by
    # fully splitting the first block whose drift sums differ at the witness.
    for b, block in enumerate(part.blocks):
        sum_x = sum((_exact_drift(system, v, x) for v in block), Fraction(0))
        sum_xp = sum((_exact_drift(system, v, xp) for v in block), Fraction(0))
        if sum_x != sum_xp and len(block) > 1:
            return part.split_by(lambda v: v if part.labels[v] == b else -1)
    raise ProtocolError("model does not falsify the current formula")


def symbolic_coarsest_with_trace(system: OdeSystem, seed: Partition, mode: str,
                                 cmd: Optional[str] = None,
                                 timeout_ms: int = DEFAULT_TIMEOUT_MS):
    """Witness-guided refinement loop; returns (partition, solver iterations).

    Backward splits re-evaluate all drifts at the witness and group by value.
    Forward splits run pairwise two-variable checks within blocks and group
    greedily (ascending index); the final full-formula unsat guarantees the
    result is a valid equivalence regardless of the grouping order.

    The backward result is the coarsest equivalence refining ``seed``; the
    forward result is a valid equivalence whose coarseness is checked only
    empirically, against the enumeration oracle on polynomial inputs.
    """
    split = _by_mode(mode, _split_bde_by_witness, _split_fde_by_witness)
    part = seed
    iterations = 0
    while True:
        iterations += 1
        script, names = phi_script(system, part, mode)
        values = solver_ask(script, names, part, cmd, timeout_ms)
        if values is None:
            return part, iterations
        part = split(system, part, values, cmd, timeout_ms)
