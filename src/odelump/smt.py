"""Solver-backed equivalence checking for general drifts.

The equivalence conditions are encoded as quantifier-free formulas over
nonlinear real arithmetic and decided by an external solver process speaking
SMT-LIB 2 text over stdin/stdout (default command ``z3 -in``).  No in-process
bindings are used, so any conforming QF_NRA solver can be substituted.

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

from .driftexpr import (_SYMBOLS, Abs, Bin, Const, DriftExpr, Var, _fold,
                        denominators, poly_to_expr, substitute_exprs, sum_exprs)
from .errors import (DivisionByZero, ProtocolError, SolverNotFound,
                     SolverTimeout, SolverUnknown)
from .partition import Partition
from .system import OdeSystem, _by_mode, _require_cover

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
    _require_cover(system, part)
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
    _require_cover(system, part)
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
    num = str(p) if p >= 0 else f"(- {-p})"
    if q == 1:
        return num
    return f"(/ {num} {q})"


def _emit_expr(e: DriftExpr, names: Sequence[str]) -> str:
    return _fold(e, lambda leaf: _emit_rational(leaf.value) if isinstance(leaf, Const)
                 else _symbol(names[leaf.index]), _emit_node)


def _emit_node(e, a, b) -> str:
    if isinstance(e, Abs):
        return f"(ite (>= {a} 0) {a} (- {a}))"
    if e.op == "min":
        return f"(ite (<= {a} {b}) {a} {b})"
    if e.op == "max":
        return f"(ite (>= {a} {b}) {a} {b})"
    return f"({_SYMBOLS[e.op]} {a} {b})"


def _emit_conjunction(parts: list) -> str:
    if len(parts) == 1:
        return parts[0]
    return "(and " + " ".join(parts) + ")" if parts else "true"


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
        guards = denominators(*(side for eq in phi.antecedent + phi.consequent
                                for side in eq))
        antecedent = [equation(*eq) for eq in phi.antecedent]
        antecedent.extend(f"(not {equation(d, Const(Fraction(0)))})" for d in guards)
        consequent = [equation(*eq) for eq in phi.consequent]
        body = f"(=> {_emit_conjunction(antecedent)} {_emit_conjunction(consequent)})"
    lines = ["(set-logic QF_NRA)"]
    lines.extend(f"(declare-const {_symbol(nm)} Real)" for nm in names)
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


def _parse_value(sexp):
    """Rational from a model value s-expression, or None for algebraic forms."""
    if isinstance(sexp, str):
        if _NUMERAL_RE.match(sexp):
            return Fraction(sexp)
        return None
    if not sexp:
        return None
    head = sexp[0]
    if head == "-" and len(sexp) == 2:
        v = _parse_value(sexp[1])
        return None if v is None else -v
    if head == "/" and len(sexp) == 3:
        a, b = _parse_value(sexp[1]), _parse_value(sexp[2])
        if a is None or b is None or b == 0:
            return None
        return a / b
    if head == "to_real" and len(sexp) == 2:
        return _parse_value(sexp[1])
    return None


def _collect_define_funs(forms, out):
    for form in forms:
        if isinstance(form, list):
            if (len(form) == 5 and form[0] == "define-fun"
                    and form[2] == [] and form[3] == "Real"):
                out.append((_strip_pipes(form[1]), form[4]))
            else:
                _collect_define_funs(form, out)


def solver_invoke(script: str, cmd: Optional[str] = None,
                  timeout_ms: int = DEFAULT_TIMEOUT_MS) -> SolverVerdict:
    """Run the external solver on ``script`` and interpret its reply.

    The first line reading sat/unsat/unknown decides the verdict; on sat the
    (get-model) s-expression is parsed into exact rationals, with variables
    missing from the model (solver don't-cares) completed with 0.  Model
    values that are not rational literals yield unknown("irrational-model").
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
    verdict = None
    rest_at = 0
    for m in re.finditer(r"^\s*(sat|unsat|unknown)\s*$", out, re.MULTILINE):
        verdict = m.group(1)
        rest_at = m.end()
        break
    if verdict is None:
        raise ProtocolError(out + proc.stderr)
    if verdict == "unsat":
        return SolverVerdict("unsat")
    if verdict == "unknown":
        return SolverVerdict("unknown", reason="solver reported unknown")

    try:
        forms = _read_sexps(_sexp_tokens(out[rest_at:]))
    except ValueError:
        raise ProtocolError(out) from None
    entries: list = []
    _collect_define_funs(forms, entries)
    model = {}
    for name, value_sexp in entries:
        value = _parse_value(value_sexp)
        if value is None:
            return SolverVerdict("unknown", reason="irrational-model")
        model[name] = value
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
