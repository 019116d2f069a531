"""Whole SMT-LIB scripts, pinned byte for byte.

The scripts are what a solver sees, so a change in their text is a change in
behaviour even when every formula still has the right structure.
"""

import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from odelump import (OdeSystem, Partition, Polynomial, parse_model, phi_variable_names,
                     smt_emit, solver_invoke)
from odelump.smt import _block_drift_sums_across_copies, _pair_swap_formula, phi_script
from conftest import cascade

H_SPLIT = Partition([[0], [1, 2]])

DIVISION = parse_model(
    "begin model begin init x=1 y=2 end init "
    "begin ode d(x) = x/y d(y) = x/y end ode end model").system
# SMT-LIB 2.6 reserves `_`, `match`, NUMERAL and the like, and the command
# names; a solver rejects them as plain symbols, so they are quoted.
RESERVED = parse_model(
    "begin model begin init _=1 match=1 NUMERAL=1 end init "
    "begin ode d(_) = match d(match) = _ d(NUMERAL) = NUMERAL end ode end model").system
MIN_ABS = parse_model(
    "begin model begin init x=1 y=1 end init "
    "begin ode d(x) = min(x, y) d(y) = abs(x) end ode end model").system

HEAD3 = ("(set-logic QF_NRA)\n"
         "(declare-const x1 Real)\n(declare-const x2 Real)\n(declare-const x3 Real)\n")
PRIMED3 = "(declare-const x1_p Real)\n(declare-const x2_p Real)\n(declare-const x3_p Real)\n"
HEAD_XY = "(set-logic QF_NRA)\n(declare-const x Real)\n(declare-const y Real)\n"
TAIL = "(check-sat)\n(get-model)\n"
FDE_SUMS = ("(and (= (* (- 1) x1) (* (- 1) x1_p)) "
            "(= (+ (+ x1 (* (- 1) x2)) (+ x1 (* (- 1) x3))) "
            "(+ (+ x1_p (* (- 1) x2_p)) (+ x1_p (* (- 1) x3_p)))))")


def _swap_script():
    system = cascade(k1=1, k2=1)
    sums = _block_drift_sums_across_copies(system, H_SPLIT)
    return smt_emit(_pair_swap_formula(system, 1, 2, sums),
                    phi_variable_names(system, "fde"))


CASES = {
    "bde_split": (
        lambda: phi_script(cascade(k1=1, k2=1), H_SPLIT, "bde")[0],
        HEAD3 + "(assert (not (=> (= x2 x3) "
                "(= (+ x1 (* (- 1) x2)) (+ x1 (* (- 1) x3))))))\n" + TAIL),
    "fde_split": (
        lambda: phi_script(cascade(k1=1, k2=1), H_SPLIT, "fde")[0],
        HEAD3 + PRIMED3 + "(assert (not (=> (and (= x1 x1_p) (= (+ x2 x3) (+ x2_p x3_p))) "
        + FDE_SUMS + ")))\n" + TAIL),
    "bde_singletons": (
        lambda: phi_script(cascade(k1=1, k2=1), Partition.singletons(3), "bde")[0],
        HEAD3 + "(assert (not true))\n" + TAIL),
    "division": (
        lambda: phi_script(DIVISION, Partition.one_block(2), "bde")[0],
        HEAD_XY + "(assert (not (=> (and (= x y) (not (= y 0))) "
                  "(= (/ x y) (/ x y)))))\n" + TAIL),
    "min_abs": (
        lambda: phi_script(MIN_ABS, Partition.one_block(2), "bde")[0],
        HEAD_XY + "(define-fun min! ((a! Real) (b! Real)) Real (ite (<= a! b!) a! b!))\n"
                  "(define-fun abs! ((a! Real)) Real (ite (>= a! 0) a! (- a!)))\n"
                  "(assert (not (=> (= x y) (= (min! x y) (abs! x)))))\n" + TAIL),
    "reserved_words": (
        lambda: phi_script(RESERVED, Partition.one_block(3), "bde")[0],
        "(set-logic QF_NRA)\n"
        "(declare-const |_| Real)\n(declare-const |match| Real)\n"
        "(declare-const |NUMERAL| Real)\n"
        "(assert (not (=> (and (= |_| |match|) (= |_| |NUMERAL|)) "
        "(and (= |match| |_|) (= |match| |NUMERAL|)))))\n" + TAIL),
    "pair_swap": (
        _swap_script,
        HEAD3 + PRIMED3 + "(assert (not (=> (and (= (+ x2 x3) (+ x2_p x3_p)) (= x1 x1_p)) "
        + FDE_SUMS + ")))\n" + TAIL),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_emitted_script_text(case):
    build, expected = CASES[case]
    assert build() == expected


@pytest.mark.parametrize("name", ["BINARY", "DECIMAL", "HEXADECIMAL", "STRING",
                                  "echo", "exit", "pop", "push", "reset"])
def test_other_reserved_words_are_quoted(name):
    system = OdeSystem.make((name, "y"), (Polynomial.variable(1), Polynomial.variable(0)),
                            (1, 1))
    text = phi_script(system, Partition.one_block(2), "bde")[0]
    assert text.startswith(f"(set-logic QF_NRA)\n(declare-const |{name}| Real)\n")
    assert f"(= |{name}| y)" in text


def test_quoted_model_names_read_back_plain(tmp_path):
    reply = tmp_path / "reply.txt"
    reply.write_text("sat\n((define-fun |match| () Real 1) (define-fun |_| () Real (/ 1 2)))\n")
    cmd = " ".join(shlex.quote(p) for p in (
        sys.executable, str(Path(__file__).parent / "fakesolver.py"), "reply", str(reply)))
    script = phi_script(RESERVED, Partition.one_block(3), "bde")[0]
    verdict = solver_invoke(script, cmd)
    assert verdict.kind == "sat"
    assert verdict.model == {"match": 1, "_": Fraction(1, 2), "NUMERAL": 0}


VANISHING_GUARD = parse_model(
    "begin model begin init x=1 y=1 z=1 end init "
    "begin ode d(x) = 1/(x - y) d(y) = z end ode end model").system


def test_guard_that_vanishes_on_the_block_makes_the_query_vacuous():
    """Under {x, y}, {z} the guard x - y != 0 contradicts x = y, so the
    antecedent never holds, every solver answers unsat and the loop accepts
    the block: the guarded encoding says nothing where a denominator
    vanishes on the block equalities."""
    script = phi_script(VANISHING_GUARD, Partition([[0, 1], [2]]), "bde")[0]
    assert script == ("(set-logic QF_NRA)\n(declare-const x Real)\n(declare-const y Real)\n"
                      "(declare-const z Real)\n"
                      "(assert (not (=> (and (= x y) (not (= (- x y) 0))) "
                      "(= (/ 1 (- x y)) z))))\n" + TAIL)
