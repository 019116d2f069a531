"""Whole SMT-LIB scripts, pinned byte for byte.

The scripts are what a solver sees, so a change in their text is a change in
behaviour even when every formula still has the right structure.
"""

import pytest

from odelump import Partition, parse_model, phi_variable_names, smt_emit
from odelump.smt import _block_drift_sums_across_copies, _pair_swap_formula, phi_script
from conftest import cascade

H_SPLIT = Partition([[0], [1, 2]])

DIVISION = parse_model(
    "begin model begin init x=1 y=2 end init "
    "begin ode d(x) = x/y d(y) = x/y end ode end model").system
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
        HEAD_XY + "(assert (not (=> (= x y) "
                  "(= (ite (<= x y) x y) (ite (>= x 0) x (- x))))))\n" + TAIL),
    "pair_swap": (
        _swap_script,
        HEAD3 + PRIMED3 + "(assert (not (=> (and (= (+ x2 x3) (+ x2_p x3_p)) (= x1 x1_p)) "
        + FDE_SUMS + ")))\n" + TAIL),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_emitted_script_text(case):
    build, expected = CASES[case]
    assert build() == expected
