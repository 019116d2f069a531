"""Drift trees of any depth are read, evaluated, printed and encoded.

Every walk over a drift-expression tree runs on an explicit stack, so these
tests use trees thousands of levels deep: a 1500-variable ring whose
one-block fde formula left-nests 1500 drifts, the 5000-term sum of
``test_parse_paths`` with a ``min`` term, a 5000-deep right-nested tree, and
denominators of 1500 terms.  A subprocess runs every walker under a
recursion limit of 100, so a per-node recursion fails fast on small trees.
"""

import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

from odelump import (OdeSystem, Partition, drift_eval, expr_variables, parse_model,
                     serialize_model)
from odelump.cli import main
from odelump.driftexpr import (Bin, Const, Var, denominators, format_expr,
                               substitute_exprs, sum_exprs)
from odelump.sim import integrate
from odelump.smt import Phi, phi_script, smt_emit
from test_parse_paths import LONG_NAMES, LONG_PAIRS, LONG_SUM


def _ring_text(n):
    names = [f"x{i}" for i in range(n)]
    return "".join([
        "begin model\nbegin init\n", *(f"  {nm} = 1\n" for nm in names),
        "end init\nbegin ode\n", *(f"  d(x{i}) = x{(i + 1) % n} - x{i}\n" for i in range(n)),
        "end ode\nbegin partition\n  {" + ", ".join(names) + "}\nend partition\nend model\n"])


def test_ring_fde_formula_converts(tmp_path, capsys):
    # the one-block fde formula sums all 1500 drifts into one left-nested tree
    model = tmp_path / "ring.ode"
    model.write_text(_ring_text(1500))
    out = tmp_path / "ring.smt2"
    assert main(["convert", "--to", "smt2", "--mode", "fde", "--in", str(model),
                 "--out", str(out)]) == 0
    script = out.read_text()
    assert script.count("(declare-const") == 3000
    assert script.endswith("(check-sat)\n(get-model)\n")


def test_ring_fde_smt_reduce_reaches_the_solver(tmp_path, capsys):
    model = tmp_path / "ring.ode"
    model.write_text(_ring_text(1500))
    rc = main(["reduce", "--mode", "fde", "--backend", "smt", "--in", str(model),
               "--partition", "file", "--solver-cmd", str(tmp_path / "no-such-solver"),
               "--out", str(tmp_path / "red.ode")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("solver error:")


def test_long_expression_drift_round_trips_evaluates_and_emits():
    # ROADMAP item 8: the 5000-term sum with one min term
    text = ("begin model\nbegin init\n"
            + "".join(f"  {nm} = 1\n" for nm in LONG_NAMES)
            + f"end init\nbegin ode\n  d(x0) = {LONG_SUM} + min(x1, x2)\nend ode\nend model\n")
    start = time.perf_counter()
    doc = parse_model(text)
    system = doc.system
    assert not system.is_polynomial
    serialized = serialize_model(doc)
    assert serialize_model(parse_model(serialized)) == serialized
    point = [Fraction(i + 1, 7) for i in range(100)]
    expected = sum((-3 if k % 2 else 3) * point[i] * point[j]
                   for k, (i, j) in enumerate(LONG_PAIRS)) + min(point[1], point[2])
    assert drift_eval(system.drifts[0], point) == expected
    part = Partition([[0, 1], *([v] for v in range(2, 100))])
    bde, _ = phi_script(system, part, "bde")
    fde, _ = phi_script(system, part, "fde")
    assert time.perf_counter() - start < 1.0
    assert bde.count("(min! x1 x2)") == fde.count("(min! x1_p x2_p)") == 1
    trajectory = integrate(system, 0.003, 0.001)
    assert trajectory.states.shape == (4, 100)
    assert time.perf_counter() - start < 2.0


def _right_nested(depth):
    # x0 - (x1 + (x2 - (... + min(x1, x2)))), built from the innermost node out
    e = Bin("min", Var(1), Var(2))
    for k in reversed(range(depth)):
        e = Bin("sub" if k % 2 == 0 else "add", Var(k % 100), e)
    return e


def test_deep_right_nested_tree():
    depth = 5000
    tree = _right_nested(depth)
    point = [Fraction(i + 1, 7) for i in range(100)]
    # x0 - x1 - x2 + x3 + x4 - ...: the sign of term k flips at every sub above it
    expected = Fraction(0)
    sign = 1
    for k in range(depth):
        expected += sign * point[k % 100]
        if k % 2 == 0:
            sign = -sign
    expected += sign * min(point[1], point[2])
    assert drift_eval(tree, point) == expected
    assert expr_variables(tree) == frozenset(range(100))
    text = format_expr(tree)
    assert text.startswith("x0 - (x1 + x2 - (x3 + x4 - (")
    assert text.endswith("min(x1, x2)" + ")" * (depth // 2))
    swapped = substitute_exprs(tree, {0: Var(1), 1: Var(0)})
    assert drift_eval(swapped, [point[1], point[0], *point[2:]]) == expected
    assert denominators(tree) == []
    system = OdeSystem.make(LONG_NAMES, [tree] + [Const(Fraction(0))] * 99, [1] * 100)
    script = smt_emit(Phi((), ((tree, Const(Fraction(0))),)), system.names)
    assert script.count("(min! x1 x2)") == 1
    assert integrate(system, 0.002, 0.001).states.shape == (3, 100)


def test_long_denominators_deduplicate():
    # S is a 1499-term sum; its trees are equal but not the same object
    def S():
        return sum_exprs(Var(i) for i in range(1, 1500))

    tree = Bin("add", Bin("div", Var(0), S()), Bin("div", Const(Fraction(2)), S()))
    found = denominators(tree)
    assert len(found) == 1 and format_expr(found[0]) == format_expr(S())
    names = [f"x{i}" for i in range(1500)]
    script = smt_emit(Phi((), ((Bin("div", Const(Fraction(1)), S()), Var(0)), (tree, Var(1)))),
                      names)
    assert script.count("(not (= (+ (+ ") == 1


RECURSION_GUARD = textwrap.dedent("""
    import sys
    import numpy
    from fractions import Fraction
    from odelump import OdeSystem, Partition, drift_eval, expr_variables
    from odelump.driftexpr import (Abs, Bin, Const, Var, denominators, format_expr,
                                   substitute_exprs)
    from odelump.sim import integrate
    from odelump.smt import Phi, phi_script, smt_emit

    def leaf(k):
        return [Var(k % 3), Const(Fraction(k % 5 + 1, 2)), Abs(Var(k % 3)),
                Bin("min", Var(k % 3), Const(Fraction(1))),
                Bin("max", Const(Fraction(2)), Var(k % 3))][k % 5]

    def chain(right):
        e = Var(0)
        for k in range(300):
            op = ("add", "sub", "mul", "div")[k % 4]
            e = Bin(op, leaf(k), e) if right else Bin(op, e, leaf(k))
        return e

    chains = [chain(False), chain(True)]
    names = ("x0", "x1", "x2")
    system = OdeSystem.make(names, [chains[0], chains[1], Const(Fraction(0))], [1, 2, 3])
    values = [Fraction(1), Fraction(2), Fraction(3)]
    sys.setrecursionlimit(100)
    for e in chains:
        expr_variables(e)
        substitute_exprs(e, {0: Var(1)})
        denominators(e)
        format_expr(e, names)
        drift_eval(e, values)
        smt_emit(Phi(((Var(0), Var(1)),), ((e, Const(Fraction(0))),)), names)
    for mode in ("bde", "fde"):
        phi_script(system, Partition([[0, 1], [2]]), mode)
    integrate(system, 2e-6, 1e-6)
    print("ok")
""")


def test_walkers_run_under_a_small_recursion_limit():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", RECURSION_GUARD],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"
