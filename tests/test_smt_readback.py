"""Emitted SMT-LIB read back, and solver replies read in one pass.

No solver is installed where tier-1 runs, so ``smtcheck`` reads the scripts
back: every symbol is bound, and with each ``define-fun`` applied, every
equation side has the value ``drift_eval`` gives its drift (or a zero
divisor where it has one).  Nests of ``min``, ``max`` and ``abs`` emit
scripts that grow linearly with their depth.  Replies with an ``(error
...)`` before the verdict, or nested thousands deep, are solver errors.
"""

import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from odelump import (DivisionByZero, OdeSystem, Partition, ProtocolError, build_phi_bde,
                     build_phi_fde, drift_eval, parse_model, phi_variable_names, smt_emit,
                     solver_invoke)
from odelump.cli import main
from odelump.driftexpr import Const, denominators
from smtcheck import ZERO_DIVISOR, equation_sides, scope_errors
from test_smt import reply_cmd
from test_walker_reference import NAMES, POINTS, TREES

GOLDEN = Path(__file__).parent / "golden"
BUILD = {"bde": build_phi_bde, "fde": build_phi_fde}
FUNCTIONS = ("min!", "max!", "abs!")


def _side(expr, values):
    try:
        return drift_eval(expr, values)
    except DivisionByZero:
        return ZERO_DIVISOR


def _assert_reads_back(system, part, mode, values):
    """The script for ``part`` is in scope, and its equations, left to right
    (antecedent, then guards, then consequent), evaluate at ``values`` as
    the formula's own sides do."""
    phi = BUILD[mode](system, part)
    names = phi_variable_names(system, mode)
    script = smt_emit(phi, names)
    assert scope_errors(script) == []
    equations = []
    if phi.consequent:
        sides = [side for eq in phi.antecedent + phi.consequent for side in eq]
        equations = [*phi.antecedent, *((d, Const(Fraction(0))) for d in denominators(*sides)),
                     *phi.consequent]
    expected = [(_side(lhs, values), _side(rhs, values)) for lhs, rhs in equations]
    assert equation_sides(script, dict(zip(names, values))) == expected
    return script


@given(st.lists(TREES, min_size=len(NAMES), max_size=len(NAMES)), POINTS, POINTS,
       st.sampled_from(["bde", "fde"]),
       st.sampled_from([Partition.one_block(4), Partition([[0, 2], [1, 3]])]))
def test_scripts_read_back_as_the_drifts(drifts, point, primed, mode, part):
    system = OdeSystem.make(NAMES, drifts, [0] * len(NAMES))
    _assert_reads_back(system, part, mode, point + primed if mode == "fde" else point)


def _nest(kind, depth=20):
    text = "x"
    for k in range(depth):
        op = ("min", "max", "abs")[k % 3] if kind == "mixed" else kind
        text = f"abs({text} - y)" if op == "abs" else f"{op}({text}, y)"
    return text


NESTS = {"min": {"min!"}, "max": {"max!"}, "abs": {"abs!"}, "mixed": set(FUNCTIONS)}


@pytest.mark.parametrize("mode", ["bde", "fde"])
@pytest.mark.parametrize("kind", sorted(NESTS))
def test_twenty_deep_nests_convert_to_small_scripts(tmp_path, capsys, kind, mode):
    """20 nested ``min``s wrote 17.8 MB when each operand was written twice,
    and 20 nested ``abs(... - y)`` ran out of memory at three times."""
    text = ("begin model\nbegin init\n  x = 1\n  y = 2\nend init\nbegin ode\n"
            f"  d(x) = {_nest(kind)}\n  d(y) = y\nend ode\n"
            "begin partition\n  {x, y}\nend partition\nend model\n")
    model, out = tmp_path / "nest.ode", tmp_path / "nest.smt2"
    model.write_text(text)
    start = time.perf_counter()
    assert main(["convert", "--to", "smt2", "--mode", mode, "--in", str(model),
                 "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    script = out.read_text()
    assert len(script.encode()) < 100_000
    for fun in FUNCTIONS:
        assert script.count(f"(define-fun {fun} ") == (fun in NESTS[kind])
        assert (f"({fun} " in script) == (fun in NESTS[kind])
    values = [Fraction(3, 2), Fraction(-1, 3)] * (2 if mode == "fde" else 1)
    assert script == _assert_reads_back(parse_model(text).system, Partition.one_block(2),
                                        mode, values)


def test_checker_finds_what_is_out_of_scope():
    assert scope_errors("(declare-const x Real)(assert (= x y))") == ["unbound y"]
    assert scope_errors("(declare-const x Real)(declare-const x Real)") == [
        "constant x rebinds a known symbol"]
    assert scope_errors("(declare-const x Real)"
                        "(define-fun f ((x Real)) Real (+ x z))(assert (= (f x) x))") == [
        "parameter x of f rebinds a symbol", "unbound z in f"]
    assert equation_sides("(declare-const x Real)(define-fun f ((a Real)) Real (* a a))"
                          "(assert (and (= (f x) 4) (= (/ 1 (- x 2)) x)))",
                          {"x": 2}) == [(4, 4), (ZERO_DIVISOR, 2)]


def test_fake_solver_rejects_an_unbound_script(tmp_path):
    with pytest.raises(ProtocolError, match="unbound y"):
        solver_invoke("(declare-const x Real)(assert (= x y))(check-sat)",
                      reply_cmd(tmp_path, "unsat\n"))


# -- replies ---------------------------------------------------------------------------


def _check_t04(tmp_path, reply, command="check"):
    argv = [command, "--mode", "bde", "--backend", "smt", "--in",
            str(GOLDEN / "t04_partition.ode"), "--solver-cmd", reply_cmd(tmp_path, reply)]
    if command == "reduce":
        argv += ["--partition", "file", "--out", str(tmp_path / "red.ode")]
    return main(argv)


def test_error_before_the_verdict_is_a_solver_error(tmp_path, capsys):
    # t04's partition is a bde: reading past the error took "sat" and the
    # empty model as the false witness x1=0, x2=0, x3=0 (exit 1)
    assert _check_t04(tmp_path, '(error "x")\nsat\n()\n') == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and "witness" not in err


def test_error_after_the_verdict_is_tolerated(tmp_path, capsys):
    # z3 answers (get-model) after unsat with an error
    assert _check_t04(tmp_path, 'unsat\n(error "line 9 column 10: model is not available")\n') == 0


@pytest.mark.parametrize("command", ["check", "reduce"])
def test_reply_nested_3000_deep_is_a_solver_error(tmp_path, capsys, command):
    assert _check_t04(tmp_path, "sat\n" + "(" * 3000 + ")" * 3000 + "\n", command) == 3
    assert capsys.readouterr().err.startswith("solver error:")


@pytest.mark.parametrize("command", ["check", "reduce"])
def test_model_value_nested_3000_deep_is_unknown(tmp_path, capsys, command):
    value = "(- " * 3000 + "1" + ")" * 3000
    reply = f"sat\n((define-fun x1 () Real {value}))\n"
    assert _check_t04(tmp_path, reply, command) == 3
    assert capsys.readouterr().err == ("solver error: solver returned unknown: "
                                       "irrational-model\n")


def test_unbalanced_reply_is_a_solver_error(tmp_path, capsys):
    assert _check_t04(tmp_path, "unsat\n(error \"x\"\n") == 3
    assert capsys.readouterr().err.startswith("solver error:")
