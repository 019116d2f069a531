import random
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from odelump import (OdeSystem, Partition, Polynomial, ProtocolError,
                     SolverNotFound, SolverTimeout, SolverUnknown, Var,
                     build_phi_bde, build_phi_fde, coarsest_with_trace,
                     parse_model, phi_variable_names,
                     poly_to_expr, smt_emit, solver_invoke,
                     symbolic_coarsest_with_trace)
from odelump.smt import Phi
from conftest import cascade, polynomial_of, random_poly_system, solver_available

FAKESOLVER = Path(__file__).parent / "fakesolver.py"

H_SPLIT = Partition([[0], [1, 2]])
H_ONE = Partition.one_block(3)


def fake(mode, arg=None):
    parts = [sys.executable, str(FAKESOLVER), mode]
    if arg is not None:
        parts.append(str(arg))
    return " ".join(shlex.quote(p) for p in parts)


def reply_cmd(tmp_path, text, name="reply.txt"):
    path = tmp_path / name
    path.write_text(text)
    return fake("reply", path)


def seq_cmd(tmp_path, blocks, name="seq.txt"):
    path = tmp_path / name
    path.write_text("\n---\n".join(blocks))
    return fake("seq", path)


MIN_PAIR_TEXT = """\
begin model
begin init
  x1 = 1
  x2 = 1
  x3 = 1
end init
begin ode
  d(x1) = min(x1, x2)
  d(x2) = min(x2, x1)
  d(x3) = 2*x3
end ode
end model
"""


# -- formula construction ---------------------------------------------------------


def test_phi_bde_structure():
    system = cascade(k1=1, k2=1)
    formula = build_phi_bde(system, H_SPLIT)
    d = [poly_to_expr(p) for p in system.drifts]
    assert formula == Phi(((Var(1), Var(2)),), ((d[1], d[2]),))


def test_phi_bde_singletons_is_true():
    assert build_phi_bde(cascade(), Partition.singletons(3)) == Phi((), ())


def test_phi_bde_one_block_chains_through_representative():
    formula = build_phi_bde(cascade(), H_ONE)
    assert formula.antecedent == ((Var(0), Var(1)), (Var(0), Var(2)))


def test_phi_fde_uses_primed_copies():
    system = cascade(k1=1, k2=1)
    formula = build_phi_fde(system, H_SPLIT)
    assert len(formula.antecedent) == 2  # one sum equality per block
    names = phi_variable_names(system, "fde")
    assert names == ("x1", "x2", "x3", "x1_p", "x2_p", "x3_p")
    text = smt_emit(formula, names)
    assert "(declare-const x2_p Real)" in text


def test_primed_names_avoid_collisions():
    system = OdeSystem.make(("a", "a_p"),
                            (Polynomial.variable(0), Polynomial.variable(1)),
                            (1, 1))
    assert phi_variable_names(system, "fde") == ("a", "a_p", "a_p_", "a_p_p")


# -- script emission ----------------------------------------------------------------


def test_emit_script_shape():
    system = cascade(k1=1, k2=1)
    text = smt_emit(build_phi_bde(system, H_SPLIT), system.names)
    assert text.startswith("(set-logic QF_NRA)\n")
    for name in system.names:
        assert f"(declare-const {name} Real)" in text
    assert "(assert (not (=> (= x2 x3)" in text
    assert text.rstrip().endswith("(check-sat)\n(get-model)")


def test_emit_constant_true_formula():
    # singleton partitions produce the empty conjunction
    text = smt_emit(Phi((), ()), ("x",))
    assert "(assert (not true))" in text


def test_emit_rational_forms():
    system = OdeSystem.make(
        ("x", "y"),
        (Polynomial.variable(1).scale(Fraction(5, 2)) + Polynomial.constant(-5),
         Polynomial.variable(0).scale(Fraction(5, 2)) + Polynomial.constant(-5)),
        (0, 0))
    text = smt_emit(build_phi_bde(system, Partition.one_block(2)), system.names)
    assert "(/ 5 2)" in text
    assert "(- 5)" in text


def test_emit_min_abs_lowering():
    doc = parse_model("begin model begin init x=1 y=1 end init "
                      "begin ode d(x) = min(x, y) d(y) = abs(x) end ode end model")
    text = smt_emit(build_phi_bde(doc.system, Partition.one_block(2)),
                    doc.system.names)
    assert "(= (min! x y) (abs! x))" in text
    assert "(define-fun min! ((a! Real) (b! Real)) Real (ite (<= a! b!) a! b!))\n" in text
    assert "(define-fun abs! ((a! Real)) Real (ite (>= a! 0) a! (- a!)))\n" in text
    assert "max!" not in text


def test_emit_division_guard_in_antecedent():
    doc = parse_model("begin model begin init x=1 y=2 end init "
                      "begin ode d(x) = x/y d(y) = x/y end ode end model")
    text = smt_emit(build_phi_bde(doc.system, Partition.one_block(2)),
                    doc.system.names)
    assert "(not (= y 0))" in text
    # the guard sits in the antecedent: negated implication stays satisfiable
    assert "(=> (and (= x y) (not (= y 0)))" in text


def test_emit_quotes_reserved_symbols():
    system = OdeSystem.make(("abs", "v"),
                            (Polynomial.variable(1), Polynomial.variable(0)),
                            (1, 1))
    text = smt_emit(build_phi_bde(system, Partition.one_block(2)), system.names)
    assert "(declare-const |abs| Real)" in text


# -- solver process protocol -----------------------------------------------------------


def test_invoke_unsat(tmp_path):
    verdict = solver_invoke("(check-sat)\n", reply_cmd(tmp_path, "unsat\n"))
    assert verdict.kind == "unsat"
    assert verdict.model is None


def test_invoke_sat_parses_rational_model(tmp_path):
    script = ("(declare-const a Real)(declare-const b Real)"
              "(declare-const c Real)(declare-const d Real)"
              "(declare-const e Real)(check-sat)(get-model)")
    reply = """sat
(
  (define-fun a () Real 1.0)
  (define-fun b () Real (/ 1 2))
  (define-fun c () Real (- (/ 7 4)))
  (define-fun d () Real 0.125)
)
"""
    verdict = solver_invoke(script, reply_cmd(tmp_path, reply))
    assert verdict.kind == "sat"
    assert verdict.model == {"a": 1, "b": Fraction(1, 2), "c": Fraction(-7, 4),
                             "d": Fraction(1, 8), "e": 0}


def test_invoke_sat_old_style_model_wrapper(tmp_path):
    reply = "sat\n(model\n  (define-fun x () Real (- 3.0))\n)\n"
    verdict = solver_invoke("(declare-const x Real)", reply_cmd(tmp_path, reply))
    assert verdict.model == {"x": -3}


def test_invoke_algebraic_model_is_unknown(tmp_path):
    reply = ("sat\n((define-fun x () Real "
             "(root-obj (+ (^ x 2) (- 2)) 2)))\n")
    verdict = solver_invoke("(declare-const x Real)", reply_cmd(tmp_path, reply))
    assert verdict.kind == "unknown"
    assert verdict.reason == "irrational-model"


def test_invoke_unknown(tmp_path):
    verdict = solver_invoke("x", reply_cmd(tmp_path, "unknown\n"))
    assert verdict.kind == "unknown"


def test_invoke_garbage_raises_protocol_error():
    with pytest.raises(ProtocolError):
        solver_invoke("(check-sat)", fake("garbage"))


def test_invoke_timeout():
    with pytest.raises(SolverTimeout):
        solver_invoke("(check-sat)", fake("sleep", 5), timeout_ms=300)


def test_invoke_missing_binary():
    with pytest.raises(SolverNotFound):
        solver_invoke("(check-sat)", "no-such-solver-binary --flags")


def test_assert_false_smoke(tmp_path):
    # protocol smoke test; a real solver must answer unsat for (assert false)
    verdict = solver_invoke("(assert false)(check-sat)",
                            reply_cmd(tmp_path, "unsat\n"))
    assert verdict.kind == "unsat"


# -- witness-guided refinement against scripted solvers -----------------------------------


SAT_111 = """sat
(
  (define-fun x1 () Real 1.0)
  (define-fun x2 () Real 1.0)
  (define-fun x3 () Real 1.0)
)"""


def test_symbolic_bde_refines_cascade(tmp_path):
    # first call: witness (1,1,1); drifts evaluate to (-1, 0, 0), so x1 splits
    system = cascade(k1=1, k2=1)
    cmd = seq_cmd(tmp_path, [SAT_111, "unsat"])
    part, iterations = symbolic_coarsest_with_trace(system, H_ONE, "bde", cmd)
    assert part == H_SPLIT
    assert iterations == 2


def test_symbolic_singleton_returns_after_first_unsat(tmp_path):
    system = cascade(k1=1, k2=1)
    for mode in ("bde", "fde"):
        cmd = seq_cmd(tmp_path, ["unsat"], name=f"{mode}.txt")
        part, iterations = symbolic_coarsest_with_trace(
            system, Partition.singletons(3), mode, cmd)
        assert part == Partition.singletons(3)
        assert iterations == 1


SAT_FDE_WITNESS = """sat
(
  (define-fun x1 () Real 1.0)
  (define-fun x2 () Real 1.0)
  (define-fun x3 () Real 1.0)
  (define-fun x1_p () Real 0.0)
  (define-fun x2_p () Real 3.0)
  (define-fun x3_p () Real 0.0)
)"""


def test_symbolic_fde_pairwise_split(tmp_path):
    # full check fails; pairwise swap tests: (x1,x2) sat, (x1,x3) sat,
    # (x2,x3) unsat; re-verification of {{x1},{x2,x3}} passes
    system = cascade(k1=1, k2=1)
    cmd = seq_cmd(tmp_path, [SAT_FDE_WITNESS, "sat\n()", "sat\n()", "unsat", "unsat"])
    part, iterations = symbolic_coarsest_with_trace(system, H_ONE, "fde", cmd)
    assert part == H_SPLIT
    assert iterations == 2


def test_model_violating_antecedent_rejected(tmp_path):
    bad = """sat
(
  (define-fun x1 () Real 1.0)
  (define-fun x2 () Real 1.0)
  (define-fun x3 () Real 2.0)
)"""
    with pytest.raises(ProtocolError):
        symbolic_coarsest_with_trace(cascade(), H_ONE, "bde", seq_cmd(tmp_path, [bad]))


def test_model_not_falsifying_rejected(tmp_path):
    # (1,1,1) satisfies the split partition's formula for k1 = k2
    with pytest.raises(ProtocolError):
        symbolic_coarsest_with_trace(cascade(k1=1, k2=1), H_SPLIT, "bde",
                                     seq_cmd(tmp_path, [SAT_111]))


def test_model_with_zero_denominator_rejected(tmp_path):
    doc = parse_model("begin model begin init x1=1 x2=1 x3=1 end init "
                      "begin ode d(x1) = x1/x2 d(x2) = x1/x2 d(x3) = x3 "
                      "end ode end model")
    zeros = """sat
(
  (define-fun x1 () Real 0.0)
  (define-fun x2 () Real 0.0)
  (define-fun x3 () Real 0.0)
)"""
    with pytest.raises(ProtocolError):
        symbolic_coarsest_with_trace(doc.system, H_ONE, "bde", seq_cmd(tmp_path, [zeros]))


# A witness for the full fde formula on H_SPLIT: x1 = x1_p and x2 + x3 = x2_p + x3_p.
SAT_FDE_ON_SPLIT = """sat
(
  (define-fun x1 () Real 1.0)
  (define-fun x2 () Real 1.0)
  (define-fun x3 () Real 1.0)
  (define-fun x1_p () Real 1.0)
  (define-fun x2_p () Real 2.0)
  (define-fun x3_p () Real 0.0)
)"""


@pytest.mark.parametrize("mode,replies", [
    ("bde", [SAT_111, "unknown"]),
    # the loop's second query on H_SPLIT is sat; the pair query (x2, x3) is unknown
    ("fde", [SAT_FDE_WITNESS, "sat\n()", "sat\n()", "unsat", SAT_FDE_ON_SPLIT, "unknown"]),
])
def test_unknown_after_a_split_carries_the_split_partition(tmp_path, mode, replies):
    cmd = seq_cmd(tmp_path, replies)
    with pytest.raises(SolverUnknown) as err:
        symbolic_coarsest_with_trace(cascade(k1=1, k2=1), H_ONE, mode, cmd)
    assert err.value.partition == H_SPLIT
    assert (tmp_path / "seq.txt").read_text() == ""


def test_fde_forced_full_split(tmp_path):
    # The pair query calls x1 and x2 interchangeable, yet at the witness the
    # block's drift sums differ (1 against 2): the block is split fully.
    names = ("x1", "x2")
    system = OdeSystem.make(names, (polynomial_of("x1", names),
                                    polynomial_of("2*x2", names)), (1, 1))
    witness = """sat
(
  (define-fun x1 () Real 1.0)
  (define-fun x2 () Real 0.0)
  (define-fun x1_p () Real 0.0)
  (define-fun x2_p () Real 1.0)
)"""
    cmd = seq_cmd(tmp_path, [witness, "unsat", "unsat"])
    part, iterations = symbolic_coarsest_with_trace(
        system, Partition.one_block(2), "fde", cmd)
    assert part == Partition.singletons(2)
    assert iterations == 2
    assert (tmp_path / "seq.txt").read_text() == ""


def test_fde_model_violating_block_sums_rejected(tmp_path):
    bad = SAT_FDE_WITNESS.replace("x2_p () Real 3.0", "x2_p () Real 2.0")
    with pytest.raises(ProtocolError, match="block-sum antecedent"):
        symbolic_coarsest_with_trace(cascade(), H_ONE, "fde", seq_cmd(tmp_path, [bad]))


# -- against a real solver (skipped when none is installed) --------------------------------

needs_solver = pytest.mark.skipif(not solver_available(),
                                  reason="no SMT-LIB solver on the path")


@needs_solver
def test_real_phi_bde_unsat_for_equal_rates():
    system = cascade(k1=1, k2=1)
    script = smt_emit(build_phi_bde(system, H_SPLIT), system.names)
    assert solver_invoke(script).kind == "unsat"


@needs_solver
def test_real_phi_bde_sat_witness_for_one_block():
    system = cascade(k1=1, k2=1)
    script = smt_emit(build_phi_bde(system, H_ONE), system.names)
    verdict = solver_invoke(script)
    assert verdict.kind == "sat"
    values = [verdict.model[nm] for nm in system.names]
    # the model is a genuine witness: block-constant but separating some drift
    assert values[0] == values[1] == values[2]
    drift_values = {system.drift_value(i, values) for i in range(3)}
    assert len(drift_values) > 1


@needs_solver
def test_real_symbolic_bde_cascade():
    assert symbolic_coarsest_with_trace(cascade(k1=1, k2=1), H_ONE, "bde")[0] == H_SPLIT


@needs_solver
def test_real_min_drift_symmetry():
    doc = parse_model(MIN_PAIR_TEXT)
    part = symbolic_coarsest_with_trace(doc.system, H_ONE, "bde")[0]
    assert part == Partition([[0, 1], [2]])


@needs_solver
def test_real_agreement_with_syntactic_backend():
    rng = random.Random(77)
    for _ in range(50):
        system = random_poly_system(rng, rng.randint(2, 4))
        seed = Partition.one_block(system.n)
        assert symbolic_coarsest_with_trace(system, seed, "bde")[0] == \
            coarsest_with_trace(system, seed, "bde")[0]


@needs_solver
def test_real_verdicts_agree_with_syntactic_checks():
    from odelump import build_phi_fde, check_bde, check_fde

    rng = random.Random(78)
    for _ in range(20):
        system = random_poly_system(rng, rng.randint(2, 4))
        labels = [rng.randrange(2) for _ in range(system.n)]
        part = Partition.one_block(system.n)
        if rng.random() < 0.7:
            part = part.split_by(labels.__getitem__)
        names_b = phi_variable_names(system, "bde")
        verdict_b = solver_invoke(smt_emit(build_phi_bde(system, part), names_b))
        assert (verdict_b.kind == "unsat") == check_bde(system, part).ok
        names_f = phi_variable_names(system, "fde")
        verdict_f = solver_invoke(smt_emit(build_phi_fde(system, part), names_f))
        assert (verdict_f.kind == "unsat") == check_fde(system, part).ok
