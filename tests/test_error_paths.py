"""Error paths that users can reach and the other suites do not run: parse
errors of sections and expressions, container checks, exact numbers beyond
float range in ``simulate``, products of sums too large to multiply out,
solver replies through ``tests/fakesolver.py``, and the report of a reduced
expression model."""

import io
import json
import time
from fractions import Fraction

import pytest

from odelump import (GridMismatch, ModelDocument, ModelSyntaxError, NonFiniteState,
                     OdeSystem, Partition, PartitionCoverageError, Polynomial,
                     ProtocolError, TooLarge, Trajectory, compare_reduction, integrate,
                     parse_expression, parse_model, read_csv, serialize_model,
                     solver_invoke, symbolic_coarsest_with_trace)
from odelump.cli import main
from odelump.driftexpr import _PRODUCT_LIMIT
from conftest import cascade
from test_smt import MIN_PAIR_TEXT, SAT_111, reply_cmd, seq_cmd


def _model(init, section="begin ode\n  d(x) = -x\nend ode"):
    return f"begin model\nbegin init\n  {init}\nend init\n{section}\nend model\n"


# -- parse errors ------------------------------------------------------------


@pytest.mark.parametrize("text, message", [
    (_model("x = 1", "begin foo\nend foo"), "expected 'ode' or 'reactions', found 'foo'"),
    (_model("x = 1\n  begin = 1"), "expected variable declaration, found 'begin'"),
], ids=["section", "reserved init"])
def test_parse_errors_name_what_was_expected(text, message):
    with pytest.raises(ModelSyntaxError, match=message):
        parse_model(text)


def test_expression_with_trailing_text():
    with pytest.raises(ModelSyntaxError, match="expected end of input, found '\\)'"):
        parse_expression("x + 1 )", ["x"])


def test_serialize_unknown_form():
    with pytest.raises(ValueError, match="unknown form 'xml'"):
        serialize_model(parse_model(_model("x = 1")), "xml")


def test_document_partition_of_the_wrong_size():
    system = parse_model(_model("x = 1")).system
    with pytest.raises(PartitionCoverageError, match="covers 2 variables, system has 1"):
        ModelDocument(system, Partition([[0], [1]]))


X = Polynomial.variable(0)


@pytest.mark.parametrize("names, drifts, init, observables, error", [
    ((), (), (), None, "at least one variable"),
    (("1x",), (X,), (Fraction(1),), None, "not an identifier"),
    (("x",), (X,), (), None, "init must assign every variable"),
    (("x", "x"), (X, X), (Fraction(1), Fraction(1)), None, "must be unique"),
    (("x",), (X,), (1,), None, "must be Fractions"),
    (("x",), (X,), (Fraction(1),), frozenset({1}), "observable index 1 out of range"),
    (("x",), (X, X), (Fraction(1),), None, "equal length"),
    (("x", "y"), (X, parse_expression("min(x, 1)", ["x"])), (Fraction(1),) * 2, None,
     "all polynomial or all expressions"),
    (("x",), (Polynomial.variable(1),), (Fraction(1),), None, "variable index 1 >= n = 1"),
    # the first drift out of range is named, with its own largest index,
    # which only the last pair of a term holds
    (("x", "y", "z"), (X, Polynomial.variable(4) * X + Polynomial.constant(1),
                       Polynomial.variable(5) * X),
     (Fraction(1),) * 3, None, "variable index 4 >= n = 3"),
    (("x", "y"), (parse_expression("min(x, 1)", ["x"]),
                  parse_expression("max(x, z)", ["x", "y", "z"])),
     (Fraction(1),) * 2, None, "variable index 2 >= n = 2"),
])
def test_system_container_errors(names, drifts, init, observables, error):
    with pytest.raises((ValueError, TypeError), match=error):
        OdeSystem(names, drifts, init, observables)


# -- numbers beyond float range -----------------------------------------------

BIG = "1" + "0" * 400
OVERFLOWS = {
    "init": _model(f"x = {BIG}"),
    "coefficient": _model("x = 1", f"begin ode\n  d(x) = {BIG}*x\nend ode"),
    "expression constant": _model("x = 1", f"begin ode\n  d(x) = min(x, {BIG})\nend ode"),
}


@pytest.mark.parametrize("text", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_numbers_beyond_float_range_are_non_finite_at_zero(text, tmp_path, capsys):
    with pytest.raises(NonFiniteState) as caught:
        integrate(parse_model(text).system, 1.0, 0.1)
    assert caught.value.t == 0
    model = tmp_path / "m.ode"
    model.write_text(text)
    rc = main(["simulate", "--in", str(model), "--t-end", "1", "--dt", "0.1",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: state became non-finite at t = 0.0\n"


def test_compare_with_a_reduced_number_beyond_float_range(tmp_path, capsys):
    orig = tmp_path / "orig.ode"
    orig.write_text(_model("x = 1\n  y = 1", "begin ode\n  d(x) = -x\n  d(y) = -y\n"
                           "end ode\nbegin partition\n  {x, y}\nend partition"))
    red = tmp_path / "red.ode"
    red.write_text(_model(f"x_y = {BIG}", "begin ode\n  d(x_y) = -x_y\nend ode"))
    rc = main(["simulate", "--in", str(orig), "--t-end", "1", "--dt", "0.1",
               "--out", str(tmp_path / "t.csv"), "--compare", str(red),
               "--map-mode", "fde"])
    assert rc == 2
    assert capsys.readouterr().err == "error: state became non-finite at t = 0.0\n"


# -- products that expand beyond the bound ----------------------------------------


def _product_model(k, terms=2):
    """A drift that multiplies k sums of ``terms`` variables each, so
    ``terms ** k`` monomials in full."""
    names = [f"x{i}_{j}" for i in range(k) for j in range(terms)]
    sums = ("(" + "+".join(f"x{i}_{j}" for j in range(terms)) + ")" for i in range(k))
    return _model("\n  ".join(f"{nm} = 1" for nm in names),
                  "begin ode\n  d(x0_0) = " + "*".join(sums) + "\nend ode")


REFUSED = ("error: a product in a drift multiplies 32768 pairs of terms; "
           f"lowering drift text is guarded to {_PRODUCT_LIMIT}\n")


def test_a_short_product_of_sums_is_refused_quickly():
    text = _product_model(24)  # 2^24 monomials in full
    started = time.perf_counter()
    with pytest.raises(TooLarge, match=f"guarded to {_PRODUCT_LIMIT}$"):
        parse_model(text)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("command", [
    ["reduce", "--mode", "bde", "--out", "OUT"],
    ["check", "--mode", "fde"],
    ["convert", "--to", "rn", "--out", "OUT"],
    ["simulate", "--t-end", "1", "--dt", "0.1", "--out", "OUT"],
], ids=["reduce", "check", "convert", "simulate"])
def test_cli_refuses_a_product_beyond_the_bound(command, tmp_path, capsys):
    model = tmp_path / "m.ode"
    model.write_text(_product_model(24))
    out = tmp_path / "out"
    argv = [command[0], "--in", str(model)] + [str(out) if a == "OUT" else a
                                               for a in command[1:]]
    assert main(argv) == 2
    assert capsys.readouterr().err == REFUSED
    assert not out.exists()


def test_the_largest_product_that_lowers_has_every_monomial():
    lowered = {}
    for k in range(10, 20):
        try:
            lowered[k] = parse_model(_product_model(k)).system.drifts[0]
        except TooLarge:
            break
    largest = max(lowered)
    assert k == largest + 1 and 2 ** largest <= _PRODUCT_LIMIT < 2 ** k
    drift = lowered[largest]
    assert drift.monomial_count() == 2 ** largest
    assert set(drift.nums) == {1} and drift.den == 1
    assert {len(exps) for exps in drift.exps} == {largest}


def test_library_products_have_no_bound():
    # two sums of 129 terms: 16641 pairs, above the bound for text
    n = 129
    with pytest.raises(TooLarge):
        parse_model(_product_model(2, n))
    p = Polynomial.sum(Polynomial.variable(i) for i in range(n))
    assert (p * p).monomial_count() == n * (n + 1) // 2


# -- trajectories ---------------------------------------------------------------


def test_compare_reduction_needs_the_original_ground_set():
    orig = integrate(cascade(), 0.2, 0.1)
    red = Trajectory(orig.times, orig.states[:, :2], orig.names[:2])
    with pytest.raises(GridMismatch, match="does not cover the original variables"):
        compare_reduction(orig, red, Partition([[0], [1]]), "bde")


def test_read_csv_needs_a_time_column():
    with pytest.raises(ValueError, match="first column must be 'time'"):
        read_csv(io.StringIO("t,x\n0,1\n"))


# -- solver replies ---------------------------------------------------------------

SCRIPT = "(declare-const x Real)\n(assert (> x 0))\n(check-sat)\n(get-model)\n"


def test_reply_with_an_extra_parenthesis_is_a_solver_error(tmp_path, capsys):
    model = tmp_path / "m.ode"
    model.write_text(MIN_PAIR_TEXT.replace("end ode", "end ode\nbegin partition\n"
                                           "  {x1, x2}, {x3}\nend partition"))
    rc = main(["check", "--mode", "bde", "--in", str(model), "--backend", "smt",
               "--solver-cmd", reply_cmd(tmp_path, "unsat\n)\n")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("solver error: ")


def test_zero_denominator_value_is_unknown(tmp_path):
    verdict = solver_invoke(SCRIPT, reply_cmd(tmp_path, "sat\n((define-fun x () Real (/ 1 0)))\n"))
    assert (verdict.kind, verdict.reason) == ("unknown", "irrational-model")


def test_error_between_verdict_and_model_is_skipped(tmp_path):
    reply = 'sat\n(error "model is partial")\n((define-fun x () Real (/ 1 2)))\n'
    verdict = solver_invoke(SCRIPT, reply_cmd(tmp_path, reply))
    assert verdict.kind == "sat"
    assert verdict.model == {"x": Fraction(1, 2)}


def test_fde_witness_that_falsifies_nothing_is_a_protocol_error(tmp_path):
    # the all-zero witness keeps every block sum and every pair is
    # interchangeable, so the split finds nothing to separate
    system = cascade(k1=1, k2=1)
    with pytest.raises(ProtocolError, match="does not falsify the current formula"):
        symbolic_coarsest_with_trace(system, Partition.one_block(3), "fde",
                                     seq_cmd(tmp_path, ["sat", "unsat", "unsat", "unsat"]))


def test_report_of_an_expression_model(tmp_path):
    model = tmp_path / "m.ode"
    model.write_text(MIN_PAIR_TEXT)
    report = tmp_path / "r.json"
    rc = main(["reduce", "--mode", "bde", "--in", str(model), "--partition", "one-block",
               "--solver-cmd", seq_cmd(tmp_path, [SAT_111, "unsat"]),
               "--out", str(tmp_path / "red.ode"), "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["backend"] == "smt"
    assert data["monomials_before"] is None and data["monomials_after"] is None
    assert (data["variables_before"], data["variables_after"]) == (3, 2)
