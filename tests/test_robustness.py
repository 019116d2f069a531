"""Edge cases across module boundaries."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odelump import (NonPolynomialDrift, OdeLumpError, OdeSystem, Partition,
                     PartitionMismatch, Polynomial, brute_force_coarsest,
                     build_phi_bde, build_phi_fde, check_bde, check_fde,
                     coarsest_with_trace, integrate, ode_to_rn, parse_model,
                     prepartition_from_inits, reduce_backward, reduce_forward,
                     rn_to_ode, symbolic_coarsest_with_trace)
from odelump.cli import main
from conftest import cascade

RN_MODEL = """\
begin model
begin init
  x1 = 1
  x2 = 1/2
  x3 = 1/2
end init
begin reactions
  x1 -> x1 + x1, -1
  x1 -> x1 + x2, 2
  x2 -> x2 + x2, -1
  x1 -> x1 + x3, 3
  x3 -> x3 + x3, -1
end reactions
begin partition
  {x1}, {x2, x3}
end partition
end model
"""


def test_reduce_accepts_reaction_networks(tmp_path):
    model = tmp_path / "rn.ode"
    model.write_text(RN_MODEL)
    out = tmp_path / "red.ode"
    report = tmp_path / "r.json"
    rc = main(["reduce", "--mode", "fde", "--in", str(model),
               "--partition", "one-block", "--out", str(out),
               "--report", str(report)])
    assert rc == 0
    reduced = parse_model(out.read_text()).system
    assert reduced.names == ("x1", "x2_x3")
    assert json.loads(report.read_text())["monomials_before"] == 5


def test_check_accepts_reaction_networks(tmp_path):
    model = tmp_path / "rn.ode"
    model.write_text(RN_MODEL)
    assert main(["check", "--mode", "fde", "--in", str(model)]) == 0
    # with equal feeding rates the partition is also backward
    model.write_text(RN_MODEL.replace("x1 + x2, 2", "x1 + x2, 3"))
    assert main(["check", "--mode", "bde", "--in", str(model)]) == 0


def test_simulate_reaction_network_with_sampling(tmp_path, capsys):
    model = tmp_path / "rn.ode"
    model.write_text(RN_MODEL)
    csv = tmp_path / "t.csv"
    rc = main(["simulate", "--in", str(model), "--t-end", "1", "--dt", "0.001",
               "--sample", "100", "--out", str(csv)])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 12  # header + t = 0, 0.1, ..., 1.0
    assert lines[0] == "time,x1,x2,x3"


@pytest.mark.parametrize("call", [
    lambda rn, part: check_bde(rn, part),
    lambda rn, part: check_fde(rn, part),
    lambda rn, part: coarsest_with_trace(rn, part, "bde"),
    lambda rn, part: brute_force_coarsest(rn, part, "fde"),
    lambda rn, part: reduce_backward(rn, part),
    lambda rn, part: reduce_forward(rn, part),
    lambda rn, part: integrate(rn, 1.0, 0.1),
    lambda rn, part: prepartition_from_inits(rn, part),
    lambda rn, part: build_phi_bde(rn, part),
    lambda rn, part: build_phi_fde(rn, part),
    # a solver command that cannot start: the type must be rejected first
    lambda rn, part: symbolic_coarsest_with_trace(rn, part, "bde",
                                                  "odelump-no-such-solver"),
    lambda rn, part: ode_to_rn(rn),
], ids=["check_bde", "check_fde", "coarsest_with_trace", "brute_force_coarsest",
        "reduce_backward", "reduce_forward", "integrate",
        "prepartition_from_inits", "build_phi_bde", "build_phi_fde",
        "symbolic_coarsest_with_trace", "ode_to_rn"])
def test_reaction_networks_must_be_converted_first(call):
    doc = parse_model(RN_MODEL)
    with pytest.raises(TypeError, match="convert a reaction network with rn_to_ode"):
        call(doc.system, doc.user_partition)


_ENTRY_POINTS = {
    "check_bde": check_bde,
    "check_fde": check_fde,
    "coarsest_with_trace bde": lambda s, p: coarsest_with_trace(s, p, "bde"),
    "coarsest_with_trace fde": lambda s, p: coarsest_with_trace(s, p, "fde"),
    "brute_force_coarsest": lambda s, p: brute_force_coarsest(s, p, "fde"),
    "reduce_backward": reduce_backward,
    "reduce_forward": reduce_forward,
    "prepartition_from_inits": prepartition_from_inits,
    "build_phi_bde": build_phi_bde,
    "build_phi_fde": build_phi_fde,
    "symbolic_coarsest_with_trace": lambda s, p: symbolic_coarsest_with_trace(
        s, p, "fde", "odelump-no-such-solver"),
    "integrate": lambda s, p: integrate(s, 1.0, 0.1),
}
_EXPR_MODEL = ("begin model begin init x=1 y=1 end init "
               "begin ode d(x) = min(x, y) d(y) = max(y, x) end ode end model")


def _input_error_cases():
    """(entry point, system, partition size, error type, message) for every
    public entry point that rejects a reaction network, a partition of
    another size or, in the syntactic ones, an expression system."""
    not_ode = (TypeError, "expected an OdeSystem, not ReactionNetwork; "
                          "convert a reaction network with rn_to_ode first")
    not_polynomial = {
        "brute_force_coarsest": "the brute-force oracle needs polynomial drifts"}
    for entry in _ENTRY_POINTS:
        for size in (2, 3):
            yield entry, "reaction network", size, *not_ode
        if entry == "integrate":
            continue
        for size in (2, 4):
            yield (entry, "polynomial", size, PartitionMismatch,
                   f"partition covers {size} variables, system has 3")
        if entry.startswith(("check", "coarsest", "brute")):
            yield (entry, "expression", 3, NonPolynomialDrift, not_polynomial.get(
                entry, "syntactic checks need polynomial drifts; use the solver backend"))
        else:
            yield (entry, "expression", 3, PartitionMismatch,
                   "partition covers 3 variables, system has 2")


@pytest.mark.parametrize("entry, kind, size, error, message", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[2]}") for case in _input_error_cases()])
def test_input_errors_keep_their_type_and_message(entry, kind, size, error, message):
    system = {"reaction network": lambda: parse_model(RN_MODEL).system,
              "polynomial": cascade,
              "expression": lambda: parse_model(_EXPR_MODEL).system}[kind]()
    with pytest.raises(error) as raised:
        _ENTRY_POINTS[entry](system, Partition.one_block(size))
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("given, name", [
    (cascade, "OdeSystem"),
    (lambda: RN_MODEL, "str"),
], ids=["ode system", "model text"])
def test_rn_to_ode_names_what_it_got(given, name):
    with pytest.raises(TypeError) as raised:
        rn_to_ode(given())
    assert type(raised.value) is TypeError
    assert str(raised.value) == f"expected a ReactionNetwork, not {name}"


def test_macro_name_collision_deduplicated():
    names = ("a", "b", "a_b")
    system = OdeSystem.make(names, tuple(Polynomial.zero() for _ in names),
                            (0, 0, 0))
    reduced = reduce_forward(system, Partition([[0, 1], [2]]))
    assert reduced.names == ("a_b", "a_b_")
    assert len(set(reduced.names)) == 2


@pytest.mark.parametrize("text", [
    "",
    "begin",
    "begin model",
    "begin model end model",
    "begin model begin init x=1 end init end model",
    "begin model begin init x=1 end init begin ode d(x)=0 end ode",
    "end model begin model",
    "begin model begin init x=1 end init begin ode d(x)=0 end ode end model extra",
    "begin model begin init x==1 end init begin ode end ode end model",
    "begin model begin init x=1 end init begin ode d(x) = min(x) end ode end model",
    "begin model begin init x=1 end init begin reactions x -> , 1 "
    "end reactions end model",
    "begin model begin init x=1 end init begin ode d(x)=0 end ode "
    "begin partition {x end partition end model",
])
def test_malformed_documents_raise_package_errors(text):
    with pytest.raises(OdeLumpError):
        parse_model(text)


# ".", ">", tab, "//" and a non-ASCII letter reach the tokenizer's error and
# comment paths
_PIECES = list("beginmodl ixyz=01{}(),+-*/\n.>\t\u00e9") + ["//"]


@given(st.lists(st.sampled_from(_PIECES), max_size=80).map("".join))
@settings(max_examples=200, deadline=None)
def test_parser_never_crashes_outside_its_error_types(text):
    try:
        parse_model(text)
    except OdeLumpError:
        pass  # every rejection goes through the package's error types
