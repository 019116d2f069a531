"""Edge cases across module boundaries."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odelump import (OdeLumpError, OdeSystem, Partition, Polynomial,
                     parse_model, reduce_forward)
from odelump.cli import main

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
