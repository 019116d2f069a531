from fractions import Fraction
from pathlib import Path

import pytest

from odelump import (DuplicateVariable, ModelSyntaxError, NonPolynomialDrift,
                     OdeSystem, Partition, PartitionCoverageError,
                     ReactionNetwork, UndeclaredVariable, parse_model,
                     rn_to_ode, serialize_model)
from conftest import cascade, cascade_text

GOLDEN = sorted(Path(__file__).parent.glob("golden/*.ode"))


def test_cascade_document():
    doc = parse_model(cascade_text(k1=1, k2=1, init=(1, Fraction(1, 2), Fraction(1, 2))))
    system = doc.system
    assert isinstance(system, OdeSystem)
    assert system.names == ("x1", "x2", "x3")
    assert system.is_polynomial
    assert system == cascade(k1=1, k2=1, init=(1, Fraction(1, 2), Fraction(1, 2)))
    assert doc.user_partition is None


def test_minimal_document():
    doc = parse_model("begin model begin init x=1 end init "
                      "begin ode d(x) = 0 end ode end model")
    assert doc.system.names == ("x",)
    assert doc.system.drifts[0].is_zero()


def test_undeclared_variable_in_drift():
    text = ("begin model begin init x=1 end init\n"
            "begin ode d(x) = y end ode end model")
    with pytest.raises(UndeclaredVariable) as err:
        parse_model(text)
    assert err.value.name == "y"
    assert err.value.line == 2


def test_undeclared_variable_in_ode_head():
    with pytest.raises(UndeclaredVariable):
        parse_model("begin model begin init x=1 end init "
                    "begin ode d(z) = 1 end ode end model")


def test_duplicate_variable():
    with pytest.raises(DuplicateVariable) as err:
        parse_model("begin model begin init x=1 x=2 end init "
                    "begin ode end ode end model")
    assert err.value.name == "x"


def test_partition_coverage_errors():
    missing = cascade_text(extra="begin partition\n  {x1}, {x2}\nend partition\n")
    with pytest.raises(PartitionCoverageError) as err:
        parse_model(missing)
    assert err.value.line is not None and err.value.column is not None
    doubled = cascade_text(extra="begin partition\n  {x1, x2}, {x2, x3}\nend partition\n")
    with pytest.raises(PartitionCoverageError):
        parse_model(doubled)


def test_syntax_errors_carry_positions():
    cases = [
        "begin model begin init x = end init begin ode end ode end model",
        "begin model begin init x 1 end init begin ode end ode end model",
        "begin model begin init end init begin ode end ode end model",
        "begin model begin init x=1 end init begin ode d(x) = (x end ode end model",
        "begin model begin init x=1 end init begin ode d x = 1 end ode end model",
        "begin model begin init x=1 end init begin ode d(x) = 1 ? end ode end model",
        "begin model begin init x=1 end init begin reactions x -> x, 0 "
        "end reactions end model",
    ]
    for text in cases:
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(text)
        assert err.value.line >= 1
        assert err.value.column >= 1


def test_error_lines_point_into_text():
    text = "begin model\nbegin init\n  x = 1\n  x = 2\nend init\n" \
           "begin ode end ode\nend model\n"
    with pytest.raises(DuplicateVariable) as err:
        parse_model(text)
    assert err.value.line == 4


def test_decimals_parse_exactly():
    doc = parse_model("begin model begin init x=0.25 end init "
                      "begin ode d(x) = 0.1*x end ode end model")
    assert doc.system.init[0] == Fraction(1, 4)
    assert doc.system.drifts[0].terms[0].coeff == Fraction(1, 10)


def test_rational_and_negative_literals():
    doc = parse_model("begin model begin init a=-1/3 b=-0.5 end init "
                      "begin ode end ode end model")
    assert doc.system.init == (Fraction(-1, 3), Fraction(-1, 2))


def test_observe_section_sets_observables():
    doc = parse_model(cascade_text(extra="begin observe\n  x2, x3\nend observe\n"))
    assert doc.system.observables == frozenset({1, 2})


def test_partition_section_parsed():
    doc = parse_model(cascade_text(extra="begin partition\n  {x1}, {x2, x3}\nend partition\n"))
    assert doc.user_partition == Partition([[0], [1, 2]])


def test_reactions_document():
    doc = parse_model("""
    begin model
    begin init
      a = 1
      b = 0
    end init
    begin reactions
      a + a -> a + b, 1/2
      b -> 0, -3
    end reactions
    end model
    """)
    rn = doc.system
    assert isinstance(rn, ReactionNetwork)
    assert rn.reactions[0].reagents == ((0, 2),)
    assert rn.reactions[0].products == ((0, 1), (1, 1))
    assert rn.reactions[0].rate == Fraction(1, 2)
    assert rn.reactions[1].products == ()
    assert rn.reactions[1].rate == -3


def test_duplicate_species_in_mset_accumulates():
    doc = parse_model("begin model begin init a=1 end init "
                      "begin reactions a + a + a -> 0, 1 end reactions end model")
    assert doc.system.reactions[0].reagents == ((0, 3),)


def test_missing_drift_defaults_to_zero():
    doc = parse_model(Path(__file__).parent.joinpath(
        "golden/t18_zero_drift_default.ode").read_text())
    assert doc.system.drifts[1].is_zero()


def test_expression_drifts_stay_symbolic():
    doc = parse_model("begin model begin init x=1 y=1 end init "
                      "begin ode d(x) = min(x, y) d(y) = x end ode end model")
    assert not doc.system.is_polynomial


def test_constant_division_lowers_to_polynomial():
    doc = parse_model("begin model begin init x=1 end init "
                      "begin ode d(x) = x/2 end ode end model")
    assert doc.system.is_polynomial
    assert doc.system.drifts[0].terms[0].coeff == Fraction(1, 2)


def test_serialize_rn_rejects_expression_drifts():
    doc = parse_model("begin model begin init x=1 y=1 end init "
                      "begin ode d(x) = min(x, y) end ode end model")
    with pytest.raises(NonPolynomialDrift):
        serialize_model(doc, form="rn")


def test_serialized_reduction_carries_summed_rate():
    from odelump import coarsest_fde, reduce_forward
    system = cascade(k1=1, k2=1)
    part = coarsest_fde(system, Partition.one_block(3))
    text = serialize_model(reduce_forward(system, part))
    assert "2*x1" in text  # the k1 + k2 coefficient


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_round_trip(path):
    assert len(GOLDEN) >= 20
    first = parse_model(path.read_text())
    again = parse_model(serialize_model(first, form="ode"))
    if isinstance(first.system, ReactionNetwork):
        assert again.system == rn_to_ode(first.system)
        rn_again = parse_model(serialize_model(first, form="rn"))
        assert rn_again.system == first.system
    else:
        assert again.system == first.system
        if first.system.is_polynomial:
            rn_doc = parse_model(serialize_model(first, form="rn"))
            assert rn_to_ode(rn_doc.system) == first.system
    assert again.user_partition == first.user_partition


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_serialization_stable(path):
    doc = parse_model(path.read_text())
    once = serialize_model(doc, form="ode")
    assert serialize_model(parse_model(once), form="ode") == once
