from fractions import Fraction
from pathlib import Path

import pytest

from odelump import (DuplicateVariable, ModelSyntaxError, NonPolynomialDrift,
                     OdeLumpError, OdeSystem, Partition, PartitionCoverageError,
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
    assert not doc.system.drifts[0]


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


# (text, error type, line, column, message), taken from the parser before the
# drift fast path existed; every error must keep all four.
ERROR_CASES = [
    ("begin model begin init x = end init begin ode end ode end model",
     ModelSyntaxError, 1, 28, "line 1, column 28: expected number, found 'end'"),
    ("begin model begin init x 1 end init begin ode end ode end model",
     ModelSyntaxError, 1, 26, "line 1, column 26: expected '=', found '1'"),
    ("begin model begin init end init begin ode end ode end model",
     ModelSyntaxError, 1, 28,
     "line 1, column 28: expected at least one variable declaration, found 'init'"),
    ("begin model begin init x=1 end init begin ode d(x) = (x end ode end model",
     ModelSyntaxError, 1, 57, "line 1, column 57: expected ')', found 'end'"),
    ("begin model begin init x=1 end init begin ode d x = 1 end ode end model",
     ModelSyntaxError, 1, 49, "line 1, column 49: expected '(', found 'x'"),
    ("begin model begin init x=1 end init begin ode d(x) = 1 ? end ode end model",
     ModelSyntaxError, 1, 56, "line 1, column 56: expected valid token, found '?'"),
    ("begin model begin init x=1 end init begin reactions x -> x, 0 "
     "end reactions end model",
     ModelSyntaxError, 1, 61, "line 1, column 61: expected nonzero reaction rate, found '0'"),
    # an invalid character wins over an earlier syntax error
    ("begin model begin init x = end init\nbegin ode d(x) = 1 ? end ode end model",
     ModelSyntaxError, 2, 20, "line 2, column 20: expected valid token, found '?'"),
    # end of input after trailing whitespace, after a trailing comment, after x//c
    ("begin model begin init x=1 end init begin ode d(x) = 2*x end ode  \n\t ",
     ModelSyntaxError, 2, 3, "line 2, column 3: expected 'end', found 'end of input'"),
    ("begin model begin init x=1 end init begin ode d(x) = 2*x end ode\n// trailing",
     ModelSyntaxError, 2, 12, "line 2, column 12: expected 'end', found 'end of input'"),
    ("begin model begin init x=1 end init begin ode d(x) = x//c",
     ModelSyntaxError, 1, 58, "line 1, column 58: expected 'end', found 'end of input'"),
    ("begin model begin init x=1 end init begin ode d(x) = 2*x y end ode end model",
     ModelSyntaxError, 1, 58, "line 1, column 58: expected 'd(', found 'y'"),
    ("begin model begin init x=1 end init begin ode d(x) = 2*x + 3* end ode end model",
     UndeclaredVariable, 1, 63, "line 1, column 63: undeclared variable 'end'"),
    ("begin model begin init x=1 end init begin ode d(x) = x/ end ode end model",
     UndeclaredVariable, 1, 57, "line 1, column 57: undeclared variable 'end'"),
    ("begin model begin init x=1/0 end init begin ode end ode end model",
     ModelSyntaxError, 1, 28, "line 1, column 28: expected nonzero denominator, found '0'"),
    ("begin model begin init x=1 end init begin ode d(x) = x(2) end ode end model",
     ModelSyntaxError, 1, 54, "line 1, column 54: expected a min, max or abs call, found 'x'"),
    ("begin model begin init x=1 end init begin ode d(x) = x d(x) = 1 end ode end model",
     ModelSyntaxError, 1, 58,
     "line 1, column 58: expected a single drift for variable 'x', found 'x'"),
    ("begin model begin init x=1. end init begin ode end ode end model",
     ModelSyntaxError, 1, 27, "line 1, column 27: expected valid token, found '.'"),
    ("begin model begin init x=1 end init begin ode d(x) = 1 > 2 end ode end model",
     ModelSyntaxError, 1, 56, "line 1, column 56: expected valid token, found '>'"),
    ("begin model begin init x=1 end init begin ode d(x) = 1 end ode end model \u00e9",
     ModelSyntaxError, 1, 74, "line 1, column 74: expected valid token, found '\u00e9'"),
    ("begin model begin init x=1 end init begin ode d(x) = min(x,) end ode end model",
     ModelSyntaxError, 1, 60,
     "line 1, column 60: expected a number, variable or '(', found ')'"),
    ("begin model begin init x=1 end init begin reactions x -> 0.5*x, 1 "
     "end reactions end model",
     ModelSyntaxError, 1, 58,
     "line 1, column 58: expected positive integer multiplicity, found '0.5'"),
    # an undeclared variable inside a plain sum-of-products drift
    ("begin model\nbegin init\n  x = 1\n  y = 2\nend init\nbegin ode\n"
     "  d(x) = 2*x - 3*x*z + y\nend ode\nend model\n",
     UndeclaredVariable, 7, 20, "line 7, column 20: undeclared variable 'z'"),
    ("begin model\nbegin init\n  x = 1\nend init\nbegin reactions\n"
     "  x + q -> 0, 1\nend reactions\nend model",
     UndeclaredVariable, 6, 7, "line 6, column 7: undeclared variable 'q'"),
    ("begin model begin init x=1 y=2 x=3 end init begin ode end ode end model",
     DuplicateVariable, 1, 32, "line 1, column 32: duplicate variable 'x'"),
    ("begin model\nbegin init\n  x = 1\n  y = 2\nend init\nbegin ode\n  d(x) = x\n"
     "end ode\nbegin partition\n  {x}\nend partition\nend model\n",
     PartitionCoverageError, 9, 1, "line 9: partition must cover every declared variable"),
    ("begin model\nbegin init\n  x = 1\n  y = 2\nend init\nbegin ode\nend ode\n"
     "  begin partition {x, y}, {y} end partition\nend model\n",
     PartitionCoverageError, 8, 3, "line 8: blocks must be disjoint and cover 0..n-1"),
]


def test_syntax_errors_carry_positions():
    for text, kind, line, column, message in ERROR_CASES:
        with pytest.raises(OdeLumpError) as err:
            parse_model(text)
        assert type(err.value) is kind, text
        assert (err.value.line, err.value.column, str(err.value)) == \
            (line, column, message), text


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
    assert not doc.system.drifts[1]


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
    from odelump import coarsest_with_trace, reduce_forward
    system = cascade(k1=1, k2=1)
    part = coarsest_with_trace(system, Partition.one_block(3), "fde")[0]
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
