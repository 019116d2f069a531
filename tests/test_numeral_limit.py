"""Numbers beyond the interpreter's limit on int text.

Python refuses to convert an int of more than ``sys.get_int_max_str_digits()``
digits from or to text.  The reader refuses such a numeral as a syntax
error at its line and column, and every writer refuses such a number with
``_NumberTooLong``; both exit 2 and write no output file."""

import sys

import pytest

from odelump import ModelSyntaxError, parse_model, serialize_model
from odelump.cli import main
from odelump.errors import _NumberTooLong

LIMIT = sys.get_int_max_str_digits()
pytestmark = pytest.mark.skipif(LIMIT == 0, reason="the interpreter has no limit on int text")

LONG = "9" * (LIMIT + 1)

# Each model spells one numeral as "@", which is replaced by a numeral of
# LIMIT + 1 digits (or, for the decimal, digits after the point).
_ODE = """\
begin model
begin init
  x = 1
  y = {init}
end init
begin ode
  d(x) = {drift}
  d(y) = -y
end ode
end model
"""
_REACTIONS = """\
begin model
begin init
  x = 1
  y = 0
end init
begin reactions
  {reaction}
end reactions
end model
"""
SPELLINGS = {
    "init": _ODE.format(init="@", drift="-x"),
    "sum-of-terms coefficient": _ODE.format(init="2", drift="@*y - x"),
    "constant inside a tree": _ODE.format(init="2", drift="(x + @)*y"),
    "rate": _REACTIONS.format(reaction="x -> y, @"),
    "multiplicity": _REACTIONS.format(reaction="@*x -> y, 1"),
    "decimal": _ODE.format(init="0.@", drift="-x"),
    "denominator": _ODE.format(init="1/@", drift="-x"),
}


def _spelled(name):
    """The model text, and the line and column of its long numeral."""
    template = SPELLINGS[name]
    at = template.index("@")
    if name == "decimal":
        at -= 2  # the token starts at its "0."
    line = template.count("\n", 0, at) + 1
    column = at - template.rfind("\n", 0, at)
    digits = "0" * LIMIT + "1" if name == "decimal" else LONG
    return template.replace("@", digits), line, column


_MESSAGE = f"expected a numeral of at most {LIMIT} digits, found one of {LIMIT + 1}"


@pytest.mark.parametrize("name", SPELLINGS)
def test_a_long_numeral_is_a_syntax_error_at_its_place(name):
    text, line, column = _spelled(name)
    with pytest.raises(ModelSyntaxError) as caught:
        parse_model(text)
    assert (caught.value.line, caught.value.column) == (line, column)
    assert str(caught.value) == f"line {line}, column {column}: {_MESSAGE}"


_COMMANDS = {
    "reduce": ["reduce", "--mode", "bde"],
    "simulate": ["simulate", "--t-end", "1", "--dt", "0.5"],
    "convert": ["convert", "--to", "ode"],
}


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("name", SPELLINGS)
def test_every_command_refuses_a_long_numeral(name, command, tmp_path, capsys):
    text, line, column = _spelled(name)
    model = tmp_path / "long.ode"
    model.write_text(text)
    out = tmp_path / "out"
    assert main(_COMMANDS[command] + ["--in", str(model), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: line {line}, column {column}: {_MESSAGE}\n"
    assert not out.exists()


def test_a_numeral_at_the_limit_is_read_exactly():
    text = SPELLINGS["init"].replace("@", "9" * LIMIT)
    assert parse_model(text).system.init[1] == int("9" * LIMIT)


_WRITER_MESSAGE = (f"error: a number has more than {LIMIT} digits, the interpreter's "
                   "limit on the text of an integer (PYTHONINTMAXSTRDIGITS)\n")
_AT_LIMIT = "9" * LIMIT
_TWO_INITS = _ODE.replace("x = 1", "x = {init}").format(init=_AT_LIMIT, drift="-x")
# the sum of two coefficients at the limit has one digit more
_SUMMED = _ODE.format(init="1", drift=f"{_AT_LIMIT}*y + {_AT_LIMIT}*y") \
    .replace("end model", "begin partition\n  {x, y}\nend partition\nend model")


def _run(args, text, tmp_path):
    model = tmp_path / "model.ode"
    model.write_text(text)
    out = tmp_path / "out"
    code = main(args + ["--in", str(model)] + (["--out", str(out)] if args[0] != "check" else []))
    return code, out


def test_a_reduction_summing_values_past_the_limit_is_refused(tmp_path, capsys):
    code, out = _run(["reduce", "--mode", "bde"], _TWO_INITS, tmp_path)
    assert code == 0 and out.exists()  # equal values, one representative
    out.unlink()
    capsys.readouterr()
    code, out = _run(["reduce", "--mode", "fde"], _TWO_INITS, tmp_path)
    assert code == 2
    assert capsys.readouterr().err == _WRITER_MESSAGE
    assert not out.exists()


@pytest.mark.parametrize("args", [["convert", "--to", "rn"], ["convert", "--to", "ode"],
                                  ["convert", "--to", "smt2", "--mode", "bde"],
                                  ["check", "--mode", "bde"]],
                         ids=["rn", "ode", "smt2", "check"])
def test_every_writer_refuses_a_number_past_the_limit(args, tmp_path, capsys):
    code, out = _run(args, _SUMMED, tmp_path)
    assert code == 2
    assert capsys.readouterr().err == _WRITER_MESSAGE
    assert not out.exists()


def test_serialize_model_raises_the_typed_error():
    doc = parse_model(_SUMMED)
    for form in ("ode", "rn"):
        with pytest.raises(_NumberTooLong) as caught:
            serialize_model(doc, form)
        assert caught.value.limit == LIMIT
