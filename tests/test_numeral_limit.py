"""Numbers beyond the interpreter's limit on int text.

Python refuses to convert an int of more than ``sys.get_int_max_str_digits()``
digits from or to text.  The reader refuses a numeral with more digits, its
point not counted, as a syntax error at its line and column, and every
writer refuses such a number with ``_NumberTooLong``; both exit 2 and write
no output file.  A failing ``check`` keeps its verdict (exit 1) and says
that the difference has such a number, and a solver reply with such a
numeral is an unknown (exit 3).

Every rule follows the interpreter's limit: these tests also pass with
``PYTHONINTMAXSTRDIGITS=640``, its minimum."""

import sys
from pathlib import Path

import pytest

from odelump import ModelSyntaxError, NotABde, parse_model, reduce_backward, serialize_model
from odelump.cli import main
from odelump.errors import _NumberTooLong
from test_smt import reply_cmd

LIMIT = sys.get_int_max_str_digits()
pytestmark = pytest.mark.skipif(LIMIT == 0, reason="the interpreter has no limit on int text")

LONG = "9" * (LIMIT + 1)

# Each model spells one numeral as "@", which is replaced by a numeral of
# LIMIT + 1 digits, its point not counted.  A split decimal has at most
# LIMIT digits on each side of its point.
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
    "split decimal": _ODE.format(init="@", drift="-x"),
    "split decimal inside a tree": _ODE.format(init="2", drift="min(x, @*y)"),
}
_SPLIT = "1" * (LIMIT // 2) + "." + "2" * (LIMIT - LIMIT // 2 + 1)


def _spelled(name):
    """The model text, and the line and column of its long numeral."""
    template = SPELLINGS[name]
    at = template.index("@")
    if name == "decimal":
        at -= 2  # the token starts at its "0."
    line = template.count("\n", 0, at) + 1
    column = at - template.rfind("\n", 0, at)
    digits = {"decimal": "0" * (LIMIT - 1) + "1", "split decimal": _SPLIT,
              "split decimal inside a tree": _SPLIT}.get(name, LONG)
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


@pytest.mark.parametrize("digits", ["0." + "0" * (LIMIT - 2) + "1", _SPLIT[:-1]],
                         ids=["decimal", "split decimal"])
def test_a_decimal_at_the_limit_is_written_back(digits):
    doc = parse_model(SPELLINGS["init"].replace("@", digits))
    assert parse_model(serialize_model(doc)) == doc


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


_CHECK_MESSAGE = (f"counterexample: pair (x, y) in block 0, the difference has a number "
                  f"of more than {LIMIT} digits, witness point ('1', '1')\n")


@pytest.mark.parametrize("args, code, err",
                         [(["convert", "--to", "rn"], 2, _WRITER_MESSAGE),
                          (["convert", "--to", "ode"], 2, _WRITER_MESSAGE),
                          (["convert", "--to", "smt2", "--mode", "bde"], 2, _WRITER_MESSAGE),
                          # the verdict stands; only the difference is not written
                          (["check", "--mode", "bde"], 1, _CHECK_MESSAGE)],
                         ids=["rn", "ode", "smt2", "check"])
def test_every_writer_refuses_a_number_past_the_limit(args, code, err, tmp_path, capsys):
    assert _run(args, _SUMMED, tmp_path) == (code, tmp_path / "out")
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()


def test_a_failed_reduction_keeps_its_type_past_the_limit():
    doc = parse_model(_SUMMED)
    with pytest.raises(NotABde) as caught:
        reduce_backward(doc.system, doc.user_partition)
    assert str(caught.value) == "partition is not a BDE: " + _CHECK_MESSAGE[:-1]


@pytest.mark.parametrize("value", [LONG, _SPLIT, f"(/ 1 {LONG})", f"(- {_SPLIT})"],
                         ids=["integer", "split decimal", "quotient", "negated decimal"])
@pytest.mark.parametrize("command", ["check", "reduce"])
def test_a_solver_value_past_the_limit_is_unknown(command, value, tmp_path, capsys):
    reply = f"sat\n((define-fun x1 () Real {value}))\n"
    model = Path(__file__).parent / "golden" / "t04_partition.ode"
    argv = [command, "--mode", "bde", "--backend", "smt", "--in", str(model),
            "--solver-cmd", reply_cmd(tmp_path, reply)]
    if command == "reduce":
        argv += ["--partition", "file", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert capsys.readouterr().err == ("solver error: solver returned unknown: a model "
                                       f"value has more than {LIMIT} digits\n")
    assert not (tmp_path / "out").exists()


def test_serialize_model_raises_the_typed_error():
    doc = parse_model(_SUMMED)
    for form in ("ode", "rn"):
        with pytest.raises(_NumberTooLong) as caught:
            serialize_model(doc, form)
        assert caught.value.limit == LIMIT
