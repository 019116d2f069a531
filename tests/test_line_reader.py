"""The line reader of ``parsing`` agrees with the token parser, or declines.

``parse_model`` first offers the text to ``_read_lines``, which reads one
statement per line and returns None on anything else; the token parser then
reads the whole text.  A model text drawn from a grammar generator must
either be declined or read into the same document as ``_Parser`` reads it.
The files odelump writes must not be declined, or they would silently take
the slow path.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odelump import OdeLumpError, parse_model, serialize_model
from odelump.parsing import _Parser, _read_lines
from test_parser import ERROR_CASES

GOLDEN = sorted(Path(__file__).parent.glob("golden/*.ode"))

# names the grammar also spells otherwise ("d" heads a drift, "min" is a call)
# and, rarely, a reserved word or a name never declared
NAMES = ["a", "b", "x1", "d", "min", "L"]
ODD_NAMES = NAMES * 10 + ["end", "zz"]

NUMERALS = ["0", "1", "2", "3", "007", "0.25", "2.50", "10"]
# zero, and so a zero rate or denominator, one time in twenty-two
RARE_ZERO = NUMERALS[1:] * 3 + ["0"]
SPACES = st.sampled_from(["", " ", " ", " ", "  ", "\t"])


@st.composite
def rationals(draw):
    text = draw(st.sampled_from(["", "", "-"])) + draw(st.sampled_from(RARE_ZERO))
    if draw(st.booleans()):
        text += "/" + draw(st.sampled_from(RARE_ZERO))
    return text


@st.composite
def terms(draw, names):
    factors = draw(st.lists(st.sampled_from(names), max_size=3))  # repeats allowed
    shape = draw(st.sampled_from(["plain"] * 12 + ["p/q*"] * 4 + ["x/q", "x*p", "p*q*"]))
    num = draw(st.sampled_from(NUMERALS))
    den = draw(st.sampled_from(RARE_ZERO))
    if shape == "p/q*":
        factors.insert(0, f"{num}/{den}")
    elif shape == "x/q" and factors:
        factors[-1] += "/" + den
    elif shape == "x*p":
        factors.append(num)
    elif shape == "p*q*":
        factors[:0] = [num, den]
    elif not factors or draw(st.booleans()):
        factors.insert(0, num)
    return "*".join(factors)


@st.composite
def drifts(draw, names):
    body = draw(st.lists(terms(names), min_size=1, max_size=4))
    if draw(st.booleans()):  # a term and its negation
        body.append(body[0])
        ops = [" + "] * (len(body) - 2) + [" - "]
    else:
        ops = [draw(st.sampled_from([" + ", " - ", "+", "-", "  -  ", " -\t"]))
               for _ in body[1:]]
    lead = draw(st.sampled_from(["", "", "", "-", "-", "- ", "--"]))
    return lead + body[0] + "".join(op + t for op, t in zip(ops, body[1:]))


@st.composite
def sides(draw, names):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(["0", "0", "00"]))
    items = []
    for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)):
        mult = draw(st.sampled_from(["", "", "", "", "", "2*", "3*", "0*", "007*", "2.0*"]))
        items.append(mult + name)
    return draw(st.sampled_from([" + ", "+", "  +  "])).join(items)


def _line(draw, statement):
    """One statement on a line, maybe with a trailing comment or split in two."""
    text = draw(SPACES) + statement + draw(SPACES)
    pick = draw(st.integers(0, 39))
    if pick == 0:
        text += "// note"
    elif pick == 1 and " " in text.strip():
        head, _, tail = text.strip().partition(" ")
        text = head + "\n" + tail
    return text


@st.composite
def model_texts(draw):
    names = draw(st.lists(st.sampled_from(ODD_NAMES), min_size=1, max_size=4,
                          unique=draw(st.integers(0, 9)) > 0))
    declared = [nm for nm in names if nm != "zz"] or ["a"]
    eq = draw(st.sampled_from([" = ", "=", "  =\t"]))
    lines = ["begin model", "begin init"]
    for nm in names:
        lines.append(_line(draw, f"{nm}{eq}{draw(rationals())}"))
    lines.append("end init")
    if draw(st.booleans()):
        lines.append("begin ode")
        heads = draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
        if heads and draw(st.integers(0, 9)) == 0:
            heads.append(heads[0])  # a second drift for one variable
        for nm in heads:
            lines.append(_line(draw, f"d({nm}) = {draw(drifts(declared))}"))
        lines.append("end ode")
    else:
        lines.append("begin reactions")
        for _ in range(draw(st.integers(0, 4))):
            lhs, rhs = draw(sides(declared)), draw(sides(declared))
            lines.append(_line(draw, f"{lhs} -> {rhs}, {draw(rationals())}"))
        lines.append("end reactions")
    if draw(st.booleans()):
        labels = [draw(st.integers(0, 2)) for _ in declared]
        blocks = [[nm for nm, b in zip(declared, labels) if b == k] for k in range(3)]
        blocks = [b for b in blocks if b]
        if draw(st.integers(0, 9)) == 0:
            blocks[-1] = blocks[-1][1:] or declared[:1]  # a variable missed or doubled
        sep = draw(st.sampled_from([", ", ",", " , "]))
        lines += ["begin partition",
                  sep.join("{" + sep.join(b) + "}" for b in blocks), "end partition"]
    if draw(st.booleans()):
        observed = draw(st.lists(st.sampled_from(declared), min_size=1, max_size=3))
        lines += ["begin observe", ", ".join(observed), "end observe"]
    lines.append("end model")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", "// comment", "  //"])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))


@given(model_texts())
@settings(deadline=None)
def test_line_reader_declines_or_agrees(text):
    doc = _read_lines(text)
    try:
        expected = _Parser(text).parse_model()
    except OdeLumpError:
        assert doc is None
        return
    assert doc is None or doc == expected


def test_line_reader_declines_every_error_case():
    assert len(ERROR_CASES) == 27
    for text, *_ in ERROR_CASES:
        assert _read_lines(text) is None, text


# (init lines, the ode or reactions line) of texts the token parser reads or
# rejects, and the line reader declines
DECLINED = {
    "duplicate": ("x = 1\n  x = 2", ""),
    "reserved": ("x = 1\n  end = 2", ""),
    "zero denominator": ("x = 1/0", ""),
    "trailing comment": ("x = 1 // one", ""),
    "split statement": ("x =\n  1", ""),
    "undeclared": ("x = 1", "d(x) = y"),
    "drift twice": ("x = 1", "d(x) = x\n  d(x) = 1"),
    "zero denominator in a drift": ("x = 1", "d(x) = 1/0*x"),
    "division by a variable": ("x = 1", "d(x) = 1/x"),
    "tab inside a drift": ("x = 1", "d(x) = x\t- 1"),
    "zero rate": ("x = 1", "x -> 0, 0"),
    "zero multiplicity": ("x = 1", "0*x -> 0, 1"),
    "decimal multiplicity": ("x = 1", "2.0*x -> 0, 1"),
}


@pytest.mark.parametrize("init, line", DECLINED.values(), ids=DECLINED.keys())
def test_line_reader_declines(init, line):
    kind = "reactions" if "->" in line else "ode"
    text = (f"begin model\nbegin init\n  {init}\nend init\n"
            f"begin {kind}\n  {line}\nend {kind}\nend model\n")
    assert _read_lines(text) is None


def _assert_fast(text):
    doc = _read_lines(text)
    assert doc is not None, text
    assert doc == _Parser(text).parse_model()


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_serialized_models_take_the_line_reader(path):
    """Every form serialize_model writes of a model without expression drifts."""
    doc = parse_model(path.read_text())
    system = doc.system
    if not getattr(system, "is_polynomial", True):
        return  # expression drifts are read by the token parser only
    for form in ("ode", "rn"):
        _assert_fast(serialize_model(doc, form=form))


MOTIF = """\
begin model
begin init
  v0r0 = 2/5
  v0r1 = 1/2
  v0r2 = 4/5
end init
begin ode
  d(v0r0) = -20*v0r0 + v0r1 + v0r0*v0r2
  d(v0r1) = -8*v0r1 + v0r2 + v0r1*v0r0
  d(v0r2) = -19*v0r2 + v0r0 + v0r2*v0r1
end ode
end model
"""

CHAIN = """\
begin model
begin init
  x0 = 9
  y0 = 9
  x1 = 9
  y1 = 9
end init
begin ode
  d(x0) = -4/3*x0
  d(y0) = -4/3*y0
  d(x1) = 2/3*x0 - 2/3*x1
  d(y1) = 2/3*y0 - 2/3*y1
end ode
end model
"""

SITES = """\
begin model
begin init
  P00 = 9/40
  P10 = 3/20
  P01 = 3/20
  P11 = 1/5
  L = 1/2
end init
begin reactions
  P00 + L -> P10, 5/2
  P10 -> P00 + L, 1/4
  P00 + L -> P01, 5/2
  P01 -> P00 + L, 1/4
  P10 + L -> P11, 5/2
  P11 -> P10 + L, 1/4
  P01 + L -> P11, 5/2
  P11 -> P01 + L, 1/4
end reactions
end model
"""


@pytest.mark.parametrize("text", [MOTIF, CHAIN, SITES], ids=["motif", "chain", "sites"])
def test_benchmark_shaped_models_take_the_line_reader(text):
    _assert_fast(text)
