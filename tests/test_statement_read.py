"""The statement read of ``parsing`` agrees with the plain read, and declines
only what the plain read rejects.

``parse_model`` first reads the text with whole-statement tokens, and on any
failure (``_Declined``) reads it again with plain tokens only.  A model text
drawn from a grammar generator, re-spaced with blanks, line breaks and
comments at token boundaries, must be read into the same document as the
plain read gives it, and every text the plain read rejects must be
declined.  The files odelump writes, and the benchmark shapes, must
be read with every statement whole, also with comments, blank lines and
line breaks added, or they would silently take the slow path.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odelump import OdeLumpError, parse_model, serialize_model
from odelump.parsing import _TOKEN_RE, _Declined, _Parser
from conftest import read_whole
from test_parse_paths import drift_texts
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


def _other_drift(draw, declared):
    """A drift of ``drift_texts(other=True)``, which may call min or abs,
    divide or nest, over the declared names."""
    text = draw(drift_texts(other=True))
    renamed = {nm: draw(st.sampled_from(declared)) for nm in "abc"}
    return re.sub(r"\b[abc]\b", lambda m: renamed[m[0]], text)


@st.composite
def model_texts(draw, other=False):
    """Model texts, rarely invalid; with ``other``, some drifts are spliced
    in from ``drift_texts(other=True)``."""
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
            body = (_other_drift(draw, declared) if other and draw(st.booleans())
                    else draw(drifts(declared)))
            lines.append(_line(draw, f"d({nm}) = {body}"))
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


def _agrees_or_declines(text):
    """The statement read gives the plain read's document, and declines
    exactly the texts the plain read rejects; parse_model agrees."""
    try:
        expected = _Parser(text).parse_model()
    except OdeLumpError:
        with pytest.raises(_Declined):
            _Parser(text, whole=True).parse_model()
        return
    assert _Parser(text, whole=True).parse_model() == expected
    assert parse_model(text) == expected


@given(model_texts())
@settings(deadline=None)
def test_statement_read_declines_or_agrees(text):
    _agrees_or_declines(text)


SEPARATORS = [" ", "\n", "\t", " // c\n"]


@st.composite
def respaced(draw):
    """A model text with the blanks between each pair of its tokens replaced,
    or put where there were none, by a space, a line break, a tab or a
    comment."""
    text = draw(model_texts(other=True))
    out, end = [], 0
    for m in _TOKEN_RE.finditer(text):
        gap = m.start(1) > m.start() if m[1] else m.end() > m.start()
        if gap or draw(st.integers(0, 3)) == 0:
            out.append(draw(st.sampled_from(SEPARATORS)))
        out.append(m[1] or "")
        end = m.end()
    assert end == len(text)
    return "".join(out)


@given(respaced())
@settings(deadline=None)
def test_respaced_statement_read_declines_or_agrees(text):
    _agrees_or_declines(text)


def test_statement_read_declines_every_error_case():
    assert len(ERROR_CASES) == 27
    for text, *_ in ERROR_CASES:
        with pytest.raises(_Declined):
            _Parser(text, whole=True).parse_model()


# (init lines, the ode or reactions line) of texts that the statement read
# declines: the plain read rejects them
DECLINED = {
    "duplicate": ("x = 1\n  x = 2", ""),
    "reserved": ("x = 1\n  end = 2", ""),
    "zero denominator": ("x = 1/0", ""),
    "undeclared": ("x = 1", "d(x) = y"),
    "drift twice": ("x = 1", "d(x) = x\n  d(x) = 1"),
    "zero rate": ("x = 1", "x -> 0, 0"),
    "zero multiplicity": ("x = 1", "0*x -> 0, 1"),
}
# texts the statement read takes, with some statements token by token
AGREES = {
    "trailing comment": ("x = 1 // one", ""),
    "split statement": ("x =\n  1", ""),
    "division by a variable": ("x = 1", "d(x) = 1/x"),
    "tab inside a drift": ("x = 1", "d(x) = x\t- 1"),
    "spaces around a product": ("x = 1", "d(x) = 2 * x"),
    "spaced fraction": ("x = 1 / 2", "d(x) = x"),
    "call after a term": ("x = 1", "d(x) = 2*x + min\n  (x, 1)"),
    "whole drift in an expression model": ("x = 1\n  y = 2", "d(x) = x\n  d(y) = 1/x"),
    "decimal multiplicity": ("x = 1", "2.0*x -> 0, 1"),
    "spaced multiplicity": ("x = 1", "x + 2 * x -> 0, 1"),
    "zero denominator in a drift": ("x = 1", "d(x) = 1/0*x"),
    "comment inside a reaction": ("x = 1", "x + x // c\n + x -> 0, 1"),
    "broken multiplicity": ("x = 1", "007\n*x + x -> x, 1"),
    "spaced rationals": ("x = - 1 / 2", "x -> 0, - 3 /\t4"),
}


def _model(init, line):
    kind = "reactions" if "->" in line else "ode"
    return (f"begin model\nbegin init\n  {init}\nend init\n"
            f"begin {kind}\n  {line}\nend {kind}\nend model\n")


@pytest.mark.parametrize("init, line", DECLINED.values(), ids=DECLINED.keys())
def test_statement_read_declines(init, line):
    with pytest.raises(_Declined):
        _Parser(_model(init, line), whole=True).parse_model()


@pytest.mark.parametrize("init, line", AGREES.values(), ids=AGREES.keys())
def test_statement_read_agrees(init, line):
    text = _model(init, line)
    assert _Parser(text, whole=True).parse_model() == _Parser(text).parse_model()


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


def _written_texts():
    """Every form serialize_model writes of each golden model without
    expression drifts, and the benchmark shapes."""
    for path in GOLDEN:
        doc = parse_model(path.read_text())
        if getattr(doc.system, "is_polynomial", True):
            for form in ("ode", "rn"):
                yield f"{path.stem}-{form}", serialize_model(doc, form=form)
    yield from [("motif", MOTIF), ("chain", CHAIN), ("sites", SITES)]


VARIANTS = {
    "as written": lambda text: text,
    "comment after every line": lambda text: text.replace("\n", "  // c\n"),
    "blank line between statements": lambda text: text.replace("\n", "\n\n"),
    "drift broken after its =": lambda text: re.sub(r"(d\(\w+\) =) ", "\\1\n    ", text),
    "spaces around every *": lambda text: text.replace("*", " * "),
    "comment and line break before every +": lambda text: text.replace(" + ", " // c\n + "),
    "line break and tab around every *": lambda text: text.replace("*", "\n*\t"),
}


@pytest.mark.parametrize("variant", VARIANTS, ids=VARIANTS)
@pytest.mark.parametrize("name, text", list(_written_texts()),
                         ids=[name for name, _ in _written_texts()])
def test_written_models_are_read_whole(name, text, variant):
    changed = VARIANTS[variant](text)
    assert read_whole(changed) == _Parser(text).parse_model()
