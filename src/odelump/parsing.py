"""Parse and serialize the `.ode` model text format.

Grammar (normative for this package, UTF-8, `//` comments to end of line,
identifiers `[A-Za-z_][A-Za-z0-9_]*`, case-sensitive, whitespace-insensitive):

    model     := "begin model" init (odes | reactions) [partition] [observe] "end model"
    init      := "begin init" { ID "=" RATIONAL } "end init"
    odes      := "begin ode" { "d(" ID ")" "=" expr } "end ode"
    reactions := "begin reactions" { mset "->" mset "," RATIONAL } "end reactions"
    partition := "begin partition" block { "," block } "end partition"
    observe   := "begin observe" ID { "," ID } "end observe"
    block     := "{" ID { "," ID } "}"
    mset      := "0" | term { "+" term }      term := [POSINT "*"] ID
    expr      := arithmetic over NUMBER, ID, + - * / ( ), min(e,e), max(e,e), abs(e)
    RATIONAL  := ["-"] NUMBER ["/" NUMBER]

Numbers are parsed exactly: decimal literals convert to rationals without
rounding (0.25 becomes 1/4).  The `p/q` form exists so that serialization can
round-trip rationals with non-terminating decimal expansions.  `begin` and
`end` are reserved words.  Variables without a `d()` statement get zero
drift; a zero reaction rate is rejected.

How the text is read:

* One reader, ``_Parser``, reads every text.  The statement read deletes
  every comment, then splits the text with one regex sweep.  Where a regex
  can read a whole statement, the statement is one token:
  ``name = [-]p[/q]`` (init); ``d(x) = `` then a sum of terms, each an
  optional ``p`` or ``p/q`` and ``*``-joined variables (ode);
  ``[k*]A + ... -> ..., [-]p[/q]`` (reactions, ``k`` any numeral, ``0`` for
  an empty side).  One blank rule holds inside them: any whitespace may
  fill any gap between two tokens.  A whole statement ends where the token
  parser would end it, so every valid init, reaction and sum-of-terms drift
  is one token.  Every other drift, every keyword and the partition and
  observe sections are read token by token.  Each distinct single-token
  string is classified once.
* The section methods read each run of whole statements in one loop.  A
  whole statement that fails a check (a reserved, duplicate or undeclared
  name, a zero rate or a zero denominator in an init or rate, a
  multiplicity that is not a positive integer, a second drift for one
  variable), a numeral with more digits, its point not counted, than the
  interpreter reads as an int (``sys.get_int_max_str_digits()``), or any
  other error, makes this read decline.  So only a text that raises is read
  again, with plain tokens only; that read alone reports positions, worked
  out by sweeping the text again.
* Once the model is read, the terms of every drift read whole go straight
  into a term accumulator, and every other drift, read as a
  drift-expression tree, is lowered to a polynomial.  A term read whole is
  split once at its first ``*`` into its sign and coefficient or its first
  factor; the exponent vector of a constant, one- or two-factor term is
  built on the spot, and a term over the accumulator's denominator is added
  to it directly.  Only a product of three or more factors goes through
  ``_canon``, the one normalizer of exponent vectors, and only a term over
  another denominator through ``_add_term``.  If some drift does not lower
  (a sum whose term has a zero denominator does not), the model is an
  expression model and every drift keeps a tree, so subtraction and
  division keep their nodes: the terms of each drift read whole are read
  again as a tree, with plain tokens.
* Each input rule of a container is enforced once, by the read itself:
  names are identifiers (``_ID`` is ``system._IDENT``), not reserved and
  unique; initial values are Fractions from ``_Numerals``; every index
  comes from a declared name; sides are canonical through ``multiset()``,
  with positive integer multiplicities; rates are nonzero.  So the system
  or network, and each reaction, is built with ``system._trusted``, as
  the conversions build theirs, which skips the checks of the public
  constructors.  The document still checks the partition's size.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional, Union

from .driftexpr import Abs, Bin, Const, DriftExpr, Var, format_expr, to_polynomial
from .encode import Reaction, ReactionNetwork, _reactions, multiset, rn_to_ode
from .errors import (DuplicateVariable, ModelSyntaxError, PartitionCoverageError,
                     UndeclaredVariable, _NumberTooLong)
from .partition import Partition
from .poly import Polynomial, _add_term, _canon, _digits_past_limit, _format, _from_accumulator
from .system import _IDENT, _RESERVED, OdeSystem, _require, _trusted

# Every quantifier is possessive: a match never gives back what it read, so
# the `//c` of a trailing `x //c` cannot be re-read as `/`, `/`, `c`, a whole
# statement cannot end inside a name or numeral, and no backtracking state is
# kept, which makes the sweep faster.
_NUMBER = r"\d++(?:\.\d++)?+"
_ID = _IDENT.pattern + "+"
_KINDS = (
    ("number", _NUMBER),
    ("ident", _ID),
    ("arrow", r"->"),
    ("sym", r"[=(){},+\-*/]"),
)
_COMMENT = r"//[^\n]*+"
_SKIP = rf"(?:\s++|{_COMMENT})*+"
# Skip whitespace and comments, then take one token; any other character is
# taken alone and rejected by the parser.  At the end of input the token group
# matches nothing.
_SINGLE = "(" + "|".join(p for _, p in _KINDS) + r"|.)?+"
_TOKEN_RE = re.compile(_SKIP + _SINGLE, re.DOTALL)
_KIND_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _KINDS))

_RATIONAL = rf"-?+\s*+{_NUMBER}(?:\s*+/\s*+{_NUMBER})?+"
_TERM = rf"(?:{_NUMBER}(?:\s*+/\s*+{_NUMBER})?+|{_ID})(?:\s*+\*\s*+{_ID})*+"
_ITEM = rf"(?:{_NUMBER}\s*+\*\s*+)?+{_ID}"
_SIDE = rf"0|{_ITEM}(?:\s*+\+\s*+{_ITEM})*+"
# Whole statements before single tokens, over a text whose comments are
# deleted; each ends where the token parser would end it.  Any whitespace may
# fill any gap between two tokens of a statement.  Groups: drift name and
# terms, init name and value, reagents, products and rate, single token.
_STATEMENT_RE = re.compile(
    rf"\s*+(?:d\s*+\(\s*+({_ID})\s*+\)\s*+=\s*+"
    rf"(-?+\s*+{_TERM}(?:\s*+[+-]\s*+{_TERM})*+)(?!\s*+[-+*/(])"
    rf"|({_ID})\s*+=\s*+({_RATIONAL})"
    rf"|({_SIDE})\s*+->\s*+({_SIDE})\s*+,\s*+({_RATIONAL})|" + _SINGLE + ")",
    re.DOTALL)


def _kind(token: str) -> Optional[str]:
    """"number", "ident", "arrow", the symbol itself, or None if invalid."""
    m = _KIND_RE.fullmatch(token)
    if m is None:
        return None
    return token if m.lastgroup == "sym" else m.lastgroup


def _tokenize(text: str, whole: bool = False):
    """Parallel lists of token kinds and texts, ending with an "eof" token.

    The kind of an invalid character is None.  With ``whole``, comments are
    deleted first, and a statement that ``_STATEMENT_RE`` reads is one token,
    of kind "drift", "init" or "reaction", whose text is the tuple of the
    pattern's groups.
    """
    if whole:
        found = _STATEMENT_RE.findall(re.sub(_COMMENT, "", text))
        while found and not any(found[-1]):
            found.pop()
        kind_of = {t: _kind(t) for t in {t[7] for t in found}}
        kinds = ["drift" if t[0] else "init" if t[2] else "reaction" if t[4]
                 else kind_of[t[7]] for t in found]
        texts = [t[7] or t for t in found]
    else:
        texts = _TOKEN_RE.findall(text)
        while texts and not texts[-1]:
            texts.pop()
        kind_of = {t: _kind(t) for t in set(texts)}
        kinds = list(map(kind_of.__getitem__, texts))
    kinds.append("eof")
    texts.append("")
    return kinds, texts


class _Declined(Exception):
    """The statement read declines the text; the plain read decides it."""


class _Numerals(dict):
    """One exact value per distinct text ``[-]p[/q]`` of numerals p and q,
    blanks allowed around ``-`` and ``/``; None when q is zero.  A numeral
    past the interpreter's limit on int text (``poly._digits_past_limit``)
    declines the statement read."""

    def __missing__(self, text):
        num, _, den = "".join(text.split()).partition("/")
        if _digits_past_limit(num) or _digits_past_limit(den):
            raise _Declined
        value = Fraction(num)
        if den:
            den = Fraction(den)
            value = value / den if den else None
        self[text] = value
        return value


@dataclass(frozen=True)
class ModelDocument:
    """A parsed model: the system itself plus optional user partition."""

    system: Union[OdeSystem, ReactionNetwork]
    user_partition: Optional[Partition] = None

    def __post_init__(self):
        if self.user_partition is not None and self.user_partition.size != self.system.n:
            raise PartitionCoverageError(
                f"partition covers {self.user_partition.size} variables, "
                f"system has {self.system.n}")


class _Parser:
    def __init__(self, text: str, names=(), whole: bool = False):
        self.text = text
        self.whole = whole
        self.kinds, self.texts = _tokenize(text, whole)
        self.i = 0
        self.names: list = list(names)
        self.index: dict = {nm: i for i, nm in enumerate(self.names)}
        self.number = _Numerals().__getitem__
        if None in self.kinds:
            self.fail("valid token", self.kinds.index(None))

    # -- token plumbing ----------------------------------------------------
    # Tokens are addressed by index into the parallel kinds/texts lists; the
    # last token is "eof" and the cursor never moves past it.

    def where(self, at: int):
        """Line and column of token ``at``, found by sweeping the text again.
        A statement read has no positions: it declines instead."""
        if self.whole:
            raise _Declined
        m = next(islice(_TOKEN_RE.finditer(self.text), at, None), None)
        pos = len(self.text) if m is None or m.start(1) < 0 else m.start(1)
        return self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)

    def advance(self) -> int:
        at = self.i
        if self.kinds[at] != "eof":
            self.i += 1
        return at

    def fail(self, expected: str, at: Optional[int] = None):
        at = self.i if at is None else at
        found = self.texts[at] or "end of input"
        line, col = self.where(at)
        raise ModelSyntaxError(line, col, f"{expected}, found {found!r}")

    def accept(self, kind: str) -> bool:
        if self.kinds[self.i] == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str, expected: str) -> int:
        at = self.i
        if self.kinds[at] != kind:
            self.fail(expected)
        self.i += 1
        return at

    def at_word(self, word: str, ahead: int = 0) -> bool:
        at = min(self.i + ahead, len(self.texts) - 1)
        return self.kinds[at] == "ident" and self.texts[at] == word

    def expect_word(self, word: str):
        if not self.at_word(word):
            self.fail(f"'{word}'")
        self.i += 1

    def at_section_end(self) -> bool:
        return self.kinds[self.i] == "eof" or self.at_word("end")

    def run(self, kind: str):
        """The group tuples of the whole statements of ``kind`` from the
        cursor on, moving the cursor past each; the token list lets go of
        each tuple, so a statement is held only while it is read."""
        kinds, texts = self.kinds, self.texts
        i = self.i
        while kinds[i] == kind:
            t = texts[i]
            texts[i] = kind
            self.i = i = i + 1
            yield t

    # -- atoms ----------------------------------------------------------------

    def parse_ident(self, what: str = "identifier") -> int:
        at = self.expect("ident", what)
        if self.texts[at] in _RESERVED:
            self.fail(what, at)
        return at

    def resolve(self, at: int) -> int:
        idx = self.index.get(self.texts[at])
        if idx is None:
            raise UndeclaredVariable(self.texts[at], *self.where(at))
        return idx

    def numeral(self, at: int, text: Optional[str] = None) -> Optional[Fraction]:
        """The value of ``text``, by default the number token at ``at``; a
        numeral longer than the interpreter's limit on int text fails at
        ``at``."""
        try:
            return self.number(self.texts[at] if text is None else text)
        except _Declined:
            line, col = self.where(at)
            raise ModelSyntaxError(line, col, f"a numeral of at most "
                                   f"{sys.get_int_max_str_digits()} digits, "
                                   f"found one of {_digits_past_limit(self.texts[at])}") from None

    def parse_rational(self) -> Fraction:
        neg = self.accept("-")
        at = self.expect("number", "number")
        text = self.texts[at]
        if self.accept("/"):
            self.numeral(at)  # a numerator too long fails at its own token
            at = self.expect("number", "number")
            text += "/" + self.texts[at]
        value = self.numeral(at, text)
        if value is None:
            self.fail("nonzero denominator", at)
        return -value if neg else value

    # -- sections ------------------------------------------------------------

    def parse_model(self) -> ModelDocument:
        self.expect_word("begin")
        self.expect_word("model")
        self.parse_init()

        self.expect_word("begin")
        if self.at_word("ode"):
            self.i += 1
            system_kind = "ode"
            drifts = self.parse_odes()
        elif self.at_word("reactions"):
            self.i += 1
            system_kind = "reactions"
            reactions = self.parse_reactions()
        else:
            self.fail("'ode' or 'reactions'")

        user_blocks = None
        partition_at = None
        if self.at_word("begin") and self.at_word("partition", 1):
            partition_at = self.i
            user_blocks = self.parse_partition()
        observables = None
        if self.at_word("begin") and self.at_word("observe", 1):
            observables = self.parse_observe()

        self.expect_word("end")
        self.expect_word("model")
        if self.kinds[self.i] != "eof":
            self.fail("end of input")

        names, inits = tuple(self.names), tuple(self.inits)
        if system_kind == "reactions":
            system = _trusted(ReactionNetwork, names=names, reactions=tuple(reactions),
                              init=inits, observables=observables)
        else:
            spelled = [drifts.get(i) for i in range(len(names))]  # None: no d() statement
            zero = Polynomial.zero()
            lowered = [zero if d is None else _terms(d, self.index, self.number)
                       if isinstance(d, str) else to_polynomial(d) for d in spelled]
            if None in lowered:
                # an expression model: every drift keeps the tree its text
                # spells, so the terms of a drift read whole are read again
                zero = Const(Fraction(0))
                lowered = [zero if d is None else self.tree(d) if isinstance(d, str) else d
                           for d in spelled]
            system = _trusted(OdeSystem, names=names, drifts=tuple(lowered), init=inits,
                              observables=observables)
        # The document checks the partition's size; both its error and the
        # partition's own are placed at the partition section.
        try:
            return ModelDocument(system, None if user_blocks is None else Partition(user_blocks))
        except PartitionCoverageError:
            detail = "partition must cover every declared variable"
        except ValueError as exc:  # blocks that overlap or leave a gap
            detail = str(exc)
        raise PartitionCoverageError(detail, *self.where(partition_at))

    def parse_init(self):
        self.expect_word("begin")
        self.expect_word("init")
        self.inits: list = []
        names, index, inits = self.names, self.index, self.inits
        while not self.at_section_end():
            if self.kinds[self.i] == "init":
                for t in self.run("init"):
                    name, value = t[2], self.number(t[3])
                    if value is None or name in index or name in _RESERVED:
                        raise _Declined
                    index[name] = len(names)
                    names.append(name)
                    inits.append(value)
                continue
            name_at = self.parse_ident("variable declaration")
            name = self.texts[name_at]
            if name in index:
                raise DuplicateVariable(name, *self.where(name_at))
            self.expect("=", "'='")
            value = self.parse_rational()
            index[name] = len(names)
            names.append(name)
            inits.append(value)
        self.expect_word("end")
        if not names:
            self.fail("at least one variable declaration")
        self.expect_word("init")

    def parse_odes(self) -> dict:
        """The drifts by variable index: the terms text of a statement read
        whole, the tree of any other."""
        drifts: dict = {}
        while not self.at_section_end():
            if self.kinds[self.i] == "drift":
                for t in self.run("drift"):
                    v = self.index.get(t[0])
                    if v is None or v in drifts:
                        raise _Declined
                    drifts[v] = t[1]
                continue
            d_at = self.expect("ident", "'d('")
            if self.texts[d_at] != "d":
                self.fail("'d('", d_at)
            self.expect("(", "'('")
            name_at = self.expect("ident", "variable name")
            idx = self.resolve(name_at)
            if idx in drifts:
                self.fail(f"a single drift for variable '{self.texts[name_at]}'", name_at)
            self.expect(")", "')'")
            self.expect("=", "'='")
            drifts[idx] = self.parse_expr()
        self.expect_word("end")
        self.expect_word("ode")
        return drifts

    def parse_reactions(self) -> list:
        reactions = []
        sides: dict = {}
        index, number = self.index, self.number
        while not self.at_section_end():
            if self.kinds[self.i] == "reaction":
                for t in self.run("reaction"):
                    rate = number(t[6])
                    if not rate:  # a zero rate, or a zero denominator
                        raise _Declined
                    # a side's text recurs, so its multiset is looked up first
                    reagents = sides.get(t[4]) or _side(t[4], index, number, sides)
                    products = sides.get(t[5]) or _side(t[5], index, number, sides)
                    reactions.append(_trusted(Reaction, reagents=reagents, products=products,
                                              rate=rate))
                continue
            reagents = self.parse_mset()
            self.expect("arrow", "'->'")
            products = self.parse_mset()
            self.expect(",", "','")
            rate_at = self.i
            rate = self.parse_rational()
            if rate == 0:
                self.fail("nonzero reaction rate", rate_at)
            reactions.append(Reaction(reagents, products, rate))
        self.expect_word("end")
        self.expect_word("reactions")
        return reactions

    def parse_mset(self):
        kinds, texts = self.kinds, self.texts
        if kinds[self.i] == "number" and self.numeral(self.i) == 0:
            self.i += 1
            return ()
        items = []
        while True:
            mult = 1
            if kinds[self.i] == "number":
                num_at = self.advance()
                value = self.numeral(num_at)
                if value.denominator != 1 or value <= 0:
                    self.fail("positive integer multiplicity", num_at)
                mult = int(value)
                self.expect("*", "'*'")
            items.append((self.resolve(self.expect("ident", "species name")), mult))
            if kinds[self.i] != "+":
                break
            self.i += 1
        return (items[0],) if len(items) == 1 else multiset(items)

    def parse_partition(self) -> list:
        self.expect_word("begin")
        self.expect_word("partition")
        blocks = [self.parse_block()]
        while self.accept(","):
            blocks.append(self.parse_block())
        self.expect_word("end")
        self.expect_word("partition")
        return blocks

    def parse_block(self) -> list:
        self.expect("{", "'{'")
        members = self.parse_names()
        self.expect("}", "'}'")
        return members

    def parse_observe(self) -> frozenset:
        self.expect_word("begin")
        self.expect_word("observe")
        indices = self.parse_names()
        self.expect_word("end")
        self.expect_word("observe")
        return frozenset(indices)

    def parse_names(self) -> list:
        """The variable indices of an ``ID {, ID}`` list."""
        indices = [self.resolve(self.expect("ident", "variable name"))]
        while self.accept(","):
            indices.append(self.resolve(self.expect("ident", "variable name")))
        return indices

    # -- drifts -----------------------------------------------------------------

    def tree(self, body: str) -> DriftExpr:
        """The tree of the terms of a drift read whole, read with plain
        tokens over this parser's names, after the model is read."""
        self.kinds, self.texts = _tokenize(body)
        self.i = 0
        return self.parse_expr()

    def parse_expr(self) -> DriftExpr:
        e = self.parse_term()
        while True:
            if self.accept("+"):
                e = Bin("add", e, self.parse_term())
            elif self.accept("-"):
                e = Bin("sub", e, self.parse_term())
            else:
                return e

    def parse_term(self) -> DriftExpr:
        e = self.parse_factor()
        while True:
            if self.accept("*"):
                e = Bin("mul", e, self.parse_factor())
            elif self.accept("/"):
                e = Bin("div", e, self.parse_factor())
            else:
                return e

    def parse_factor(self) -> DriftExpr:
        at = self.i
        kind, text = self.kinds[at], self.texts[at]
        if kind == "-":
            self.advance()
            return Bin("sub", Const(Fraction(0)), self.parse_factor())
        if kind == "number":
            self.advance()
            return Const(self.numeral(at))
        if kind == "(":
            self.advance()
            e = self.parse_expr()
            self.expect(")", "')'")
            return e
        if kind == "ident":
            if self.kinds[at + 1] == "(":
                if text in ("min", "max"):
                    self.i += 2
                    lhs = self.parse_expr()
                    self.expect(",", "','")
                    rhs = self.parse_expr()
                    self.expect(")", "')'")
                    return Bin(text, lhs, rhs)
                if text == "abs":
                    self.i += 2
                    arg = self.parse_expr()
                    self.expect(")", "')'")
                    return Abs(arg)
                self.fail("a min, max or abs call", at)
            self.advance()
            return Var(self.resolve(at))
        self.fail("a number, variable or '('", at)


# -- statements read whole -----------------------------------------------------


def _terms(body: str, index: dict, number) -> Optional[Polynomial]:
    """The polynomial of the terms of a drift read whole; None if a
    coefficient has a zero denominator, so that the drift does not lower."""
    acc: dict = {}
    get = acc.get
    den = 1
    # the terms, each negative one led by "-"; a leading "-" leaves an empty
    # text first
    for term in "".join(body.split()).replace("-", "+-").split("+"):
        if not term:
            continue
        head, _, rest = term.partition("*")
        neg = head[0] == "-"
        if head[neg].isdigit():  # a coefficient, its sign included
            c = number(head)
            if c is None:
                return None
            num, q = c.numerator, c.denominator
            head, _, rest = rest.partition("*")
        elif neg:
            head = head[1:]
            num, q = -1, 1
        else:
            num = q = 1
        try:
            if not rest:
                exps = ((index[head], 1),) if head else ()
            elif "*" not in rest:
                a = index[head]
                b = index[rest]
                if a < b:
                    exps = ((a, 1), (b, 1))
                elif b < a:
                    exps = ((b, 1), (a, 1))
                else:
                    exps = ((a, 2),)
            else:
                exps = _canon([(index[f], 1) for f in (head, *rest.split("*"))])
        except KeyError:  # a name that was not declared
            raise _Declined from None
        if q == den:
            prev = get(exps)
            acc[exps] = num if prev is None else prev + num
        else:
            den = _add_term(acc, den, exps, num, q)
    return _from_accumulator(acc, den)


def _side(text: str, index: dict, number, sides: dict):
    """The multiset of a reaction side read whole, stored in ``sides`` by
    its text, where the caller looks it up first."""
    items = []
    if text != "0":
        for item in text.split("+"):
            mult, _, name = item.rpartition("*")
            v = index.get(name.strip())
            k = number(mult.strip()) if mult else 1
            if v is None or k <= 0 or k.denominator != 1:
                raise _Declined  # undeclared, or not a positive integer
            items.append((v, int(k)))
    ms = sides[text] = multiset(items)
    return ms


def parse_model(text: str) -> ModelDocument:
    """Parse model text into a document; numbers become exact rationals."""
    try:
        return _Parser(text, whole=True).parse_model()
    except _Declined:
        return _Parser(text).parse_model()


def parse_expression(text: str, names) -> DriftExpr:
    """Parse a bare drift expression over the given variable names."""
    parser = _Parser(text, names)
    expr = parser.parse_expr()
    if parser.kinds[parser.i] != "eof":
        parser.fail("end of input")
    return expr


# -- serialization -------------------------------------------------------------


def _mset_str(ms, names) -> str:
    if not ms:
        return "0"
    parts = []
    for s, k in ms:
        parts.append(names[s] if k == 1 else f"{k}*{names[s]}")
    return " + ".join(parts)


def serialize_model(m, form: str = "ode") -> str:
    """Render a document (or bare system) back to model text.

    ``form`` chooses the drift section: "ode" or "rn".  Reaction form requires
    polynomial drifts; a system's reactions are written straight from
    ``encode._reactions``, the per-monomial encoding of ``ode_to_rn``, with
    no network built, so parsing the output yields a semantically identical
    system.  Each distinct number object (an initial value or a rate) is
    turned into text once; an integer with more digits than the interpreter
    writes raises ``_NumberTooLong``, before any text is returned.
    """
    if not isinstance(m, ModelDocument):
        m = ModelDocument(m)
    if form not in ("ode", "rn"):
        raise ValueError(f"unknown form {form!r}")

    system = m.system
    if isinstance(system, ReactionNetwork):
        if form == "ode":
            system = rn_to_ode(system)
        else:
            reactions = ((r.reagents, r.products, r.rate) for r in system.reactions)
    elif form == "rn":
        _require(system, polynomial="reaction form requires polynomial drifts")
        reactions = _reactions(system)

    # The text of each number by its id: the system, or the generator of
    # its reactions, holds every number until the text is built.
    texts: dict = {}

    def number(value: Fraction) -> str:
        try:
            text = texts[id(value)] = str(value)
        except ValueError:  # the interpreter's limit on int text
            raise _NumberTooLong from None
        return text

    names = system.names
    out = ["begin model", "begin init"]
    out.extend(f"  {nm} = {texts.get(id(v)) or number(v)}"
               for nm, v in zip(names, system.init))
    out.append("end init")

    if form == "rn":
        out.append("begin reactions")
        for reagents, products, rate in reactions:
            out.append(f"  {_mset_str(reagents, names)} -> {_mset_str(products, names)}, "
                       f"{texts.get(id(rate)) or number(rate)}")
        out.append("end reactions")
    else:
        out.append("begin ode")
        products: dict = {}  # a product's factor text, shared by every drift
        for nm, drift in zip(names, system.drifts):
            body = _format(drift, names, products) if isinstance(drift, Polynomial) \
                else format_expr(drift, names)
            out.append(f"  d({nm}) = {body}")
        out.append("end ode")

    if m.user_partition is not None:
        out.append("begin partition")
        out.append("  " + m.user_partition.format(names))
        out.append("end partition")
    if system.observables:
        out.append("begin observe")
        out.append("  " + ", ".join(names[i] for i in sorted(system.observables)))
        out.append("end observe")
    out.append("end model")
    return "\n".join(out) + "\n"
