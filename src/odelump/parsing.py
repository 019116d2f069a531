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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .driftexpr import Abs, Bin, Const, DriftExpr, Var, format_expr, to_polynomial
from .encode import Reaction, ReactionNetwork, multiset, rn_to_ode, ode_to_rn
from .errors import (DuplicateVariable, ModelSyntaxError, PartitionCoverageError,
                     UndeclaredVariable)
from .partition import Partition
from .poly import Polynomial
from .system import OdeSystem

_RESERVED = ("begin", "end")

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<arrow>->)
      | (?P<sym>[=(){},+\-*/])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # "number", "ident", "arrow", a symbol character, or "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ModelSyntaxError(line, pos - bol + 1, f"valid token, found {text[pos]!r}")
        kind = m.lastgroup
        chunk = m.group()
        if kind == "ws":
            nl = chunk.count("\n")
            if nl:
                line += nl
                bol = pos + chunk.rindex("\n") + 1
        elif kind != "comment":
            col = pos - bol + 1
            if kind == "sym":
                tokens.append(_Token(chunk, chunk, line, col))
            else:
                tokens.append(_Token(kind, chunk, line, col))
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - bol + 1))
    return tokens


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
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.names: list = []
        self.index: dict = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, expected: str, tok: _Token | None = None):
        tok = tok or self.peek()
        found = tok.text or "end of input"
        raise ModelSyntaxError(tok.line, tok.col, f"{expected}, found {found!r}")

    def accept(self, kind: str) -> Optional[_Token]:
        if self.peek().kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.accept(kind)
        if tok is None:
            self.fail(expected)
        return tok

    def accept_word(self, word: str) -> Optional[_Token]:
        t = self.peek()
        if t.kind == "ident" and t.text == word:
            return self.advance()
        return None

    def expect_word(self, word: str):
        if not self.accept_word(word):
            self.fail(f"'{word}'")

    def at_section_end(self) -> bool:
        return self.peek().kind == "eof" or (
            self.peek().kind == "ident" and self.peek().text == "end")

    # -- atoms ----------------------------------------------------------------

    def parse_ident(self, what: str = "identifier") -> _Token:
        tok = self.expect("ident", what)
        if tok.text in _RESERVED:
            self.fail(what, tok)
        return tok

    def resolve(self, tok: _Token) -> int:
        idx = self.index.get(tok.text)
        if idx is None:
            raise UndeclaredVariable(tok.text, tok.line, tok.col)
        return idx

    def parse_rational(self) -> Fraction:
        neg = self.accept("-") is not None
        tok = self.expect("number", "number")
        value = Fraction(tok.text)
        if self.accept("/"):
            den_tok = self.expect("number", "number")
            den = Fraction(den_tok.text)
            if den == 0:
                self.fail("nonzero denominator", den_tok)
            value /= den
        return -value if neg else value

    # -- sections ------------------------------------------------------------

    def parse_model(self) -> ModelDocument:
        self.expect_word("begin")
        self.expect_word("model")
        self.parse_init()

        self.expect_word("begin")
        shape = self.peek()
        if self.accept_word("ode"):
            system_kind = "ode"
            drift_exprs = self.parse_odes()
        elif self.accept_word("reactions"):
            system_kind = "reactions"
            reactions = self.parse_reactions()
        else:
            self.fail("'ode' or 'reactions'", shape)

        user_blocks = None
        partition_tok = None
        if self.peek().text == "begin" and self.peek(1).text == "partition":
            partition_tok = self.peek()
            user_blocks = self.parse_partition()
        observables = None
        if self.peek().text == "begin" and self.peek(1).text == "observe":
            observables = self.parse_observe()

        self.expect_word("end")
        self.expect_word("model")
        if self.peek().kind != "eof":
            self.fail("end of input")

        if system_kind == "ode":
            drifts = self.finish_drifts(drift_exprs)
            system: Union[OdeSystem, ReactionNetwork] = OdeSystem(
                tuple(self.names), drifts, tuple(self.inits), observables)
        else:
            system = ReactionNetwork(
                tuple(self.names), tuple(reactions), tuple(self.inits), observables)

        user_partition = None
        if user_blocks is not None:
            try:
                user_partition = Partition(user_blocks)
            except ValueError as exc:
                raise PartitionCoverageError(
                    str(exc), partition_tok.line, partition_tok.col) from None
            if user_partition.size != len(self.names):
                raise PartitionCoverageError(
                    "partition must cover every declared variable",
                    partition_tok.line, partition_tok.col)
        return ModelDocument(system, user_partition)

    def parse_init(self):
        self.expect_word("begin")
        self.expect_word("init")
        self.inits: list = []
        while not self.at_section_end():
            name_tok = self.parse_ident("variable declaration")
            if name_tok.text in self.index:
                raise DuplicateVariable(name_tok.text, name_tok.line, name_tok.col)
            self.expect("=", "'='")
            value = self.parse_rational()
            self.index[name_tok.text] = len(self.names)
            self.names.append(name_tok.text)
            self.inits.append(value)
        self.expect_word("end")
        if not self.names:
            self.fail("at least one variable declaration")
        self.expect_word("init")

    def parse_odes(self) -> dict:
        drift_exprs: dict = {}
        while not self.at_section_end():
            d_tok = self.expect("ident", "'d('")
            if d_tok.text != "d":
                self.fail("'d('", d_tok)
            self.expect("(", "'('")
            name_tok = self.expect("ident", "variable name")
            idx = self.resolve(name_tok)
            if idx in drift_exprs:
                self.fail(f"a single drift for variable '{name_tok.text}'", name_tok)
            self.expect(")", "')'")
            self.expect("=", "'='")
            drift_exprs[idx] = self.parse_expr()
        self.expect_word("end")
        self.expect_word("ode")
        return drift_exprs

    def finish_drifts(self, drift_exprs: dict) -> tuple:
        exprs = [drift_exprs.get(i, Const(Fraction(0))) for i in range(len(self.names))]
        polys = [to_polynomial(e) for e in exprs]
        if all(p is not None for p in polys):
            return tuple(polys)
        return tuple(exprs)

    def parse_reactions(self) -> list:
        reactions = []
        while not self.at_section_end():
            reagents = self.parse_mset()
            self.expect("arrow", "'->'")
            products = self.parse_mset()
            self.expect(",", "','")
            rate_tok = self.peek()
            rate = self.parse_rational()
            if rate == 0:
                self.fail("nonzero reaction rate", rate_tok)
            reactions.append(Reaction(reagents, products, rate))
        self.expect_word("end")
        self.expect_word("reactions")
        return reactions

    def parse_mset(self):
        tok = self.peek()
        if tok.kind == "number" and Fraction(tok.text) == 0:
            self.advance()
            return ()
        items = []
        while True:
            mult = 1
            num = self.accept("number")
            if num is not None:
                value = Fraction(num.text)
                if value.denominator != 1 or value <= 0:
                    self.fail("positive integer multiplicity", num)
                mult = int(value)
                self.expect("*", "'*'")
            name_tok = self.expect("ident", "species name")
            items.append((self.resolve(name_tok), mult))
            if not self.accept("+"):
                break
        return multiset(items)

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
        members = [self.resolve(self.expect("ident", "variable name"))]
        while self.accept(","):
            members.append(self.resolve(self.expect("ident", "variable name")))
        self.expect("}", "'}'")
        return members

    def parse_observe(self) -> frozenset:
        self.expect_word("begin")
        self.expect_word("observe")
        indices = [self.resolve(self.expect("ident", "variable name"))]
        while self.accept(","):
            indices.append(self.resolve(self.expect("ident", "variable name")))
        self.expect_word("end")
        self.expect_word("observe")
        return frozenset(indices)

    # -- drift expressions ----------------------------------------------------

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
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Bin("sub", Const(Fraction(0)), self.parse_factor())
        if tok.kind == "number":
            self.advance()
            return Const(Fraction(tok.text))
        if tok.kind == "(":
            self.advance()
            e = self.parse_expr()
            self.expect(")", "')'")
            return e
        if tok.kind == "ident":
            if self.peek(1).kind == "(":
                if tok.text in ("min", "max"):
                    self.advance()
                    self.advance()
                    lhs = self.parse_expr()
                    self.expect(",", "','")
                    rhs = self.parse_expr()
                    self.expect(")", "')'")
                    return Bin(tok.text, lhs, rhs)
                if tok.text == "abs":
                    self.advance()
                    self.advance()
                    arg = self.parse_expr()
                    self.expect(")", "')'")
                    return Abs(arg)
                self.fail("a min, max or abs call", tok)
            self.advance()
            return Var(self.resolve(tok))
        self.fail("a number, variable or '('", tok)


def parse_model(text: str) -> ModelDocument:
    """Parse model text into a document; numbers become exact rationals."""
    return _Parser(_tokenize(text)).parse_model()


def parse_expression(text: str, names) -> DriftExpr:
    """Parse a bare drift expression over the given variable names."""
    parser = _Parser(_tokenize(text))
    parser.names = list(names)
    parser.index = {nm: i for i, nm in enumerate(parser.names)}
    expr = parser.parse_expr()
    if parser.peek().kind != "eof":
        parser.fail("end of input")
    return expr


def parse_polynomial(text: str, names) -> Polynomial:
    """Parse an expression that must lower to a polynomial (for tests, demos)."""
    p = to_polynomial(parse_expression(text, names))
    if p is None:
        raise ValueError(f"not a polynomial: {text!r}")
    return p


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
    polynomial drifts and goes through the per-monomial encoding, so parsing
    the output yields a semantically identical system.
    """
    if not isinstance(m, ModelDocument):
        m = ModelDocument(m)
    if form not in ("ode", "rn"):
        raise ValueError(f"unknown form {form!r}")

    system = m.system
    if form == "ode" and isinstance(system, ReactionNetwork):
        system = rn_to_ode(system)
    elif form == "rn" and isinstance(system, OdeSystem):
        system = ode_to_rn(system)  # raises NonPolynomialDrift on expression drifts

    names = system.names
    out = ["begin model", "begin init"]
    out.extend(f"  {nm} = {str(v)}" for nm, v in zip(names, system.init))
    out.append("end init")

    if isinstance(system, ReactionNetwork):
        out.append("begin reactions")
        for r in system.reactions:
            out.append(f"  {_mset_str(r.reagents, names)} -> "
                       f"{_mset_str(r.products, names)}, {str(r.rate)}")
        out.append("end reactions")
    else:
        out.append("begin ode")
        for nm, drift in zip(names, system.drifts):
            body = drift.format(names) if isinstance(drift, Polynomial) \
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
