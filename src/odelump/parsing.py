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

* One regex sweep splits the text into token strings; each distinct string
  is classified once.  Tokens carry no position: the line and column of an
  error are worked out when it is raised, by sweeping the text again.
* A drift that is a plain sum of products -- terms ``[-] factor {* factor}``
  joined by ``+``/``-``, where a factor is a declared variable or a numeral
  (either may carry unary ``-``) and ``/`` may only divide by a nonzero
  numeral, as in ``4/3*x`` or ``x/2`` -- is read straight into monomials.
* Any other drift (parentheses, ``min``/``max``/``abs``, division by
  anything but a nonzero numeral, or text that is not a valid drift at all)
  is read again from its first token as a drift-expression tree and lowered
  to a polynomial when it can be, so its errors come from the tree parser.
* If some drift stays a tree, the model is an expression model and every
  drift is re-read as a tree, so subtraction and division keep their nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional, Union

from .driftexpr import Abs, Bin, Const, DriftExpr, Var, format_expr, to_polynomial
from .encode import Reaction, ReactionNetwork, multiset, rn_to_ode, ode_to_rn
from .errors import (DuplicateVariable, ModelSyntaxError, PartitionCoverageError,
                     UndeclaredVariable)
from .partition import Partition
from .poly import _ONE, Polynomial, _from_accumulator
from .system import OdeSystem

_RESERVED = ("begin", "end")

_KINDS = (
    ("number", r"\d+(?:\.\d+)?"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("arrow", r"->"),
    ("sym", r"[=(){},+\-*/]"),
)
# Skip whitespace and comments, then take one token; any other character is
# taken alone and rejected by the parser.  At the end of input the token group
# matches nothing.  The skip is possessive: it never gives back what it read,
# so the `//c` of a trailing `x //c` cannot be re-read as `/`, `/`, `c`, and it
# keeps no backtracking state, which makes the sweep faster.
_TOKEN_RE = re.compile(
    r"(?:\s+|//[^\n]*)*+(" + "|".join(p for _, p in _KINDS) + r"|.)?", re.DOTALL)
_KIND_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _KINDS))


def _kind(token: str) -> Optional[str]:
    """"number", "ident", "arrow", the symbol itself, or None if invalid."""
    m = _KIND_RE.fullmatch(token)
    if m is None:
        return None
    return token if m.lastgroup == "sym" else m.lastgroup


def _tokenize(text: str):
    """Parallel lists of token kinds and texts, ending with an "eof" token.

    The kind of an invalid character is None.
    """
    texts = _TOKEN_RE.findall(text)
    while texts and not texts[-1]:
        texts.pop()
    kind_of = {t: _kind(t) for t in set(texts)}
    kinds = list(map(kind_of.__getitem__, texts))
    kinds.append("eof")
    texts.append("")
    return kinds, texts


class _Numerals(dict):
    """One exact Fraction per distinct numeral text."""

    def __missing__(self, text):
        value = self[text] = Fraction(text)
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
    def __init__(self, text: str, names=()):
        self.text = text
        self.kinds, self.texts = _tokenize(text)
        self.i = 0
        self.names: list = list(names)
        self.index: dict = {nm: i for i, nm in enumerate(self.names)}
        self.number = _Numerals().__getitem__
        self.quotients: dict = {}  # (p, q) numeral texts -> p/q
        if None in self.kinds:
            self.fail("valid token", self.kinds.index(None))

    # -- token plumbing ----------------------------------------------------
    # Tokens are addressed by index into the parallel kinds/texts lists; the
    # last token is "eof" and the cursor never moves past it.

    def where(self, at: int):
        """Line and column of token ``at``, found by sweeping the text again."""
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

    def parse_rational(self) -> Fraction:
        neg = self.accept("-")
        num = self.texts[self.expect("number", "number")]
        value = self.number(num)
        if self.accept("/"):
            den_at = self.expect("number", "number")
            key = (num, self.texts[den_at])
            quotient = self.quotients.get(key)
            if quotient is None:
                den = self.number(key[1])
                if den == 0:
                    self.fail("nonzero denominator", den_at)
                quotient = self.quotients[key] = value / den
            value = quotient
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
            drifts, starts = self.parse_odes()
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

        if system_kind == "ode":
            system: Union[OdeSystem, ReactionNetwork] = OdeSystem(
                tuple(self.names), self.finish_drifts(drifts, starts),
                tuple(self.inits), observables)
        else:
            system = ReactionNetwork(
                tuple(self.names), tuple(reactions), tuple(self.inits), observables)

        user_partition = None
        if user_blocks is not None:
            try:
                user_partition = Partition(user_blocks)
            except ValueError as exc:
                raise PartitionCoverageError(
                    str(exc), *self.where(partition_at)) from None
            if user_partition.size != len(self.names):
                raise PartitionCoverageError(
                    "partition must cover every declared variable",
                    *self.where(partition_at))
        return ModelDocument(system, user_partition)

    def parse_init(self):
        self.expect_word("begin")
        self.expect_word("init")
        self.inits: list = []
        while not self.at_section_end():
            name_at = self.parse_ident("variable declaration")
            name = self.texts[name_at]
            if name in self.index:
                raise DuplicateVariable(name, *self.where(name_at))
            self.expect("=", "'='")
            value = self.parse_rational()
            self.index[name] = len(self.names)
            self.names.append(name)
            self.inits.append(value)
        self.expect_word("end")
        if not self.names:
            self.fail("at least one variable declaration")
        self.expect_word("init")

    def parse_odes(self):
        """Drifts by variable index, and the token index each drift starts at."""
        drifts: dict = {}
        starts: dict = {}
        while not self.at_section_end():
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
            starts[idx] = self.i
            drifts[idx] = self.parse_drift()
        self.expect_word("end")
        self.expect_word("ode")
        return drifts, starts

    def finish_drifts(self, drifts: dict, starts: dict) -> tuple:
        n = len(self.names)
        if all(isinstance(d, Polynomial) for d in drifts.values()):
            zero = Polynomial.zero()
            return tuple(drifts.get(i, zero) for i in range(n))
        # an expression model: every drift keeps the tree its text spells
        trees = []
        for i in range(n):
            if i in starts:
                self.i = starts[i]
                trees.append(self.parse_expr())
            else:
                trees.append(Const(Fraction(0)))
        return tuple(trees)

    def parse_reactions(self) -> list:
        reactions = []
        while not self.at_section_end():
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
        if kinds[self.i] == "number" and self.number(texts[self.i]) == 0:
            self.i += 1
            return ()
        items = []
        while True:
            mult = 1
            if kinds[self.i] == "number":
                num_at = self.advance()
                value = self.number(texts[num_at])
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

    # -- drifts -----------------------------------------------------------------

    def parse_drift(self) -> Union[Polynomial, DriftExpr]:
        """One drift: a Polynomial when it lowers to one, else its tree."""
        poly = self.parse_sum_of_products()
        if poly is not None:
            return poly
        expr = self.parse_expr()
        poly = to_polynomial(expr)
        return expr if poly is None else poly

    def parse_sum_of_products(self) -> Optional[Polynomial]:
        """Read a plain sum of products straight into monomials.

        Returns None, with the cursor left where it was, on anything that is
        not one; the caller then reads the same tokens as a tree.
        """
        kinds, texts, index, number = self.kinds, self.texts, self.index, self.number
        i = self.i
        acc: dict = {}
        sign = 1
        while True:
            # one term: factors joined by "*", each "/" dividing by a numeral
            coeff = None
            variables = []
            while True:
                while kinds[i] == "-":
                    sign = -sign
                    i += 1
                kind = kinds[i]
                if kind == "ident":
                    v = index.get(texts[i])
                    if v is None or kinds[i + 1] == "(":
                        return None
                    variables.append(v)
                elif kind == "number":
                    c = number(texts[i])
                    coeff = c if coeff is None else coeff * c
                else:
                    return None
                i += 1
                while kinds[i] == "/":
                    i += 1
                    while kinds[i] == "-":
                        sign = -sign
                        i += 1
                    if kinds[i] != "number":
                        return None
                    c = number(texts[i])
                    if not c:
                        return None
                    coeff = _ONE / c if coeff is None else coeff / c
                    i += 1
                if kinds[i] != "*":
                    break
                i += 1
            if len(variables) == 1:
                exps = ((variables[0], 1),)
            else:
                counts: dict = {}
                for v in sorted(variables):
                    counts[v] = counts.get(v, 0) + 1
                exps = tuple(counts.items())
            if coeff is None:
                coeff = _ONE
            if sign < 0:
                coeff = -coeff
            prev = acc.get(exps)
            acc[exps] = coeff if prev is None else prev + coeff
            kind = kinds[i]
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                break
            i += 1
        self.i = i
        return _from_accumulator(acc)

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
            return Const(self.number(text))
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


def parse_model(text: str) -> ModelDocument:
    """Parse model text into a document; numbers become exact rationals."""
    return _Parser(text).parse_model()


def parse_expression(text: str, names) -> DriftExpr:
    """Parse a bare drift expression over the given variable names."""
    parser = _Parser(text, names)
    expr = parser.parse_expr()
    if parser.kinds[parser.i] != "eof":
        parser.fail("end of input")
    return expr


def parse_polynomial(text: str, names) -> Polynomial:
    """Parse an expression that must lower to a polynomial (for tests, demos)."""
    parser = _Parser(text, names)
    drift = parser.parse_drift()
    if parser.kinds[parser.i] != "eof":
        parser.fail("end of input")
    if not isinstance(drift, Polynomial):
        raise ValueError(f"not a polynomial: {text!r}")
    return drift


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
