"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a tuple of monomials kept in a canonical order (descending by
total degree, lexicographic within a degree), so two polynomials are equal as
functions on the reals iff their term tuples compare equal.  Coefficients are
`fractions.Fraction`, exponent maps are sparse sorted ``(variable, exponent)``
tuples with every stored exponent positive.  The zero polynomial is the empty
term tuple.

One path reaches that form.  ``_canon`` normalizes raw ``(index, count)``
pairs; the result is also a reaction multiset of :mod:`odelump.encode`.
Terms are merged in an ``{exps: coeff}`` accumulator that ``_from_accumulator``
turns into a polynomial.  :meth:`Polynomial.sum` is that accumulator over
whole polynomials, and addition and :func:`poly_normalize` go through it;
``_sum_renamed`` is that accumulator over renamed polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

RationalLike = Union[Fraction, int, str]
Exps = tuple  # tuple[tuple[int, int], ...], sorted by variable, exponents > 0

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, strings and fractions to Fraction (exact, lowest terms)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing float coefficient; pass a Fraction, int or string")
    return Fraction(value)


class Monomial(NamedTuple):
    coeff: Fraction
    exps: Exps

    def degree(self) -> int:
        return sum(e for _, e in self.exps)


def _canon(pairs) -> Exps:
    """Normal form of ``(index, count)`` pairs, given as a mapping or an
    iterable: sorted by index, like indices merged, zero counts dropped.
    Negative indices or counts raise ValueError."""
    if type(pairs) is not tuple:
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        pairs = tuple((v, e) for v, e in items)
    prev = -1
    for v, e in pairs:
        if e <= 0 or v <= prev:
            break
        prev = v
    else:
        return pairs
    merged: dict = {}
    for v, e in pairs:
        if e < 0 or v < 0:
            raise ValueError(f"negative index or count in ({v}, {e})")
        if e:
            merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def monomial(coeff: RationalLike, exps: Union[Mapping[int, int], Iterable] = ()) -> Monomial:
    """Build a monomial; ``exps`` maps variable index to exponent (a mapping
    or pairs) and is brought to normal form."""
    return Monomial(as_fraction(coeff), _canon(exps))


def _term_key(exps: Exps):
    # Descending graded order: higher total degree first, then lexicographic
    # on the exponent vector (missing variables read as exponent 0).
    return (-sum(e for _, e in exps), tuple((v, -e) for v, e in exps))


@dataclass(frozen=True)
class Polynomial:
    """Normalized polynomial, built by the helpers below, :func:`poly_normalize`
    or a term accumulator (see the module docstring)."""

    terms: tuple = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _POLY_ZERO

    @staticmethod
    def constant(c: RationalLike) -> "Polynomial":
        c = as_fraction(c)
        if c == 0:
            return _POLY_ZERO
        return Polynomial((Monomial(c, ()),))

    @staticmethod
    def variable(index: int) -> "Polynomial":
        if index < 0:
            raise ValueError(f"negative variable index {index}")
        return Polynomial((Monomial(_ONE, ((index, 1),)),))

    @staticmethod
    def sum(polys: Iterable["Polynomial"]) -> "Polynomial":
        """Sum in one accumulator; a lone nonzero summand is returned as is."""
        polys = [p for p in polys if p.terms]
        if len(polys) <= 1:
            return polys[0] if polys else _POLY_ZERO
        acc: dict = {}
        for p in polys:
            for m in p.terms:
                prev = acc.get(m.exps)
                acc[m.exps] = m.coeff if prev is None else prev + m.coeff
        return _from_accumulator(acc)

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return self.terms[0].degree()

    def variables(self) -> frozenset:
        return frozenset(v for m in self.terms for v, _ in m.exps)

    def monomial_count(self) -> int:
        return len(self.terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.sum((self, other))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(Monomial(-m.coeff, m.exps) for m in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.terms or not other.terms:
            return _POLY_ZERO
        acc: dict = {}
        for ma in self.terms:
            for mb in other.terms:
                e = _canon(ma.exps + mb.exps)
                acc[e] = acc.get(e, _ZERO) + ma.coeff * mb.coeff
        return _from_accumulator(acc)

    def scale(self, c: RationalLike) -> "Polynomial":
        c = as_fraction(c)
        if c == 0:
            return _POLY_ZERO
        return Polynomial(tuple(Monomial(m.coeff * c, m.exps) for m in self.terms))

    # -- calculus and evaluation --------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``index``."""
        acc: dict = {}
        for m in self.terms:
            for pos, (v, e) in enumerate(m.exps):
                if v == index:
                    if e == 1:
                        new = m.exps[:pos] + m.exps[pos + 1:]
                    else:
                        new = m.exps[:pos] + ((v, e - 1),) + m.exps[pos + 1:]
                    acc[new] = acc.get(new, _ZERO) + m.coeff * e
                    break
        return _from_accumulator(acc)

    def substitute(self, sigma: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution; variables absent from ``sigma`` stay fixed."""
        products = []
        for m in self.terms:
            product = Polynomial.constant(m.coeff)
            for v, e in m.exps:
                factor = sigma[v] if v in sigma else Polynomial.variable(v)
                for _ in range(e):
                    product = product * factor
            products.append(product)
        return Polynomial.sum(products)

    def rename(self, mapping: Mapping[int, int]) -> "Polynomial":
        """Substitution restricted to a variable-to-variable map (kept exact and fast)."""
        return _sum_renamed((self,), mapping)

    def eval(self, values) -> Fraction:
        """Exact evaluation; ``values`` is a sequence or mapping over variables.

        Also works with floats (the finite-difference tests use that);
        exactness then follows the input type.  The simulator compiles its
        own float evaluators and does not call this.
        """
        lookup = values.__getitem__
        total = None
        for m in self.terms:
            t = m.coeff
            for v, e in m.exps:
                t *= lookup(v) ** e
            total = t if total is None else total + t
        return _ZERO if total is None else total

    # -- presentation --------------------------------------------------------

    def format(self, names: Sequence[str] | None = None) -> str:
        """Render in model-grammar syntax (powers as repeated multiplication)."""
        if not self.terms:
            return "0"
        parts = []
        for m in self.terms:
            factors = []
            for v, e in m.exps:
                name = names[v] if names is not None else f"x{v}"
                factors.extend([name] * e)
            mag = abs(m.coeff)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if m.coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if m.coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.format()


def _from_accumulator(acc: dict) -> Polynomial:
    terms = [Monomial(c, e) for e, c in acc.items() if c != 0]
    terms.sort(key=lambda m: _term_key(m.exps))
    return Polynomial(tuple(terms))


def _sum_renamed(polys: Iterable[Polynomial], mapping: Mapping[int, int]) -> Polynomial:
    """Sum of the polynomials after :meth:`Polynomial.rename`, in one accumulator."""
    acc: dict = {}
    for p in polys:
        for m in p.terms:
            e2 = _canon((mapping.get(v, v), e) for v, e in m.exps)
            prev = acc.get(e2)
            acc[e2] = m.coeff if prev is None else prev + m.coeff
    return _from_accumulator(acc)


_POLY_ZERO = Polynomial(())


# -- module-level operation surface ------------------------------------------


def poly_normalize(terms: Iterable[Monomial]) -> Polynomial:
    """Merge like terms, drop zero coefficients, sort canonically. Idempotent.
    Raw exponent maps are brought to normal form first."""
    return Polynomial.sum(Polynomial((Monomial(m.coeff, _canon(m.exps)),))
                          for m in terms if m.coeff)

