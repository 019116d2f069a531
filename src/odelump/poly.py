"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored as integer numerators over one common denominator,
the way FLINT's ``fmpq_poly`` stores its coefficients:

* ``exps``, the exponent vectors of its terms in canonical order
  (descending by total degree, lexicographic within a degree).  An exponent
  vector is a sorted ``(variable, exponent)`` tuple with every stored
  exponent positive.
* ``nums``, one nonzero int numerator per term.
* ``den``, one positive int, with gcd(den, *nums) == 1.

That form is unique, so two polynomials are equal as functions on the reals
iff the three fields compare equal.  The zero polynomial has no terms and
denominator 1.  Sums, products, relabellings, partials and scaling run on
Python ints with one ``gcd`` per result, and none when the denominator is 1.
``terms`` is a read-only view of the same polynomial as ``Monomial(Fraction,
exps)`` tuples, for callers that want rationals; no hot path reads it.

One path reaches the stored form: ``_from_accumulator`` or ``_reduced``,
then ``_poly``.  ``_canon`` is the one normalizer of raw ``(index, count)``
pairs; the result is also a reaction multiset of :mod:`odelump.encode`.
Terms are merged in an ``{exps: numerator}`` accumulator over a known
denominator, which ``_from_accumulator`` sorts and brings to lowest terms:
the keys are sorted once into the stored tuple, zeros are filtered only
when there are any, and the gcd is taken only over a denominator other
than 1.  That gcd step is ``_reduced``'s, kept inline because one more call
per result is measurably slower.  :meth:`Polynomial.sum` is that
accumulator over whole polynomials, and addition goes through it; the
public constructor is that accumulator over monomials; ``_sum_renamed`` is
that accumulator over relabelled polynomials, its entries scaled by the
block sizes when it is given them.  One loop, ``_mul_terms``, multiplies
two term sums into an accumulator, for :meth:`Polynomial.__mul__` and for
the products in a drift tree.  ``to_polynomial``, for the sums in a tree,
adds its terms one at a time with ``_add_term``.  The parser, for drifts it
reads whole, adds a term over the accumulator's denominator directly, and
calls ``_add_term`` only for a term over another one.  ``rn_to_ode`` needs
no accumulator: it sorts the distinct reagent multisets once and hands
each drift its terms already in canonical order, so it reaches the stored
form through ``_reduced`` alone.

One fold relabels exponent vectors: ``_fold_renamed`` adds a polynomial's
terms to an accumulator with every variable renamed by a label table.  It
relabels one- and two-variable vectors directly and longer ones through
``_canon``.  Every label is a block ordinal or a block representative, so
none is negative and the fold checks none.  ``_sum_renamed`` (block sums
and the bde witness) and the bde signatures of :mod:`odelump.lump` both
call it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import _NumberTooLong

RationalLike = Union[Fraction, int, str]
Exps = tuple  # tuple[tuple[int, int], ...], sorted by variable, exponents > 0


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, strings and fractions to Fraction (exact, lowest terms)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing float coefficient; pass a Fraction, int or string")
    return Fraction(value)


def _digits_past_limit(numeral: str) -> int:
    """The digits of ``numeral``, a ``[-]d+[.d+]`` text, the point not
    counted, when there are more than the interpreter reads as one int,
    ``sys.get_int_max_str_digits()`` (0: no limit); else 0.  The value of a
    numeral within the limit is p/10**k with p of at most that many digits
    and k below it, so its ``p/q`` text can be written back."""
    digits = len(numeral) - ("." in numeral) - numeral.startswith("-")
    limit = sys.get_int_max_str_digits()
    return digits if limit and digits > limit else 0


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
        items = getattr(pairs, "items", None)  # a mapping
        pairs = tuple(map(tuple, pairs if items is None else items()))
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


def _term_key(exps: Exps) -> tuple:
    """Sort key of the canonical term order: higher total degree first, then
    lexicographic on the exponent vector, missing variables read as exponent
    0.  Flattened as (-degree, v1, -e1, v2, -e2, ...); within one degree no
    vector is a prefix of another, so this orders like the pairs would.
    One- and two-variable vectors, most terms of a model, are keyed directly."""
    k = len(exps)
    if k == 1:
        (v, e), = exps
        return -e, v, -e
    if k == 2:
        (v, e), (w, f) = exps
        return -e - f, v, -e, w, -f
    key = [0]
    for v, e in exps:
        key[0] -= e
        key.append(v)
        key.append(-e)
    return tuple(key)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Polynomial:
    """Normalized polynomial (see the module docstring for the stored form).

    ``Polynomial(terms)`` normalizes any iterable of monomials: it brings raw
    exponent maps to normal form, merges like terms, drops zero coefficients
    and sorts canonically, so it is idempotent.  The operations below build
    their results in the stored form directly."""

    exps: tuple
    nums: tuple
    den: int

    def __init__(self, terms: Iterable[Monomial] = ()):
        pairs = [(as_fraction(m.coeff), _canon(m.exps)) for m in terms if m.coeff]
        den = lcm(*[c.denominator for c, _ in pairs])
        acc: dict = {}
        for c, e in pairs:
            acc[e] = acc.get(e, 0) + c.numerator * (den // c.denominator)
        p = _from_accumulator(acc, den)
        _setattr(self, "exps", p.exps)
        _setattr(self, "nums", p.nums)
        _setattr(self, "den", p.den)

    def __repr__(self) -> str:
        return f"Polynomial(terms={self.terms!r})"

    @property
    def terms(self) -> tuple:
        """The terms as ``Monomial(Fraction, exps)``, in canonical order."""
        den = self.den
        return tuple(Monomial(Fraction(n, den), e) for e, n in zip(self.exps, self.nums))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _POLY_ZERO

    @staticmethod
    def constant(c: RationalLike) -> "Polynomial":
        c = as_fraction(c)
        if c == 0:
            return _POLY_ZERO
        return _poly(((),), (c.numerator,), c.denominator)

    @staticmethod
    def variable(index: int) -> "Polynomial":
        if index < 0:
            raise ValueError(f"negative variable index {index}")
        return _poly((((index, 1),),), (1,), 1)

    @staticmethod
    def sum(polys: Iterable["Polynomial"]) -> "Polynomial":
        """Sum in one accumulator; a lone nonzero summand is returned as is."""
        polys = [p for p in polys if p.nums]
        if len(polys) <= 1:
            return polys[0] if polys else _POLY_ZERO
        den = lcm(*[p.den for p in polys])
        acc: dict = {}
        get = acc.get
        for p in polys:
            f = den // p.den
            for e, n in zip(p.exps, p.nums if f == 1 else [n * f for n in p.nums]):
                prev = get(e)
                acc[e] = n if prev is None else prev + n
        return _from_accumulator(acc, den)

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.nums)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.nums:
            return -1
        return sum(e for _, e in self.exps[0])

    def variables(self) -> frozenset:
        return frozenset(v for exps in self.exps for v, _ in exps)

    def monomial_count(self) -> int:
        return len(self.nums)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.sum((self, other))

    def __neg__(self) -> "Polynomial":
        return _poly(self.exps, tuple([-n for n in self.nums]), self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.nums or not other.nums:
            return _POLY_ZERO
        return _from_accumulator(_mul_terms(zip(self.exps, self.nums),
                                            tuple(zip(other.exps, other.nums))),
                                 self.den * other.den)

    def scale(self, c: RationalLike) -> "Polynomial":
        c = as_fraction(c)
        if c == 0:
            return _POLY_ZERO
        p = c.numerator
        return _reduced(self.exps, [n * p for n in self.nums], self.den * c.denominator)

    # -- calculus and evaluation --------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``index``."""
        acc: dict = {}
        for exps, n in zip(self.exps, self.nums):
            for pos, (v, e) in enumerate(exps):
                if v == index:
                    if e == 1:
                        new = exps[:pos] + exps[pos + 1:]
                    else:
                        new = exps[:pos] + ((v, e - 1),) + exps[pos + 1:]
                    acc[new] = acc.get(new, 0) + n * e
                    break
        return _from_accumulator(acc, self.den)

    def substitute(self, sigma: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution; variables absent from ``sigma`` stay fixed."""
        products = []
        for exps, n in zip(self.exps, self.nums):
            product = _poly(((),), (n,), 1)
            for v, e in exps:
                factor = sigma[v] if v in sigma else Polynomial.variable(v)
                for _ in range(e):
                    product = product * factor
            products.append(product)
        total = Polynomial.sum(products)
        return total if self.den == 1 else total.scale(Fraction(1, self.den))

    def eval(self, values) -> Fraction:
        """Exact evaluation; ``values`` is a sequence or mapping over variables.

        Also works with floats (the finite-difference tests use that);
        exactness then follows the input type.  The simulator compiles its
        own float evaluators and does not call this.
        """
        lookup = values.__getitem__
        total = 0
        for exps, n in zip(self.exps, self.nums):
            for v, e in exps:
                n *= lookup(v) ** e
            total += n
        return total / Fraction(self.den)

    # -- presentation --------------------------------------------------------

    def format(self, names: Sequence[str] | None = None) -> str:
        """Render in model-grammar syntax (powers as repeated multiplication);
        without ``names``, variable v is written ``x<v>``."""
        if names is None:
            top = max([exps[-1][0] for exps in self.exps if exps], default=-1)
            names = [f"x{v}" for v in range(top + 1)]
        return _format(self, names, {})

    def __str__(self) -> str:
        return self.format()


_setattr = object.__setattr__
_new = object.__new__


def _poly(exps: tuple, nums: tuple, den: int) -> Polynomial:
    """A polynomial from fields already in the stored form."""
    p = _new(Polynomial)
    _setattr(p, "exps", exps)
    _setattr(p, "nums", nums)
    _setattr(p, "den", den)
    return p


def _reduced(exps, nums, den: int) -> Polynomial:
    """The polynomial with terms ``exps`` in canonical order and nonzero
    numerators ``nums`` over the positive ``den``, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
    return _poly(tuple(exps), tuple(nums), den)


def _from_accumulator(acc: dict, den: int) -> Polynomial:
    """The polynomial sum of n * x^exps / den over the ``{exps: n}`` items of
    ``acc``, whose numerators are ints and may be zero."""
    if 0 in acc.values():
        acc = {e: n for e, n in acc.items() if n}
    exps = tuple(sorted(acc, key=_term_key)) if len(acc) > 1 else tuple(acc)
    nums = tuple(map(acc.__getitem__, exps))
    # _reduced's gcd step, kept inline: one more call per result is slower
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple([n // g for n in nums])
    return _poly(exps, nums, den)


def _format(p: Polynomial, names, products: dict) -> str:
    """The text of ``Polynomial.format(names)``.  A term of one variable with
    exponent 1 is its name; the ``a*b*c`` text of any other nonconstant
    exponent vector is kept in ``products``, which a caller formatting many
    polynomials over the same names shares, so each is joined once.  A
    coefficient with more digits than the interpreter writes raises
    ``_NumberTooLong``."""
    if not p.nums:
        return "0"
    den = p.den
    parts = []
    try:
        for exps, n in zip(p.exps, p.nums):
            if len(exps) == 1 and exps[0][1] == 1:
                body = names[exps[0][0]]
            elif exps:
                body = products.get(exps)
                if body is None:
                    body = products[exps] = "*".join([names[v] for v, e in exps
                                                      for _ in range(e)])
            else:
                body = ""
            mag = -n if n < 0 else n
            if mag != den or not body:
                if den == 1:
                    coeff = str(mag)
                else:
                    g = gcd(mag, den)
                    coeff = str(mag // g) if g == den else f"{mag // g}/{den // g}"
                body = f"{coeff}*{body}" if body else coeff
            if parts:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
            else:
                parts.append(body if n > 0 else f"-{body}")
    except ValueError:  # the interpreter's limit on int text
        raise _NumberTooLong from None
    return " ".join(parts)


def _mul_terms(a, b) -> dict:
    """The ``{exps: numerator}`` accumulator of the product of two term
    sums, each given as ``(exps, numerator)`` pairs; ``b`` is read once per
    pair of ``a``.  The one product loop: :meth:`Polynomial.__mul__` and the
    lowering of a drift tree's products both call it."""
    acc: dict = {}
    for ea, na in a:
        for eb, nb in b:
            e = _canon(ea + eb)
            acc[e] = acc.get(e, 0) + na * nb
    return acc


def _add_term(acc: dict, den: int, exps: Exps, num: int, q: int) -> int:
    """Add the term num/q * x^exps to ``acc``, an ``{exps: numerator}``
    accumulator over ``den``; q and ``den`` are nonzero, of either sign.
    Returns the accumulator's denominator, grown to a multiple of q when it
    was not one."""
    if q != den:
        if den % q:
            grow = lcm(den, q) // den
            den *= grow
            for e in acc:
                acc[e] *= grow
        num *= den // q
    prev = acc.get(exps)
    acc[exps] = num if prev is None else prev + num
    return den


def _fold_renamed(acc: dict, exps_seq, nums, labels) -> None:
    """Add each term n * x^exps of ``zip(exps_seq, nums)``, with every
    variable v renamed to ``labels[v]``, to the ``{exps: numerator}``
    accumulator ``acc``.  Renamed variables that coincide merge their
    exponents.  One- and two-variable vectors are relabelled directly,
    longer ones go through ``_canon``.  Labels are not checked: every
    caller passes block ordinals or representatives, all nonnegative."""
    for exps, n in zip(exps_seq, nums):
        k = len(exps)
        if k == 1:
            (v, e), = exps
            key = ((labels[v], e),)
        elif k == 2:
            (v, e), (w, f) = exps
            a = labels[v]
            b = labels[w]
            if a < b:
                key = ((a, e), (b, f))
            elif b < a:
                key = ((b, f), (a, e))
            else:
                key = ((a, e + f),)
        elif k:
            key = _canon(tuple([(labels[v], e) for v, e in exps]))
        else:
            key = ()
        prev = acc.get(key)
        acc[key] = n if prev is None else prev + n


def _sum_renamed(polys: Iterable[Polynomial], labels,
                 sizes: Sequence[int] | None = None) -> Polynomial:
    """Sum of the polynomials with every variable v renamed to ``labels[v]``,
    a sequence, in one accumulator.  With ``sizes``, every variable w of
    that sum is then replaced by w / sizes[w]: the accumulator's entries are
    scaled to divide each term by prod(sizes[w] ** e) over one common
    denominator, and ``_from_accumulator`` sorts and reduces them."""
    polys = [p for p in polys if p.nums]
    den = lcm(*[p.den for p in polys])
    acc: dict = {}
    for p in polys:
        f = den // p.den
        _fold_renamed(acc, p.exps, p.nums if f == 1 else [n * f for n in p.nums], labels)
    if sizes is not None:
        divisors = [(exps, prod([sizes[w] ** e for w, e in exps]))
                    for exps, n in acc.items() if n]
        scale = lcm(*[d for _, d in divisors])
        acc = {exps: acc[exps] * (scale // d) for exps, d in divisors}
        den *= scale
    return _from_accumulator(acc, den)


_POLY_ZERO = _poly((), (), 1)
