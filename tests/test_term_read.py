"""The term read of a sum-of-terms drift and the accumulator it fills.

``parsing._terms`` builds the exponent vector of a constant, one- or
two-factor term itself and adds a term over the accumulator's denominator
straight into it; ``poly._from_accumulator`` brings any accumulator to the
stored form.  These tests count the helper calls the read makes, and hold
both functions to test-local copies of the bodies they had before, which
normalized every product with ``_canon``, called ``_add_term`` for every
term and built the stored form through lists."""

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import odelump.parsing as parsing
from odelump.poly import _add_term, _canon, _from_accumulator, _term_key
from test_statement_read import MOTIF


def _counting(monkeypatch, name):
    calls = []
    real = getattr(parsing, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(parsing, name, counted)
    return calls


def test_motif_read_calls_no_term_helper(monkeypatch):
    expected = parsing.parse_model(MOTIF)
    products = _counting(monkeypatch, "_canon")
    additions = _counting(monkeypatch, "_add_term")
    # integer coefficients, one- and two-factor terms only
    assert parsing.parse_model(MOTIF) == expected
    assert (len(products), len(additions)) == (0, 0)


def test_longer_products_and_other_denominators_take_the_helpers(monkeypatch):
    products = _counting(monkeypatch, "_canon")
    additions = _counting(monkeypatch, "_add_term")
    p = parsing._terms("x*y*x + 1/2*y - 3*x*x + 1/2", {"x": 0, "y": 1},
                       parsing._Numerals().__getitem__)
    assert products == [([(0, 1), (1, 1), (0, 1)],)]
    # 1/2*y grows the denominator to 2, so -3*x*x is over another one; the
    # last 1/2 is over the accumulator's and goes straight in
    assert len(additions) == 2
    assert (p.exps, p.nums, p.den) == ((((0, 2), (1, 1)), ((0, 2),), ((1, 1),), ()),
                                       (2, -6, 1, 1), 2)


# -- the bodies before the change, kept here as the reference ---------------


def _reference_reduced(exps, nums, den):
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
    return tuple(exps), tuple(nums), den


def _reference_from_accumulator(acc, den):
    exps = [e for e, n in acc.items() if n]
    if len(exps) > 1:
        exps.sort(key=_term_key)
    return _reference_reduced(exps, [acc[e] for e in exps], den)


def _reference_terms(body, index, number):
    acc: dict = {}
    den = 1
    for term in "".join(body.split()).replace("-", "+-").split("+"):
        if not term:
            continue
        neg = term[0] == "-"
        factors = (term[1:] if neg else term).split("*")
        num = q = 1
        if factors[0][0].isdigit():
            c = number(factors.pop(0))
            if c is None:
                return None
            num, q = c.numerator, c.denominator
        if neg:
            num = -num
        try:
            if len(factors) == 1:
                exps = ((index[factors[0]], 1),)
            else:
                exps = _canon([(index[f], 1) for f in factors])
        except KeyError:
            raise parsing._Declined from None
        den = _add_term(acc, den, exps, num, q)
    return _reference_from_accumulator(acc, den)


# -- accumulators -------------------------------------------------------------

_EXPS = st.integers(1, 4).flatmap(lambda n: st.dictionaries(
    st.integers(0, n - 1), st.integers(1, 3), max_size=n).map(lambda d: tuple(sorted(d.items()))))


@st.composite
def accumulators(draw):
    """An ``{exps: int}`` accumulator over one to four variables and its
    denominator: zero and negative numerators, all-zero and empty ones, and
    denominators that share a factor with every numerator."""
    keys = draw(st.lists(_EXPS, max_size=8, unique=True))
    kind = draw(st.sampled_from(["any", "zeros", "shared"]))
    if kind == "zeros":
        nums = [0] * len(keys)
    else:
        nums = draw(st.lists(st.integers(-40, 40), min_size=len(keys), max_size=len(keys)))
    den = draw(st.integers(1, 60))
    if kind == "shared":
        f = draw(st.integers(2, 12))
        nums = [n * f for n in nums]
        den *= f
    return dict(zip(keys, nums)), den


@given(accumulators())
def test_from_accumulator_matches_the_list_body(case):
    acc, den = case
    expected = _reference_from_accumulator(dict(acc), den)
    p = _from_accumulator(acc, den)
    assert (p.exps, p.nums, p.den) == expected
    assert type(p.exps) is tuple and type(p.nums) is tuple


@pytest.mark.parametrize("acc, den", [({}, 1), ({}, 6), ({(): 0, ((0, 1),): 0}, 4)])
def test_empty_and_all_zero_accumulators_are_zero(acc, den):
    p = _from_accumulator(acc, den)
    assert (p.exps, p.nums, p.den) == ((), (), 1)


# -- drifts read whole --------------------------------------------------------

_NAMES = ["a", "b", "c", "undeclared"]
_INDEX = {"a": 0, "b": 1, "c": 2}
_COEFF = st.sampled_from(["", "", "2*", "3/4*", "10/4*", "0*", "1/0*", "0.5*", "007*"])
_TERM = st.one_of(
    st.sampled_from(["3", "4/6", "0", "2/0", "0.25"]),
    st.tuples(_COEFF, st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4)
              .map("*".join)).map("".join))


@given(st.lists(st.tuples(st.sampled_from(["+", "-", " + ", " - "]), _TERM),
                min_size=1, max_size=8),
       st.booleans())
def test_terms_match_the_per_term_helper_body(terms, lead):
    body = ("-" if lead else "") + terms[0][1] + "".join(s + t for s, t in terms[1:])
    outcomes = []
    for read in (parsing._terms, _reference_terms):
        try:
            p = read(body, _INDEX, parsing._Numerals().__getitem__)
        except parsing._Declined:
            outcomes.append("declined")
            continue
        outcomes.append(p if p is None or isinstance(p, tuple) else (p.exps, p.nums, p.den))
    assert outcomes[0] == outcomes[1]
