import copy
import pickle
import random
from fractions import Fraction
from math import prod
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odelump import Monomial, Polynomial, monomial, multiset
from odelump.poly import _canon, _sum_renamed, _term_key
from conftest import polynomial_of

NAMES = ("x1", "x2", "x3")


def P(text):
    return polynomial_of(text, NAMES)


# -- normalization -------------------------------------------------------------


def test_normalize_merges_like_terms():
    terms = [monomial(2, {0: 1}), monomial(3, {0: 1})]
    assert Polynomial(terms) == P("5*x1")


def test_normalize_cancels_to_zero():
    terms = [monomial(1, {0: 1, 1: 1}), monomial(-1, {1: 1, 0: 1})]
    assert Polynomial(terms) == Polynomial.zero()
    assert not Polynomial(terms)


def test_normalize_block_sum_drifts():
    # sum of the two driven drifts with unit rates
    terms = list(P("x1 - x2").terms) + list(P("x1 - x3").terms)
    assert Polynomial(terms) == P("2*x1 - x2 - x3")


def test_normalize_repairs_raw_exponent_maps():
    raw = Monomial(Fraction(2), ((1, 1), (0, 1), (2, 0)))
    assert Polynomial([raw]) == P("2*x1*x2")


def _list_term_key(exps):
    """Reference for ``_term_key``: the canonical order's key built as the
    list [-degree, v1, -e1, v2, -e2, ...]."""
    key = [0]
    for v, e in exps:
        key[0] -= e
        key.append(v)
        key.append(-e)
    return key


# Exponent vectors in normal form: the constant (), exponents up to 4 and up
# to five variables, so the one-, two- and longer-vector keys meet.
_exps_st = st.dictionaries(st.integers(0, 6), st.integers(1, 4), max_size=5).map(
    lambda d: tuple(sorted(d.items())))


@given(st.lists(_exps_st, max_size=12))
@example([(), ((0, 1),), ((0, 2),), ((0, 1), (1, 1)), ((1, 2),), ((0, 1), (1, 1), (2, 1)),
          ((0, 3),), ((0, 1), (2, 2)), ((1, 1), (2, 1), (3, 1))])
def test_term_key_orders_like_the_list_key(vectors):
    for a in vectors:
        for b in vectors:
            assert (_term_key(a) < _term_key(b)) == (_list_term_key(a) < _list_term_key(b)), (a, b)
            assert (_term_key(a) == _term_key(b)) == (a == b), (a, b)


def test_term_key_sorts_random_vectors_like_the_list_key():
    rng = random.Random(26)
    vectors = list({tuple(sorted({rng.randrange(8): rng.randint(1, 4)
                                  for _ in range(rng.randint(0, 5))}.items()))
                    for _ in range(3000)})
    rng.shuffle(vectors)
    assert sorted(vectors, key=_term_key) == sorted(vectors, key=_list_term_key)


def test_term_order_is_graded():
    p = P("1 + x2 + x1*x1")
    degrees = [m.degree() for m in p.terms]
    assert degrees == sorted(degrees, reverse=True)
    assert p.terms[0].exps == ((0, 2),)
    assert p.terms[-1].exps == ()


monomials_st = st.lists(
    st.tuples(
        st.integers(min_value=-6, max_value=6),
        st.dictionaries(st.integers(min_value=0, max_value=3),
                        st.integers(min_value=0, max_value=3), max_size=3),
    ),
    max_size=6,
).map(lambda items: [monomial(c, e) for c, e in items])


@given(monomials_st)
def test_normalize_idempotent(terms):
    once = Polynomial(terms)
    assert Polynomial(once.terms) == once


# -- ring operations --------------------------------------------------------------


def test_add_zero_identity():
    p = P("x1*x2 - 3")
    assert p + Polynomial.zero() == p


def test_add_spec_example():
    assert P("2*x1 - x2") + P("3*x1 - x3") == P("5*x1 - x2 - x3")


def test_add_cancellation():
    p = P("x1*x2 - 3*x3")
    assert not p + p.scale(-1)


def _random_poly(rng, n=4, degree=3, terms=4):
    out = []
    for _ in range(rng.randint(0, terms)):
        exps = {}
        for _ in range(rng.randint(0, degree)):
            v = rng.randrange(n)
            exps[v] = exps.get(v, 0) + 1
        out.append(monomial(rng.randint(-5, 5), exps))
    return Polynomial(out)


def test_sum_matches_repeated_addition():
    rng = random.Random(12)
    for _ in range(50):
        polys = [_random_poly(rng) for _ in range(rng.randint(0, 6))]
        total = Polynomial.zero()
        for p in polys:
            total = total + p
        assert Polynomial.sum(polys) == total
    lone = P("x1 - x2")
    assert Polynomial.sum([lone]) is lone
    assert not Polynomial.sum([lone, lone.scale(-1)])


def test_ring_laws_random():
    rng = random.Random(42)
    for _ in range(200):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r


@given(monomials_st, monomials_st)
@settings(max_examples=50)
def test_add_commutes(aterms, bterms):
    p, q = Polynomial(aterms), Polynomial(bterms)
    assert p + q == q + p


# -- substitution -------------------------------------------------------------------


def test_substitute_backward_rewrite():
    # replace x3 by x2 in the second driven drift with unit rate
    assert P("x1 - x3").substitute({2: Polynomial.variable(1)}) == P("x1 - x2")


def test_substitute_identity():
    p = P("x1*x1 - x2*x3 + 1/2")
    assert p.substitute({}) == p


def test_substitute_uniform_redistribution():
    half_y = Polynomial.variable(0).scale(Fraction(1, 2))
    assert P("x2 + x3").substitute({1: half_y, 2: half_y}) == Polynomial.variable(0)


def test_substitute_eval_coherence():
    rng = random.Random(7)
    for _ in range(100):
        p = _random_poly(rng)
        sigma = {i: _random_poly(rng, terms=2) for i in range(4)}
        v = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        w = [sigma[i].eval(v) for i in range(4)]
        assert p.substitute(sigma).eval(v) == p.eval(w)


def _renamed_reference(polys, labels, sizes=None):
    """Sum of ``polys`` renamed term by term through the public constructor,
    which brings every renamed exponent vector to normal form with
    ``_canon``; with ``sizes``, each term is divided by prod(sizes[w] ** e)
    over its renamed vector."""
    terms = []
    for p in polys:
        for m in p.terms:
            exps = _canon([(labels[v], e) for v, e in m.exps])
            divisor = prod([sizes[w] ** e for w, e in exps]) if sizes else 1
            terms.append(Monomial(m.coeff / divisor, exps))
    return Polynomial(terms)


# Polynomials over x0..x4 with up to three variables per term, exponents up
# to 3, constant terms and denominators up to 4.
_polys_st = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(1, 4),
              st.dictionaries(st.integers(0, 4), st.integers(1, 3), max_size=3)),
    max_size=6,
).map(lambda items: Polynomial([monomial(Fraction(c, q), e) for c, q, e in items]))


@given(st.lists(_polys_st, max_size=3),
       st.lists(st.integers(0, 2), min_size=5, max_size=5),
       st.lists(st.integers(1, 3), min_size=5, max_size=5))
@example([Polynomial([monomial(2, {0: 1, 1: 2}), monomial(-1, {3: 1, 4: 1}),
                      monomial(3, {})])], [1] * 5, [2] * 5)
def test_sum_renamed_matches_the_canon_reference(polys, labels, sizes):
    """Total maps onto three labels, so both variables of a term often merge
    onto one label and their exponents add."""
    assert _sum_renamed(polys, labels) == _renamed_reference(polys, labels)
    assert _sum_renamed(polys, labels, sizes) == _renamed_reference(polys, labels, sizes)


# -- derivatives ------------------------------------------------------------------------


def test_partial_product():
    assert P("x1*x2").partial(0) == P("x2")


def test_partial_constant():
    assert not P("7/3").partial(1)


def test_partial_block_sum():
    # d/dx2 of (k1+k2-1)*x1 - x2 - x3 with k1 = k2 = 1
    assert P("x1 - x2 - x3").partial(1) == P("-1")


def test_partial_finite_difference():
    rng = random.Random(3)
    h = 1e-4
    for _ in range(100):
        p = _random_poly(rng)
        i = rng.randrange(4)
        v = [rng.uniform(-2, 2) for _ in range(4)]
        up = list(v)
        down = list(v)
        up[i] += h
        down[i] -= h
        central = (p.eval(up) - p.eval(down)) / (2 * h)
        exact = p.partial(i).eval(v)
        assert abs(central - exact) <= 1e-6


# -- evaluation ---------------------------------------------------------------------------


def test_eval_cancels_at_equal_point():
    assert P("x1 - x2").eval((Fraction(1), Fraction(1), Fraction(1))) == 0


def test_eval_decay_drift():
    assert P("-x1").eval((Fraction(1), Fraction(1), Fraction(1))) == -1


def test_eval_zero_polynomial():
    assert Polynomial.zero().eval((Fraction(5), Fraction(-2))) == 0


def test_eval_exactness():
    p = P("1/3*x1 + 1/6")
    assert p.eval((Fraction(1, 2),)) == Fraction(1, 3)


# -- misc ----------------------------------------------------------------------------------


def test_degree_and_variables():
    p = P("x1*x1*x3 - x2")
    assert p.degree() == 3
    assert p.variables() == frozenset({0, 1, 2})
    assert Polynomial.zero().degree() == -1


def test_monomial_rejects_negative_exponent():
    with pytest.raises(ValueError):
        monomial(1, {0: -1})


def test_pairs_as_mapping_list_or_generator_give_one_normal_form():
    pairs = [(2, 1), (0, 3), (2, 2), (1, 0)]
    counts = {0: 3, 2: 3, 1: 0}

    def sources():
        return (counts, MappingProxyType(counts), pairs, (p for p in pairs))

    expected = ((0, 3), (2, 3))
    assert [monomial(1, s).exps for s in sources()] == [expected] * 4
    assert [multiset(s) for s in sources()] == [expected] * 4


def test_constructor_normalizes_and_instances_are_immutable():
    p = P("x1*x2 - 3*x3 + 1/2")
    assert Polynomial(reversed(p.terms)) == p
    with pytest.raises(AttributeError):
        p.den = 2
    assert copy.deepcopy(p) == p
    assert pickle.loads(pickle.dumps(p)) == p


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Polynomial.constant(0.5)  # type: ignore[arg-type]


def test_zero_constant_negative_variable_and_repr():
    assert Polynomial.constant(0) is Polynomial.zero()
    with pytest.raises(ValueError, match="negative variable index -1"):
        Polynomial.variable(-1)
    assert repr(P("2*x1 + 1")) == (
        "Polynomial(terms=(Monomial(coeff=Fraction(2, 1), exps=((0, 1),)), "
        "Monomial(coeff=Fraction(1, 1), exps=())))")


def test_format_round_trips_through_parser():
    p = P("-x1 + 5/2*x2*x2 - 1/3")
    assert polynomial_of(p.format(NAMES), NAMES) == p
