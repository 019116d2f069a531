"""Every coefficient that leaves the polynomial layer is an exact Fraction,
equal to the same computation done here with plain Fraction arithmetic.

Polynomials store int numerators over one denominator, and an int / int
would give a float, so each operation is compared with a reference that
keeps a polynomial as a ``{exponents: Fraction}`` dict.
"""

import random
from fractions import Fraction
from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from odelump import (OdeSystem, Partition, Polynomial, Reaction, ReactionNetwork,
                     coarsest_with_trace, monomial, multiset, ode_to_rn,
                     reduce_backward, reduce_forward, rn_to_ode)
from conftest import polynomial_of, random_poly_system

N = 4
NAMES = tuple(f"x{i}" for i in range(N))

coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
exps_st = st.dictionaries(st.integers(0, N - 1), st.integers(0, 3), max_size=3)
terms_st = st.lists(st.tuples(coeffs, exps_st), max_size=6)


# -- the reference: {exponents: Fraction} dicts ------------------------------


def canon(exps: dict) -> tuple:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def ref_of(terms) -> dict:
    acc: dict = {}
    for c, exps in terms:
        key = canon(exps)
        acc[key] = acc.get(key, Fraction(0)) + c
    return {k: c for k, c in acc.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    return ref_of([(c, dict(k)) for k, c in a.items()] + [(c, dict(k)) for k, c in b.items()])


def ref_mul(a: dict, b: dict) -> dict:
    out = []
    for ka, ca in a.items():
        for kb, cb in b.items():
            exps = dict(ka)
            for v, e in kb:
                exps[v] = exps.get(v, 0) + e
            out.append((ca * cb, exps))
    return ref_of(out)


def ref_partial(a: dict, i: int) -> dict:
    out = []
    for k, c in a.items():
        exps = dict(k)
        if exps.get(i, 0):
            out.append((c * exps[i], {**exps, i: exps[i] - 1}))
    return ref_of(out)


def ref_rename(a: dict, mapping) -> dict:
    out = []
    for k, c in a.items():
        exps: dict = {}
        for v, e in k:
            w = mapping.get(v, v)
            exps[w] = exps.get(w, 0) + e
        out.append((c, exps))
    return ref_of(out)


def ref_substitute(a: dict, sigma: dict) -> dict:
    total: dict = {}
    for k, c in a.items():
        product = {(): c}
        for v, e in k:
            factor = sigma[v] if v in sigma else {((v, 1),): Fraction(1)}
            for _ in range(e):
                product = ref_mul(product, factor)
        total = ref_add(total, product)
    return total


def old_term_key(exps):
    return (-sum(e for _, e in exps), tuple((v, -e) for v, e in exps))


def as_ref(p: Polynomial) -> dict:
    """``p`` as a reference dict, after checking the stored form and that
    every coefficient ``terms`` gives is a Fraction, in canonical order."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.nums)
    assert gcd(p.den, *p.nums) == 1
    terms = p.terms
    assert all(type(m.coeff) is Fraction for m in terms)
    assert [m.exps for m in terms] == sorted(p.exps, key=old_term_key)
    assert all(m.exps == canon(dict(m.exps)) for m in terms)
    return {m.exps: m.coeff for m in terms}


def render(terms) -> str:
    """Model text of the terms, the coefficients spelled in varied forms."""
    parts = []
    for i, (c, exps) in enumerate(terms):
        factors = [NAMES[v] for v, e in sorted(exps.items()) for _ in range(e)]
        p, q = abs(c.numerator), c.denominator
        if i % 3 == 0:
            body = "*".join([f"{p}/{q}"] + factors)
        elif i % 3 == 1:
            body = "*".join(factors + [str(p)]) + f"/{q}"
        else:
            body = "*".join([f"{2 * p}/{2 * q}"] + factors)
        parts.append(("- " if c < 0 else "+ " if parts else "") + body)
    return " ".join(parts) or "0"


def build(terms) -> Polynomial:
    return Polynomial(monomial(c, exps) for c, exps in terms)


# -- polynomial operations ------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(terms_st, terms_st, st.integers(0, N - 1))
def test_ring_operations_are_exact(aterms, bterms, i):
    a, b = build(aterms), build(bterms)
    ra, rb = ref_of(aterms), ref_of(bterms)
    assert as_ref(a) == ra
    assert as_ref(a + b) == ref_add(ra, rb)
    assert as_ref(a - b) == ref_add(ra, {k: -c for k, c in rb.items()})
    assert as_ref(a * b) == ref_mul(ra, rb)
    assert as_ref(a.partial(i)) == ref_partial(ra, i)
    assert as_ref(a.scale(Fraction(-2, 3))) == {k: c * Fraction(-2, 3) for k, c in ra.items()}
    assert as_ref(Polynomial.sum([a, b, a])) == ref_add(ref_add(ra, rb), ra)


@settings(max_examples=150, deadline=None)
@given(terms_st, terms_st)
def test_substitute_is_exact(terms, sterms):
    p, rp = build(terms), ref_of(terms)
    sigma = {0: build(sterms), 2: Polynomial.variable(1).scale(Fraction(1, 3))}
    ref_sigma = {0: ref_of(sterms), 2: {((1, 1),): Fraction(1, 3)}}
    assert as_ref(p.substitute(sigma)) == ref_substitute(rp, ref_sigma)


@settings(max_examples=200, deadline=None)
@given(terms_st)
def test_parsed_equals_built_with_equal_hash(terms):
    parsed = polynomial_of(render(terms), NAMES)
    built = build(terms)
    assert as_ref(parsed) == ref_of(terms)
    # a third path: a sum of scaled products of variables
    summed = Polynomial.sum(
        prod((Polynomial.variable(v) for v, e in exps.items() for _ in range(e)),
             start=Polynomial.constant(1)).scale(c)
        for c, exps in terms if c)
    assert parsed == built == summed == Polynomial(built.terms)
    assert hash(parsed) == hash(built) == hash(summed)


def test_equal_values_by_different_paths_compare_and_hash_equal():
    x = Polynomial.variable(0)
    half_x = [polynomial_of("2/4*x0", NAMES), x.scale(Fraction(1, 2)),
              polynomial_of("x0/2", NAMES), polynomial_of("0.5*x0", NAMES),
              (x + x).scale(Fraction(1, 4)), Polynomial([monomial(Fraction(1, 2), {0: 1})]),
              polynomial_of("x0 - 1/2*x0", NAMES)]
    assert all(p == half_x[0] for p in half_x)
    assert len({hash(p) for p in half_x}) == 1
    assert str(half_x[0]) == "1/2*x0"


# -- reaction networks -------------------------------------------------------------


side_st = st.dictionaries(st.integers(0, 2), st.integers(1, 2), max_size=2)
reactions_st = st.lists(st.tuples(side_st, side_st, coeffs.filter(bool)), max_size=8)


@settings(max_examples=200, deadline=None)
@given(reactions_st)
def test_rn_to_ode_and_back_are_exact(raw):
    reactions = [Reaction(multiset(r), multiset(p), rate) for r, p, rate in raw]
    rn = ReactionNetwork.make(("a", "b", "c"), reactions, (1, 1, 1))
    ode = rn_to_ode(rn)
    ref = [[] for _ in range(3)]
    for r, p, rate in raw:
        for s in range(3):
            ref[s].append((rate * (p.get(s, 0) - r.get(s, 0)), r))
    assert [as_ref(d) for d in ode.drifts] == [ref_of(terms) for terms in ref]

    back = ode_to_rn(ode)
    assert all(type(r.rate) is Fraction for r in back.reactions)
    expected = [(m.exps, m.coeff) for d in ode.drifts for m in d.terms]
    assert [(r.reagents, r.rate) for r in back.reactions] == expected
    # one Fraction object per distinct rate value
    assert len({id(r.rate) for r in back.reactions}) == len({r.rate for r in back.reactions})
    assert rn_to_ode(back) == ode


# -- reducers ------------------------------------------------------------------------


def _bde_lifted_system(rng, n):
    """A system for which a random partition is a BDE: each member of block b
    gets block b's polynomial with every variable of block c replaced by a
    random member of c."""
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    hidden = Partition.one_block(n).split_by(labels.__getitem__)
    k = hidden.block_count
    base = random_poly_system(rng, k, max_degree=3, max_denominator=4)
    drifts = []
    for v in range(n):
        drift = base.drifts[hidden.labels[v]]
        drifts.append(drift.substitute(
            {c: Polynomial.variable(rng.choice(hidden.blocks[c])) for c in range(k)}))
    return OdeSystem.make(tuple(f"x{i}" for i in range(n)), drifts, [1] * n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 8))
def test_reducers_are_exact(seed, n):
    rng = random.Random(seed)
    fde_system = random_poly_system(rng, n, max_degree=3, max_denominator=4, hidden_fde=True)
    part = coarsest_with_trace(fde_system, Partition.one_block(n), "fde")[0]
    reduced = reduce_forward(fde_system, part)
    labels, sizes = part.labels, [len(b) for b in part.blocks]
    refs = [{m.exps: m.coeff for m in d.terms} for d in fde_system.drifts]
    for b, block in enumerate(part.blocks):
        total: dict = {}
        for v in block:
            total = ref_add(total, ref_rename(refs[v], dict(enumerate(labels))))
        expected = {k: c / prod(sizes[w] ** e for w, e in k) for k, c in total.items()}
        assert as_ref(reduced.drifts[b]) == expected

    bde_system = _bde_lifted_system(rng, n)
    part = coarsest_with_trace(bde_system, Partition.one_block(n), "bde")[0]
    reduced = reduce_backward(bde_system, part)
    labels = dict(enumerate(part.labels))
    for b, block in enumerate(part.blocks):
        rep = {m.exps: m.coeff for m in bde_system.drifts[block[0]].terms}
        assert as_ref(reduced.drifts[b]) == ref_rename(rep, labels)
