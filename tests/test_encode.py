import dataclasses
import random
from fractions import Fraction

import pytest

from hypothesis import given
from hypothesis import strategies as st

from odelump import (NonPolynomialDrift, OdeSystem, Polynomial, Reaction,
                     ReactionNetwork, monomial, multiset, ode_to_rn, rn_to_ode)
from conftest import cascade, polynomial_of, random_poly_system, read_whole

NAMES = ("x1", "x2", "x3")


def test_mass_action_cascade_drift():
    rn = ReactionNetwork.make(
        ("x1", "x2"),
        (Reaction(multiset({0: 1}), multiset({0: 1, 1: 1}), Fraction(2)),
         Reaction(multiset({1: 1}), (), Fraction(1))),
        (1, 0))
    ode = rn_to_ode(rn)
    assert ode.drifts[1] == polynomial_of("2*x1 - x2", ("x1", "x2"))
    assert not ode.drifts[0]  # x1 is catalytic in the first reaction


def test_empty_reaction_list_gives_zero_drifts():
    rn = ReactionNetwork.make(("a", "b"), (), (1, 1))
    assert not any(rn_to_ode(rn).drifts)


def test_no_net_change_gives_zero_drifts():
    r = Reaction(multiset({0: 1, 1: 1}), multiset({0: 1, 1: 1}), Fraction(5))
    rn = ReactionNetwork.make(("a", "b"), (r,), (1, 1))
    assert not any(rn_to_ode(rn).drifts)


def test_second_order_mass_action():
    # a + 2b -> c at rate 3: drift(c) = 3*a*b^2, drift(b) = -6*a*b^2
    r = Reaction(multiset({0: 1, 1: 2}), multiset({2: 1}), Fraction(3))
    ode = rn_to_ode(ReactionNetwork.make(("a", "b", "c"), (r,), (1, 1, 0)))
    assert ode.drifts[2] == polynomial_of("3*a*b*b", ("a", "b", "c"))
    assert ode.drifts[1] == polynomial_of("-6*a*b*b", ("a", "b", "c"))


def test_cascade_emits_five_reactions_in_canonical_order():
    rn = ode_to_rn(cascade(k1=1, k2=1))
    expected = (
        Reaction(((0, 1),), ((0, 2),), Fraction(-1)),          # -x1
        Reaction(((0, 1),), ((0, 1), (1, 1)), Fraction(1)),    # k1*x1 feeds x2
        Reaction(((1, 1),), ((1, 2),), Fraction(-1)),          # -x2
        Reaction(((0, 1),), ((0, 1), (2, 1)), Fraction(1)),    # k2*x1 feeds x3
        Reaction(((2, 1),), ((2, 2),), Fraction(-1)),          # -x3
    )
    assert rn.reactions == expected


def test_zero_system_emits_no_reactions():
    system = OdeSystem.make(("a",), (Polynomial.zero(),), (1,))
    assert ode_to_rn(system).reactions == ()


def test_constant_drift_emits_source_reaction():
    system = OdeSystem.make(("a",), (Polynomial.constant(3),), (0,))
    rn = ode_to_rn(system)
    assert rn.reactions == (Reaction((), ((0, 1),), Fraction(3)),)


def test_reaction_count_equals_monomial_count():
    rng = random.Random(5)
    for _ in range(50):
        system = random_poly_system(rng, rng.randint(1, 5), max_degree=3)
        assert len(ode_to_rn(system).reactions) == system.monomial_count()


def test_round_trip_on_random_systems():
    rng = random.Random(9)
    for _ in range(200):
        system = random_poly_system(rng, rng.randint(1, 5), max_degree=3)
        assert rn_to_ode(ode_to_rn(system)) == system


def test_rn_to_ode_linear_in_reactions():
    rng = random.Random(13)
    for _ in range(30):
        a = random_poly_system(rng, 4, max_degree=2)
        b = random_poly_system(rng, 4, max_degree=2)
        ra, rb = ode_to_rn(a), ode_to_rn(b)
        joined = ReactionNetwork(a.names, ra.reactions + rb.reactions, a.init)
        summed = rn_to_ode(joined)
        for i in range(4):
            assert summed.drifts[i] == a.drifts[i] + b.drifts[i]


def test_rn_to_ode_matches_per_monomial_contributions():
    """Each reaction adds rate * (products(s) - reagents(s)) * x^reagents to
    the drift of every species s; summed by Polynomial(), on networks with
    multiplicities 0-3 and reactions that cancel each other."""
    rng = random.Random(31)

    def side(n):
        return multiset((rng.randrange(n), rng.randint(0, 3))
                        for _ in range(rng.randint(0, 3)))

    cancelled = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        reactions = []
        for _ in range(rng.randint(0, 8)):
            r = Reaction(side(n), side(n), Fraction(rng.choice((-3, -1, 1, 2)),
                                                    rng.randint(1, 3)))
            reactions.append(r)
            if rng.random() < 0.3:
                reactions.append(Reaction(r.reagents, r.products, -r.rate))
            elif rng.random() < 0.3:
                reactions.append(Reaction(r.reagents, side(n), r.rate))
        rn = ReactionNetwork.make([f"s{i}" for i in range(n)], reactions, [0] * n)
        contributions = [[] for _ in range(n)]
        for r in reactions:
            for s in range(n):
                change = dict(r.products).get(s, 0) - dict(r.reagents).get(s, 0)
                contributions[s].append(monomial(r.rate * change, r.reagents))
        expected = tuple(Polynomial(terms) for terms in contributions)
        assert rn_to_ode(rn).drifts == expected
        cancelled += sum(len({m.exps for m in terms if m.coeff}) > p.monomial_count()
                         for terms, p in zip(contributions, expected))
    assert cancelled >= 100


def _net_dict_drifts(rn):
    """Reference mass action: one net-change dict per reaction, and every
    nonzero net change a Fraction monomial summed by ``Polynomial()``."""
    terms = [[] for _ in range(rn.n)]
    for r in rn.reactions:
        net = dict(r.products)
        for s, k in r.reagents:
            net[s] = net.get(s, 0) - k
        for s, change in net.items():
            if change:
                terms[s].append(monomial(r.rate * change, r.reagents))
    return tuple(Polynomial(t) for t in terms)


# Sides over four species with multiplicities up to 3; the empty side is "0".
_sides = st.dictionaries(st.integers(0, 3), st.integers(1, 3), max_size=3).map(multiset)


@st.composite
def _reactions(draw):
    reagents, products = draw(_sides), draw(_sides)
    if draw(st.booleans()):  # the reagents reappear among the products: catalysts
        products = multiset(list(reagents) + list(products))
    rate = Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
    return Reaction(reagents, products, rate)


@given(st.lists(_reactions(), max_size=8))
def test_rn_to_ode_matches_a_net_dict_reference(reactions):
    rn = ReactionNetwork.make(("a", "b", "c", "d"), reactions, (0,) * 4)
    assert rn_to_ode(rn).drifts == _net_dict_drifts(rn)


READABLE_NETWORK = """\
begin model
begin init
  A = 1
  B = 0
end init
begin reactions
  A + B -> 2*B, 3/2
  A + B -> 2*B, 3/2
  0 -> A, -1
  2*A -> 0, 2
end reactions
end model
"""


def _assert_same_checked_reactions(reactions):
    """Each reaction equals, and hashes like, the one the public constructor
    builds from its fields, and refuses attribute assignment."""
    for r in reactions:
        checked = Reaction(r.reagents, r.products, r.rate)
        assert type(r) is Reaction
        assert r == checked and hash(r) == hash(checked)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.rate = Fraction(1)


def test_statement_read_and_ode_to_rn_build_checked_reactions():
    doc = read_whole(READABLE_NETWORK)  # every reaction read whole
    assert doc.system.reactions == (
        Reaction(((0, 1), (1, 1)), ((1, 2),), Fraction(3, 2)),
        Reaction(((0, 1), (1, 1)), ((1, 2),), Fraction(3, 2)),
        Reaction((), ((0, 1),), Fraction(-1)),
        Reaction(((0, 2),), (), Fraction(2)))
    _assert_same_checked_reactions(doc.system.reactions)
    _assert_same_checked_reactions(ode_to_rn(cascade(k1=Fraction(1, 3))).reactions)


@pytest.mark.parametrize("bad, message", [
    (((1, 1), (0, 1)), "canonical multiset"), (((2, 1),), "species index 2 out of range")])
def test_network_checks_a_bad_side_after_repeated_good_ones(bad, message):
    good = ((0, 1),)
    reactions = [Reaction(good, good, Fraction(1))] * 3 + [Reaction(good, bad, Fraction(1))]
    with pytest.raises(ValueError, match=message):
        ReactionNetwork.make(("a", "b"), reactions, [0, 0])


@pytest.mark.parametrize("bad", [((1, 1), (0, 1)), ((0, 1), (0, 2)),
                                 ((0, 0),), ((1, -1),)])
def test_network_rejects_noncanonical_sides(bad):
    ok = ((0, 1),)
    for reagents, products in ((bad, ok), (ok, bad)):
        with pytest.raises(ValueError, match="canonical multiset"):
            ReactionNetwork.make(("a", "b"), [Reaction(reagents, products, Fraction(1))],
                                 [0, 0])
    if all(k >= 0 for _, k in bad):
        ReactionNetwork.make(("a", "b"), [Reaction(multiset(bad), ok, Fraction(1))],
                             [0, 0])


@given(st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 3)), max_size=6))
def test_multiset_is_the_monomial_normal_form(pairs):
    if any(s < 0 or k < 0 for s, k in pairs):
        for build in (multiset, lambda p: monomial(1, p)):
            with pytest.raises(ValueError):
                build(pairs)
        return
    assert multiset(pairs) == monomial(1, pairs).exps == \
        tuple(sorted((s, sum(k for t, k in pairs if t == s))
                     for s in {s for s, k in pairs if k}))


def test_ode_to_rn_rejects_expression_drifts():
    from odelump.parsing import parse_model
    doc = parse_model("begin model begin init x=1 y=1 end init "
                      "begin ode d(x) = min(x, y) end ode end model")
    with pytest.raises(NonPolynomialDrift):
        ode_to_rn(doc.system)


def test_zero_rate_rejected():
    with pytest.raises(ValueError):
        Reaction(multiset({0: 1}), (), Fraction(0))


@pytest.mark.parametrize("rate", [0.5, 2, "1/2"])
def test_rate_that_is_not_a_fraction_rejected(rate):
    # a float rate would reach rn_to_ode's drifts as an inexact coefficient
    with pytest.raises(TypeError):
        Reaction(((0, 1),), (), rate)


def test_high_degree_monomials_accepted():
    system = OdeSystem.make(("a", "b"),
                            (polynomial_of("a*a*a*b", ("a", "b")),
                             Polynomial.zero()), (1, 1))
    rn = ode_to_rn(system)
    assert rn.reactions[0].reagents == ((0, 3), (1, 1))
    assert rn_to_ode(rn) == system


@pytest.mark.parametrize("build", [
    lambda obs, init: OdeSystem.make(("a", "b"), (Polynomial.zero(),) * 2, init, obs),
    lambda obs, init: ReactionNetwork.make(("a", "b"), (), init, obs),
], ids=["system", "network"])
def test_containers_reject_out_of_range_observables(build):
    with pytest.raises(ValueError, match="observable index 5 out of range"):
        build([5], [1, 0])


@pytest.mark.parametrize("build", [
    lambda names: OdeSystem.make(names, (Polynomial.zero(),) * 2, (1, 0)),
    lambda names: ReactionNetwork.make(names, (), (1, 0)),
], ids=["system", "network"])
@pytest.mark.parametrize("bad", ["a|b", "x y", "begin", "end", "1x", ""])
def test_containers_reject_names_outside_the_grammar(build, bad):
    with pytest.raises(ValueError, match="is not an identifier"):
        build(("ok", bad))


def test_network_rejects_non_fraction_init():
    with pytest.raises(TypeError, match="initial values must be Fractions"):
        ReactionNetwork(("a", "b"), (), (1, 0))
    with pytest.raises(TypeError, match="initial values must be Fractions"):
        OdeSystem(("a", "b"), (Polynomial.zero(),) * 2, (1, 0))
