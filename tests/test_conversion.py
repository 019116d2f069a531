"""Conversion between the two forms of a model, and the text it is written as.

``ode_to_rn`` and ``rn_to_ode`` build their results without the checks of
the public constructors; these tests hold those results to the checked
containers, keep the unchecked constructors out of every other function,
count the sort keys ``rn_to_ode`` takes, and pin ``serialize_model``'s ode
form to the per-drift text it wrote before product texts were shared."""

import ast
import dataclasses
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import odelump.encode as encode
from odelump import (OdeSystem, Polynomial, Reaction, ReactionNetwork, monomial,
                     multiset, ode_to_rn, parse_model, rn_to_ode, serialize_model)
from conftest import random_poly_system

SRC = Path(__file__).resolve().parent.parent / "src" / "odelump"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _binding_network(sites: int) -> ReactionNetwork:
    """A protein with ``sites`` binding sites and one ligand L: the protein
    state with bound-site bits b binds L on each free site i at rate 3/2,
    and releases it from each bound site at rate 1/4."""
    names = [f"P{b:0{sites}b}" for b in range(2 ** sites)] + ["L"]
    ligand = 2 ** sites
    reactions = []
    for b in range(2 ** sites):
        for i in range(sites):
            bit = 1 << i
            if b & bit:
                reactions.append(Reaction(multiset({b: 1}),
                                          multiset({b ^ bit: 1, ligand: 1}), Fraction(1, 4)))
            else:
                reactions.append(Reaction(multiset({b: 1, ligand: 1}),
                                          multiset({b | bit: 1}), Fraction(3, 2)))
    init = [1] + [0] * (2 ** sites - 1) + [5]
    return ReactionNetwork.make(names, reactions, init)


def _polynomial_goldens():
    """The system of every golden model with polynomial drifts."""
    systems = []
    for path in sorted(GOLDEN.glob("*.ode")):
        system = parse_model(path.read_text(encoding="utf-8")).system
        if isinstance(system, ReactionNetwork) or system.is_polynomial:
            systems.append(pytest.param(system, id=path.stem))
    return systems


def _assert_same_as_checked(derived):
    """``derived`` equals, and hashes like, the container its public
    constructor builds from its fields, and refuses attribute assignment."""
    if isinstance(derived, OdeSystem):
        checked = OdeSystem(derived.names, derived.drifts, derived.init, derived.observables)
        for d in derived.drifts:  # each drift is in the stored form
            assert type(d) is Polynomial and d == Polynomial(d.terms)
    else:
        checked = ReactionNetwork(derived.names, derived.reactions, derived.init,
                                  derived.observables)
        for r in derived.reactions:
            assert Reaction(r.reagents, r.products, r.rate) == r
    assert type(derived) is type(checked)
    assert derived == checked and hash(derived) == hash(checked)
    with pytest.raises(dataclasses.FrozenInstanceError):
        derived.names = ("z",)


def _assert_both_conversions_checked(system):
    if isinstance(system, ReactionNetwork):
        ode = rn_to_ode(system)
        _assert_same_as_checked(ode)
        _assert_same_as_checked(ode_to_rn(ode))
    else:
        rn = ode_to_rn(system)
        _assert_same_as_checked(rn)
        _assert_same_as_checked(rn_to_ode(rn))


@pytest.mark.parametrize("seed", range(40))
def test_conversions_of_random_systems_equal_checked_containers(seed):
    rng = random.Random(seed)
    system = random_poly_system(rng, rng.randint(1, 6), max_degree=3,
                                max_denominator=rng.choice((1, 6)),
                                observables=rng.choice((None, {0})))
    _assert_both_conversions_checked(system)


@pytest.mark.parametrize("system", _polynomial_goldens())
def test_conversions_of_golden_models_equal_checked_containers(system):
    _assert_both_conversions_checked(system)


def test_conversions_of_a_binding_network_equal_checked_containers():
    _assert_both_conversions_checked(_binding_network(4))


def test_only_the_conversions_build_unchecked_containers():
    """The unchecked constructor trusts that its fields come from a checked
    container, or from the model reader, which enforces every input rule in
    its own read; no other function may call it, and each caller builds
    only the records named here."""
    built = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name == "_trusted":
                    built.setdefault(f"{path.stem}.{owner}", set()).add(node.args[0].id)
    assert built == {"encode.rn_to_ode": {"OdeSystem"},
                     "encode.ode_to_rn": {"ReactionNetwork", "Reaction"},
                     "parsing._Parser": {"OdeSystem", "ReactionNetwork", "Reaction"}}


def test_rn_to_ode_takes_one_sort_key_per_distinct_reagent_multiset(monkeypatch):
    rn = _binding_network(4)
    expected = rn_to_ode(rn)
    keyed = []

    def counting_key(exps):
        keyed.append(exps)
        return key(exps)

    key = encode._term_key
    monkeypatch.setattr(encode, "_term_key", counting_key)
    assert rn_to_ode(rn) == expected
    distinct = {r.reagents for r in rn.reactions}
    assert len(rn.reactions) == 64 and len(distinct) == 30
    assert sorted(keyed) == sorted(distinct)


# -- the ode text -------------------------------------------------------------

def _format_per_drift(p: Polynomial, names=None) -> str:
    """``Polynomial.format`` as it was before product texts were shared."""
    if not p.nums:
        return "0"
    den = p.den
    parts = []
    for exps, n in zip(p.exps, p.nums):
        if names is None:
            factors = [f"x{v}" for v, e in exps for _ in range(e)]
        else:
            factors = [names[v] for v, e in exps for _ in range(e)]
        mag = -n if n < 0 else n
        if mag != den or not factors:
            if den == 1:
                factors.insert(0, str(mag))
            else:
                g = gcd(mag, den)
                factors.insert(0, str(mag // g) if g == den else f"{mag // g}/{den // g}")
        body = "*".join(factors)
        if not parts:
            parts.append(body if n > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if n > 0 else f"- {body}")
    return " ".join(parts)


def _ode_section(text: str) -> list:
    lines = text.splitlines()
    return lines[lines.index("begin ode") + 1:lines.index("end ode")]


NAMES = ("x", "y", "zeta", "w")


@st.composite
def _systems(draw):
    """Systems whose drifts draw their terms from one small pool of exponent
    vectors, so a monomial recurs across drifts; coefficients include +-1
    and denominators above 1, and a drift may be zero."""
    n = draw(st.integers(1, len(NAMES)))
    pool = draw(st.lists(st.dictionaries(st.integers(0, n - 1), st.integers(1, 3),
                                         max_size=3), min_size=1, max_size=5))
    drifts = []
    for _ in range(n):
        terms = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                        st.integers(-3, 3), st.integers(1, 4)), max_size=5))
        drifts.append(Polynomial([monomial(Fraction(c, q), pool[i]) for i, c, q in terms]))
    return OdeSystem.make(NAMES[:n], drifts, [0] * n)


@given(_systems())
def test_ode_text_equals_the_per_drift_format(system):
    expected = [f"  d({nm}) = {_format_per_drift(d, system.names)}"
                for nm, d in zip(system.names, system.drifts)]
    assert _ode_section(serialize_model(system)) == expected
    for d in system.drifts:
        assert d.format(system.names) == _format_per_drift(d, system.names)
        assert d.format() == str(d) == _format_per_drift(d)


def test_ode_text_of_shared_products_powers_and_constants():
    names = ("x", "y", "z")
    x2y = {0: 2, 1: 1}
    drifts = (
        Polynomial([monomial(1, x2y), monomial(-1, {1: 1}), monomial(Fraction(-3, 2), {})]),
        Polynomial([monomial(-2, x2y), monomial(Fraction(1, 3), {2: 1}),
                    monomial(Fraction(2, 3), {0: 1, 2: 3})]),
        Polynomial.zero(),
    )
    text = serialize_model(OdeSystem.make(names, drifts, (0, 0, 0)))
    assert _ode_section(text) == [
        "  d(x) = x*x*y - y - 3/2",
        "  d(y) = 2/3*x*z*z*z - 2*x*x*y + 1/3*z",
        "  d(z) = 0",
    ]
    assert drifts[1].format() == "2/3*x0*x2*x2*x2 - 2*x0*x0*x1 + 1/3*x2"
