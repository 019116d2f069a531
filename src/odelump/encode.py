"""Translation between polynomial ODE systems and reaction networks.

Reaction networks generalize chemical reaction networks by permitting
negative rates, which makes every polynomial ODE system expressible: each
monomial of a drift becomes a single reaction.  Both directions are exact and
mutually inverse up to polynomial normalization.

Each direction works once per distinct monomial: ``rn_to_ode`` groups the
reactions by reagents, the one monomial they all contribute to, and sorts
the groups once; ``ode_to_rn`` turns each stored term into one reaction.
The container either returns is derived from a checked one: names, init
and observables are shared, sides and drifts are canonical by
construction, species stay below n and rates are nonzero Fractions.  So
both build their result through a private constructor (``_network``,
``system._ode_system``) that skips the checks.  The model reader checks
each rule once, in its own read, and builds its container through the same
constructors; the public constructors check everything.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Optional, Sequence

from .poly import _canon, _new, _reduced, _setattr, _term_key, as_fraction
from .system import OdeSystem, _ode_system, _require, check_container

Multiset = tuple  # tuple[tuple[int, int], ...]: sorted (species, multiplicity >= 1)


def multiset(items) -> Multiset:
    """Canonicalize (species, multiplicity) pairs or a mapping, to the normal
    form of a monomial's exponent vector: reagents are the rate monomial."""
    return _canon(items)


@dataclass(frozen=True)
class Reaction:
    reagents: Multiset
    products: Multiset
    rate: Fraction

    def __post_init__(self):
        if not isinstance(self.rate, Fraction):
            raise TypeError("reaction rates must be Fractions")
        if self.rate == 0:
            raise ValueError("reaction rate must be nonzero")


def _reaction(reagents: Multiset, products: Multiset, rate: Fraction) -> Reaction:
    """A reaction from canonical sides and a nonzero Fraction rate, which the
    caller guarantees; the checks of ``Reaction(...)`` are skipped.  The
    result equals, hashes like and is as frozen as the checked one."""
    r = _new(Reaction)
    _setattr(r, "reagents", reagents)
    _setattr(r, "products", products)
    _setattr(r, "rate", rate)
    return r


@dataclass(frozen=True)
class ReactionNetwork:
    names: tuple
    reactions: tuple
    init: tuple
    observables: Optional[frozenset] = None

    def __post_init__(self):
        check_container(self.names, self.init, self.observables)
        n = len(self.names)
        checked = set()  # distinct sides recur across reactions; check each once
        for r in self.reactions:
            for side in (r.reagents, r.products):
                if side in checked:
                    continue
                checked.add(side)
                prev = -1
                for s, k in side:
                    if not prev < s < n or k < 1:
                        if not 0 <= s < n:
                            raise ValueError(f"species index {s} out of range")
                        raise ValueError(f"reaction side {side} is not a canonical "
                                         "multiset; build it with multiset()")
                    prev = s

    @staticmethod
    def make(names: Sequence[str], reactions, init, observables=None) -> "ReactionNetwork":
        obs = frozenset(observables) if observables is not None else None
        return ReactionNetwork(tuple(names), tuple(reactions),
                               tuple(as_fraction(v) for v in init), obs)

    @property
    def n(self) -> int:
        return len(self.names)


def _network(names: tuple, reactions: tuple, init: tuple,
             observables: Optional[frozenset]) -> ReactionNetwork:
    """A network whose fields the caller guarantees: names, init and
    observables as a checked container holds them, and reactions with
    canonical sides over species below n and nonzero Fraction rates.  The
    checks of ``ReactionNetwork(...)`` are skipped; the result equals,
    hashes like and is as frozen as the checked one.  Two callers build
    networks this way: ``ode_to_rn``, from a checked system's fields, and
    the model reader ``parsing._Parser``, which enforces each of these
    rules in its own read."""
    rn = _new(ReactionNetwork)
    _setattr(rn, "names", names)
    _setattr(rn, "reactions", reactions)
    _setattr(rn, "init", init)
    _setattr(rn, "observables", observables)
    return rn


def rn_to_ode(rn: ReactionNetwork) -> OdeSystem:
    """Mass-action semantics: each reaction (rho -> pi, a) adds
    a * (pi(s) - rho(s)) * prod_t x_t^rho(t) to the drift of every species s.
    The reagents are that monomial's exponents, so the reactions are grouped
    by reagents: each group sums its net change per species in int
    numerators over the common denominator of all rates.  The distinct
    reagent multisets are put in canonical term order once, and each
    nonzero net change is appended to its species' drift in that order, so
    every drift comes out sorted and is only brought to lowest terms."""
    if not isinstance(rn, ReactionNetwork):
        raise TypeError(f"expected a ReactionNetwork, not {type(rn).__name__}")
    den = lcm(*{r.rate.denominator for r in rn.reactions})
    groups: dict = {}  # reagents -> {species: net change numerator}
    for r in rn.reactions:
        rate = r.rate
        a = rate.numerator * (den // rate.denominator)
        reagents = r.reagents
        net = groups.get(reagents)
        if net is None:
            net = groups[reagents] = {}
        for s, k in reagents:
            net[s] = net.get(s, 0) - (a if k == 1 else a * k)
        for s, k in r.products:
            net[s] = net.get(s, 0) + (a if k == 1 else a * k)
    exps: list = [[] for _ in range(rn.n)]
    nums: list = [[] for _ in range(rn.n)]
    for reagents in sorted(groups, key=_term_key):
        for s, c in groups[reagents].items():
            if c:
                exps[s].append(reagents)
                nums[s].append(c)
    drifts = tuple(map(_reduced, exps, nums, repeat(den)))
    return _ode_system(rn.names, drifts, rn.init, rn.observables)


def ode_to_rn(ode: OdeSystem) -> ReactionNetwork:
    """Emit one reaction per monomial: c * prod x^rho in drift(s) becomes
    rho -> rho + {s} at rate c.  Reactions are ordered by species, then by
    the drift's canonical term order.  The products are built by merging
    ``(s, 1)`` into the sorted reagents, which keeps them canonical; a
    one-variable monomial is merged directly.  Equal rates share one
    Fraction, looked up by numerator within each drift's denominator."""
    _require(ode, polynomial="reaction form requires polynomial drifts")
    reactions = []
    by_den: dict = {}  # denominator -> {numerator: rate}
    shared: dict = {}  # rate -> the one Fraction of its value
    for s, drift in enumerate(ode.drifts):
        den = drift.den
        rates = by_den.get(den)
        if rates is None:
            rates = by_den[den] = {}
        key = (s,)  # sorts before every pair of species s and after all below
        one = ((s, 1),)
        for exps, n in zip(drift.exps, drift.nums):
            rate = rates.get(n)
            if rate is None:
                rate = Fraction(n, den)
                rate = rates[n] = shared.setdefault(rate, rate)
            if len(exps) == 1:
                (v, e), = exps
                if v == s:
                    products = ((s, e + 1),)
                else:
                    products = exps + one if v < s else one + exps
            else:
                i = bisect_left(exps, key)  # first pair with species >= s
                if i < len(exps) and exps[i][0] == s:
                    products = exps[:i] + ((s, exps[i][1] + 1),) + exps[i + 1:]
                else:
                    products = exps[:i] + one + exps[i:]
            reactions.append(_reaction(exps, products, rate))
    return _network(ode.names, tuple(reactions), ode.init, ode.observables)
