"""Translation between polynomial ODE systems and reaction networks.

Reaction networks generalize chemical reaction networks by permitting
negative rates, which makes every polynomial ODE system expressible: each
monomial of a drift becomes a single reaction.  Both directions are exact and
mutually inverse up to polynomial normalization.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .poly import _canon, _from_accumulator, _new, _setattr, as_fraction
from .system import OdeSystem, _require, check_container

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


def rn_to_ode(rn: ReactionNetwork) -> OdeSystem:
    """Mass-action semantics: each reaction (rho -> pi, a) adds
    a * (pi(s) - rho(s)) * prod_t x_t^rho(t) to the drift of every species s.
    The reagents are that monomial's exponents: one accumulator of int
    numerators per drift, over the common denominator of all rates.  Each
    reaction adds -a * rho(s) for every reagent and a * pi(s) for every
    product straight into those accumulators; a species whose net change is
    zero is left with a zero entry, which the accumulator drops."""
    if not isinstance(rn, ReactionNetwork):
        raise TypeError(f"expected a ReactionNetwork, not {type(rn).__name__}")
    den = lcm(*{r.rate.denominator for r in rn.reactions})
    accs: list = [{} for _ in range(rn.n)]
    for r in rn.reactions:
        rate = r.rate
        a = rate.numerator * (den // rate.denominator)
        exps = r.reagents
        for s, k in exps:
            acc = accs[s]
            prev = acc.get(exps)
            term = -a if k == 1 else -a * k
            acc[exps] = term if prev is None else prev + term
        for s, k in r.products:
            acc = accs[s]
            prev = acc.get(exps)
            term = a if k == 1 else a * k
            acc[exps] = term if prev is None else prev + term
    drifts = tuple(_from_accumulator(acc, den) for acc in accs)
    return OdeSystem(rn.names, drifts, rn.init, rn.observables)


def ode_to_rn(ode: OdeSystem) -> ReactionNetwork:
    """Emit one reaction per monomial: c * prod x^rho in drift(s) becomes
    rho -> rho + {s} at rate c.  Reactions are ordered by species, then by
    the drift's canonical term order.  The products are built by merging
    ``(s, 1)`` into the sorted reagents, which keeps them canonical.  Equal
    rates share one Fraction."""
    _require(ode, polynomial="reaction form requires polynomial drifts")
    reactions = []
    rates: dict = {}   # (numerator, denominator) -> rate
    shared: dict = {}  # rate -> the one Fraction of its value
    for s, drift in enumerate(ode.drifts):
        den = drift.den
        for exps, n in zip(drift.exps, drift.nums):
            rate = rates.get((n, den))
            if rate is None:
                rate = Fraction(n, den)
                rate = rates[n, den] = shared.setdefault(rate, rate)
            i = bisect_left(exps, (s,))  # first pair with species >= s
            if i < len(exps) and exps[i][0] == s:
                products = exps[:i] + ((s, exps[i][1] + 1),) + exps[i + 1:]
            else:
                products = exps[:i] + ((s, 1),) + exps[i:]
            reactions.append(_reaction(exps, products, rate))
    return ReactionNetwork(ode.names, tuple(reactions), ode.init, ode.observables)
