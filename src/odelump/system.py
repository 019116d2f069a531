"""The ODE system container shared by every analysis in the package, and the
input rules they all share: what a system and a covering partition are, and
the one choice between the forward (fde) and backward (bde) equivalence.

Public entry points guard, and private bodies trust their callers: every
public function that takes a system checks its input rules with one call of
:func:`_require`, and the private functions it calls check nothing again.
A partition that :func:`odelump.lump.coarsest_with_trace` returned proves
the rules for the system it was refined for, which was guarded then and is
frozen, so the checks of that system and mode pass it without a guard.

Beside that one guard sits the one way to skip the checks of a frozen
record: :func:`_trusted` builds an ``OdeSystem``, ``ReactionNetwork`` or
``Reaction`` from fields its caller vouches for.  Only the conversions of
:mod:`odelump.encode` and the model reader call it."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import driftexpr
from .driftexpr import drift_eval
from .errors import NonPolynomialDrift, PartitionMismatch
from .poly import Polynomial, as_fraction


# A variable name, as the model grammar spells it; the reserved words are not
# names.  The model scanner uses the same pattern.
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = ("begin", "end")


def check_container(names, init, observables) -> None:
    """What every model container requires: at least one name, every name an
    identifier of the model grammar and not reserved, unique names, one
    Fraction initial value per name, observables (or None) in range."""
    n = len(names)
    if n == 0:
        raise ValueError("a model needs at least one variable")
    for name in names:
        if not _IDENT.fullmatch(name) or name in _RESERVED:
            raise ValueError(f"variable name {name!r} is not an identifier "
                             "[A-Za-z_][A-Za-z0-9_]* other than begin or end")
    if len(init) != n:
        raise ValueError("init must assign every variable")
    if len(set(names)) != n:
        raise ValueError("variable names must be unique")
    for v in init:
        if not isinstance(v, Fraction):
            raise TypeError("initial values must be Fractions")
    if observables is not None:
        for i in observables:
            if not 0 <= i < n:
                raise ValueError(f"observable index {i} out of range")


@dataclass(frozen=True)
class OdeSystem:
    """Variables with one drift each, initial values, and optional observables.

    Drifts are homogeneous per system: either every drift is a
    :class:`Polynomial` or every drift is a drift-expression tree.  Values are
    immutable after construction and safe to share across threads.
    """

    names: tuple
    drifts: tuple
    init: tuple
    observables: Optional[frozenset] = None

    def __post_init__(self):
        check_container(self.names, self.init, self.observables)
        n = len(self.names)
        if len(self.drifts) != n:
            raise ValueError("names and drifts must have equal length")
        poly = isinstance(self.drifts[0], Polynomial)
        for d in self.drifts:
            if isinstance(d, Polynomial) != poly:
                raise ValueError("drifts must be all polynomial or all expressions")
        # An exponent vector is sorted, so its last pair holds its largest
        # variable.  Drifts are read one at a time only to name the first
        # that goes out of range.
        if poly and max([exps[-1][0] for d in self.drifts for exps in d.exps if exps],
                        default=-1) < n:
            return
        for d in self.drifts:
            used = [exps[-1][0] for exps in d.exps if exps] if poly else \
                driftexpr.expr_variables(d)
            if used and max(used) >= n:
                raise ValueError(f"drift references variable index {max(used)} >= n = {n}")

    @staticmethod
    def make(names: Sequence[str], drifts, init, observables=None) -> "OdeSystem":
        obs = frozenset(observables) if observables is not None else None
        return OdeSystem(tuple(names), tuple(drifts),
                         tuple(as_fraction(v) for v in init), obs)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def is_polynomial(self) -> bool:
        return isinstance(self.drifts[0], Polynomial)

    def drift_value(self, index: int, values) -> Fraction:
        """Exact value of one drift at an assignment (sequence or mapping)."""
        d = self.drifts[index]
        if isinstance(d, Polynomial):
            return d.eval(values)
        return drift_eval(d, values)

    def monomial_count(self) -> Optional[int]:
        """Total monomials across drifts; None for expression drifts."""
        if not self.is_polynomial:
            return None
        return sum(d.monomial_count() for d in self.drifts)


def _require(system, part=None, polynomial=None) -> None:
    """The input rules, in this order: ``system`` is an :class:`OdeSystem`
    (TypeError; a reaction network has to be converted with ``rn_to_ode``
    first); with a ``polynomial`` message, its drifts are polynomial
    (:class:`NonPolynomialDrift` with that message); with a ``part``, it
    partitions exactly the system's variables (:class:`PartitionMismatch`)."""
    if not isinstance(system, OdeSystem):
        raise TypeError(f"expected an OdeSystem, not {type(system).__name__}; "
                        "convert a reaction network with rn_to_ode first")
    if polynomial is not None and not system.is_polynomial:
        raise NonPolynomialDrift(polynomial)
    if part is not None and part.size != system.n:
        raise PartitionMismatch(
            f"partition covers {part.size} variables, system has {system.n}")


def _trusted(cls, **fields):
    """A ``cls`` record whose ``fields`` the caller guarantees, with the
    checks of ``cls(...)`` skipped; the result equals, hashes like and is as
    frozen as the checked one.  Its callers are the conversions, which
    derive their fields from a checked container (``encode.rn_to_ode``,
    ``encode.ode_to_rn``), and the model reader ``parsing._Parser``, which
    enforces each input rule in its own read: for an :class:`OdeSystem`,
    at least one name, each an identifier that is not reserved and none
    repeated, one Fraction initial value per name, observables below n and
    one drift per name over variables below n, all polynomials or all
    trees; for a network, the same names, init and observables, and
    reactions over species below n; for a reaction, canonical sides and a
    nonzero Fraction rate."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


_MODES = ("fde", "bde")


def _by_mode(mode, bde, fde):
    """``bde`` or ``fde`` as ``mode`` names; ValueError for any other mode.

    Callers pick among module-level names at each call, never from a stored
    table, so a function swapped on its module is the one that runs."""
    if mode == "bde":
        return bde
    if mode == "fde":
        return fde
    raise ValueError(f"unknown mode {mode!r}")
