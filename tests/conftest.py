import os
import shlex
import shutil
from fractions import Fraction

from hypothesis import settings

from odelump import (OdeSystem, Partition, Polynomial, monomial,
                     parse_expression, to_polynomial)
from odelump.parsing import _Parser

# Tests that leave max_examples unset take it from the profile that
# HYPOTHESIS_PROFILE names: "default" keeps hypothesis' own count, "ci" runs
# ten times as many examples.
settings.register_profile("default", max_examples=100)
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

NAMES3 = ("x1", "x2", "x3")

EQ1_TEXT = """\
begin model
begin init
  x1 = 1
  x2 = {i2}
  x3 = {i3}
end init
begin ode
  d(x1) = -x1
  d(x2) = {k1}*x1 - x2
  d(x3) = {k2}*x1 - x3
end ode
{extra}end model
"""


def polynomial_of(text: str, names) -> Polynomial:
    """The polynomial an expression over ``names`` lowers to; the text must
    lower."""
    poly = to_polynomial(parse_expression(text, names))
    assert poly is not None, text
    return poly


def cascade(k1=1, k2=1, init=(1, 0, 0), observables=None) -> OdeSystem:
    """Three-variable test system: x1 decays, x2 and x3 are fed by x1."""
    drifts = (
        polynomial_of("-x1", NAMES3),
        polynomial_of(f"{k1}*x1 - x2", NAMES3),
        polynomial_of(f"{k2}*x1 - x3", NAMES3),
    )
    return OdeSystem.make(NAMES3, drifts, init, observables)


def cascade_text(k1=1, k2=1, init=(1, 0, 0), extra="") -> str:
    return EQ1_TEXT.format(k1=k1, k2=k2, i2=init[1], i3=init[2], extra=extra)


def random_poly_system(rng, n, max_degree=2, coeff_range=(-3, 3),
                       max_terms=4, max_denominator=1, hidden_fde=False,
                       observables=None) -> OdeSystem:
    """Random polynomial system over n variables.  Coefficients are divided
    by a random 1..max_denominator when that exceeds 1.  With ``hidden_fde``
    every drift is a random polynomial in the block sums of a random
    partition, which is then an FDE of the system."""
    k, sums = n, None
    if hidden_fde:
        labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        hidden = Partition.one_block(n).split_by(labels.__getitem__)
        k = hidden.block_count
        sums = {b: Polynomial.sum(Polynomial.variable(v) for v in block)
                for b, block in enumerate(hidden.blocks)}
    drifts = []
    for _ in range(n):
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            coeff = rng.randint(*coeff_range)
            if max_denominator > 1:
                coeff = Fraction(coeff, rng.randint(1, max_denominator))
            exps: dict = {}
            for _ in range(rng.randint(0, max_degree)):
                v = rng.randrange(k)
                exps[v] = exps.get(v, 0) + 1
            terms.append(monomial(coeff, exps))
        drift = Polynomial(terms)
        drifts.append(drift if sums is None else drift.substitute(sums))
    names = tuple(f"x{i}" for i in range(n))
    init = [rng.randint(0, 2) for _ in range(n)]
    return OdeSystem.make(names, drifts, init, observables)


def permute_system(system: OdeSystem, perm) -> OdeSystem:
    """Relabel variable i as perm[i] (drifts, names, init and observables)."""
    n = system.n
    sigma = {i: Polynomial.variable(perm[i]) for i in range(n)}
    names = [None] * n
    drifts = [None] * n
    init = [None] * n
    for i in range(n):
        names[perm[i]] = system.names[i]
        drifts[perm[i]] = system.drifts[i].substitute(sigma)
        init[perm[i]] = system.init[i]
    obs = None
    if system.observables is not None:
        obs = frozenset(perm[i] for i in system.observables)
    return OdeSystem(tuple(names), tuple(drifts), tuple(init), obs)


def permute_partition(part: Partition, perm) -> Partition:
    return Partition([[perm[v] for v in block] for block in part.blocks])


def read_whole(text: str):
    """The document the statement read gives ``text``, which must read every
    init, drift and reaction statement as one token: a statement read token
    by token leaves an ``=`` or ``->`` token."""
    parser = _Parser(text, whole=True)
    assert "=" not in parser.kinds and "arrow" not in parser.kinds, text
    return parser.parse_model()


def solver_available() -> bool:
    cmd = os.environ.get("ODELUMP_SOLVER", "z3 -in")
    return shutil.which(shlex.split(cmd)[0]) is not None
