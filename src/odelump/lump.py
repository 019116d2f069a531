"""Exact lumping of polynomial ODE systems.

Two equivalences over variable partitions are decided syntactically:

* backward (BDE): same-block variables have identical derivatives whenever a
  block-constant assignment is applied.  Checked by substituting every
  variable with its block representative and comparing normalized drifts;
  complete for polynomial drifts because two polynomials agree on all reals
  iff they are identical.

* forward (FDE): block sums obey a self-contained smaller system.  Checked
  through the gradient identity: with F_B the sum of the drifts of block B,
  the partition is an FDE iff dF_B/dx_i = dF_B/dx_j for every block B and
  every same-block pair (i, j).  A smooth function depends on its arguments
  only through the block sums exactly when its gradient is constant on each
  block, and for polynomials that is an identity of derivative polynomials.

Coarsest partitions are computed by signature refinement: each pass splits
every block by a canonical per-variable signature taken under the current
partition, until a pass splits nothing.  Any equivalence refining the seed
assigns equal signatures to its merged variables at every pass, so the
fixpoint is the unique coarsest partition refining the seed.

A signature is only compared and hashed, never ordered.  A bde signature is
the frozenset of its terms, which needs no sort.  An fde signature stays a
sorted tuple of ``(key, numerator)`` int pairs: on the 1e5-variable motif,
whose fde refinement signs 100,000 variables at once, frozensets raised the
``tracemalloc`` peak of its refinement from 105.7 to 120.2 MiB, for no
speed that alternating timings could resolve.  The bde table of users per variable stays a list of lists for the
same reason: sets raised the bde peak there from 27.7 to 39.9 MiB.

The refinement is splitter-driven.  A variable's bde signature sees the
partition only through the blocks of the variables its drift mentions, and,
mirroring that, its fde signature only through the blocks of the variables
whose drifts mention it.  So after a split only the users of a moved
variable (bde) and the variables a moved variable's drift mentions (fde) are
re-signed, and the refinable partition of :mod:`odelump.partition` splits
each block from those alone.  A brute-force enumeration oracle cross-checks
this on small systems.

Both reductions keep one variable y_b per block B.  The forward one is the
sum of x_v over B, its drift the block-sum drift with x_v := y_b/|B|; a
backward reduction is the same construction over each block's
representative alone, unscaled.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Optional

from .driftexpr import Bin, Const, Var, substitute_exprs, sum_exprs
from .errors import InitMismatchWarning, NoUniqueCoarsest, NotABde, NotAnFde, TooLarge
from .partition import Partition, _Refinable
from .poly import Polynomial, _fold_renamed, _sum_renamed
from .system import OdeSystem, _by_mode, _require

_BRUTE_FORCE_LIMIT = 10
_SYNTACTIC = "syntactic checks need polynomial drifts; use the solver backend"


@dataclass(frozen=True)
class CheckResult:
    """Verdict of an equivalence check.

    On failure carries the offending block, the variable pair whose
    comparison failed, the nonzero difference polynomial, and a rational
    assignment, one value per variable, making that difference nonzero.
    """

    ok: bool
    block_index: Optional[int] = None
    pair: Optional[tuple] = None
    witness_polynomial: Optional[Polynomial] = None
    witness_assignment: Optional[tuple] = None

    def describe(self, names=None) -> str:
        if self.ok:
            return "ok"
        i, j = self.pair
        ni = names[i] if names else f"x{i}"
        nj = names[j] if names else f"x{j}"
        msg = (f"counterexample: pair ({ni}, {nj}) in block {self.block_index}, "
               f"difference {self.witness_polynomial.format(names)}")
        if self.witness_assignment is not None:
            msg += f", witness point {tuple(map(str, self.witness_assignment))}"
        return msg


def _numerators(system: OdeSystem):
    """Each drift as its ``(exponent vectors, numerators)``, the numerators
    over the common denominator of all drifts: a drift whose own denominator
    differs has its numerators multiplied by one int.

    Signatures are only ever compared for equality, which one positive
    scale factor preserves, so refinement and the checks work on ints."""
    den = lcm(*[d.den for d in system.drifts])
    return [(d.exps, d.nums) if d.den == den else
            (d.exps, tuple([n * (den // d.den) for n in d.nums])) for d in system.drifts]


# -- per-variable signatures ----------------------------------------------------


class _BdeSigner:
    """bde signatures under the labelling ``labels``, which the caller updates.

    A variable's signature reads the labels of the variables its drift
    mentions, so a label change affects exactly the users of the variable."""

    def __init__(self, raw, blocks, labels):
        self.raw = raw
        self.labels = labels
        self.users = None

    def sign(self, v):
        """v's drift with every variable renamed to its block label, as the
        frozenset of its nonzero ``(exponent vector, numerator)`` terms.
        The accumulator's keys are unique, so the set holds the same items
        as the sorted tuple of them and compares equal exactly when that
        tuple does; it is built without a sort, and caches its hash."""
        acc: dict = {}
        exps, nums = self.raw[v]
        _fold_renamed(acc, exps, nums, self.labels)
        if 0 in acc.values():
            return frozenset([item for item in acc.items() if item[1]])
        return frozenset(acc.items())

    def affected(self, moves):
        if self.users is None:
            self.users = [[] for _ in self.raw]
            for v, (terms, _) in enumerate(self.raw):
                for w in {w for exps in terms for w, _ in exps}:
                    self.users[w].append(v)
        users = self.users
        return {u for _, _, part in moves for w in part for u in users[w]}


class _FdeSigner:
    """fde signatures under the labelling ``labels``, which the caller updates.

    A variable's signature is its partials of the block-sum drifts: the
    partials of every drift that mentions it, summed by the label of the
    drift's owner and by exponent vector.  So a label change affects exactly
    the variables the moved drift mentions.  Partials are taken once, for
    the members of non-singleton blocks only; each distinct exponent vector
    gets a number, so that an entry's key is the int ``label * count +
    number``.  One-variable monomials, and two-variable ones with both
    exponents 1, are differentiated directly; the rest by slicing their
    exponent vectors.  Both give the same entries in the same order."""

    def __init__(self, raw, blocks, labels):
        self.raw = raw
        self.labels = labels
        self.partials = partials = [None] * len(raw)
        for block in blocks:
            if len(block) > 1:
                for v in block:
                    partials[v] = []
        numbers: dict = {}
        number = numbers.setdefault
        for w, (terms, coeffs) in enumerate(raw):
            for exps, c in zip(terms, coeffs):
                k = len(exps)
                if k == 1:
                    (v, e), = exps
                    target = partials[v]
                    if target is not None:
                        dexps = ((v, e - 1),) if e > 1 else ()
                        target.append((w, number(dexps, len(numbers)), c * e))
                elif k == 2 and exps[0][1] == 1 == exps[1][1]:
                    first, second = exps
                    target = partials[first[0]]
                    if target is not None:
                        target.append((w, number((second,), len(numbers)), c))
                    target = partials[second[0]]
                    if target is not None:
                        target.append((w, number((first,), len(numbers)), c))
                else:
                    for pos, (v, e) in enumerate(exps):
                        target = partials[v]
                        if target is not None:
                            lowered = ((v, e - 1),) if e > 1 else ()
                            dexps = exps[:pos] + lowered + exps[pos + 1:]
                            target.append((w, number(dexps, len(numbers)), c * e))
        self.count = len(numbers)

    def sign(self, v):
        labels, count = self.labels, self.count
        acc: dict = {}
        for w, number, c in self.partials[v]:
            key = labels[w] * count + number
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
        return tuple(sorted([item for item in acc.items() if item[1]]))

    def affected(self, moves):
        raw = self.raw
        return {v for _, _, part in moves for w in part
                for exps in raw[w][0] for v, _ in exps}


def _unstable(raw, part: Partition, signer_type) -> Optional[tuple]:
    """First same-block pair ``(block, i, j)`` whose signatures differ under
    ``part``, or None if ``part`` is stable.  Only members of non-singleton
    blocks are signed."""
    signer = signer_type(raw, part.blocks, part.labels)
    for b, block in enumerate(part.blocks):
        if len(block) > 1:
            first = signer.sign(block[0])
            for j in block[1:]:
                if signer.sign(j) != first:
                    return b, block[0], j
    return None


# -- checks ---------------------------------------------------------------------


def _check(system: OdeSystem, part: Partition, signer_type, witness) -> CheckResult:
    """Stable partitions pass.  Otherwise ``witness(system, part, i, j)`` gives
    the difference polynomial for the first differing pair and, per original
    variable, the variable of that polynomial whose value it takes.

    A partition that :func:`coarsest_with_trace` returned for this very
    system object and this mode passes without signing, and without the
    guard: it was refined from a guarded seed for that frozen system, and
    the refinement stopped at it because no block split.  Identity, not
    equality: an equal system or an equal partition built elsewhere gets the
    guard and the full check."""
    stable = part._stable
    if stable is not None and stable[0] is system and stable[1] is signer_type:
        return CheckResult(True)
    _require(system, part, _SYNTACTIC)
    if part.block_count == system.n:
        return CheckResult(True)  # no same-block pair to compare
    offending = _unstable(_numerators(system), part, signer_type)
    if offending is None:
        return CheckResult(True)
    b, i, j = offending
    difference, source = witness(system, part, i, j)
    point = _nonzero_point(difference)
    assignment = tuple(point.get(w, Fraction(1)) for w in source)
    return CheckResult(False, b, (i, j), difference, assignment)


def _bde_witness(system: OdeSystem, part: Partition, i: int, j: int):
    reps = [part.blocks[b][0] for b in part.labels]
    return (_sum_renamed((system.drifts[i],), reps)
            - _sum_renamed((system.drifts[j],), reps)), reps


def _fde_witness(system: OdeSystem, part: Partition, i: int, j: int):
    for block in part.blocks:
        block_sum = Polynomial.sum(system.drifts[v] for v in block)
        difference = block_sum.partial(i) - block_sum.partial(j)
        if difference:
            return difference, range(system.n)
    raise AssertionError("signature mismatch without differing partials")


def check_bde(system: OdeSystem, part: Partition) -> CheckResult:
    """Backward check: drifts must coincide after substituting every variable
    by its block representative (minimum index).

    A bde partition that :func:`coarsest_with_trace` returned for ``system``
    passes without work."""
    return _check(system, part, _BdeSigner, _bde_witness)


def check_fde(system: OdeSystem, part: Partition) -> CheckResult:
    """Forward check via the gradient identity on block-sum drifts.

    An fde partition that :func:`coarsest_with_trace` returned for ``system``
    passes without work."""
    return _check(system, part, _FdeSigner, _fde_witness)


# -- coarsest partitions ----------------------------------------------------------


def _refine(raw, seed: Partition, signer_type):
    """Splitter-driven refinement; returns the partition and the block count
    at the start of every pass.

    Each pass splits every block by the signatures its members have under the
    current partition, exactly as re-signing every variable would, but signs
    only members of non-singleton blocks, after the first pass only those the
    last pass's moves can affect: :meth:`_Refinable.split` keeps a block's
    label on its members that are not re-signed.

    ``signer_type(raw, members, labels)`` gives the mode's signer over the
    live members and labels: ``sign(v)`` is v's signature, and
    ``affected(moves)`` returns the variables whose signature the
    ``(old label, new label, members)`` moves of a pass can change.
    """
    part = _Refinable(seed)
    signer = signer_type(raw, part.members, part.labels)
    pending = [v for block in seed.blocks if len(block) > 1 for v in block]
    trace = []
    while True:
        trace.append(len(part.members))
        moves = part.split(pending, signer.sign)
        if not moves:
            return Partition(part.members), trace
        # With only singletons left, the next pass just confirms.
        pending = [v for v in signer.affected(moves)
                   if len(part.members[part.labels[v]]) > 1] if part.wide else ()


def coarsest_with_trace(system: OdeSystem, seed: Partition, mode: str):
    """Coarsest ``mode`` partition refining ``seed``, with the refinement trace.

    The trace holds one entry per refinement pass: the number of blocks the
    pass started from.  It increases strictly, and its last entry, from the
    pass that split nothing, is the block count of the result.

    The result is a new partition that carries the proof of its stability,
    so :func:`check_bde`/:func:`check_fde` and the reducers of this mode pass
    it for ``system`` without signing again.
    """
    signer_type = _by_mode(mode, _BdeSigner, _FdeSigner)
    _require(system, seed, _SYNTACTIC)
    part, trace = _refine(_numerators(system), seed, signer_type)
    part._stable = (system, signer_type)
    return part, trace


# -- reduced models -----------------------------------------------------------------


def _reduce(system: OdeSystem, part: Partition, check, failure, lumping) -> OdeSystem:
    """The reduction of both modes.  A polynomial system must pass ``check``,
    else ``failure`` is raised, and an all-singleton ``part`` returns it.
    ``lumping(system, part)`` gives the reduced names, per block the members
    whose drifts and initial values y_b sums, and per block the d_b of the
    substitution x_v := y_b/d_b (None: all 1).  ``check`` guards a
    polynomial system; this guards any other input."""
    polynomial = isinstance(system, OdeSystem) and system.is_polynomial
    if polynomial:
        result = check(system, part)
        if not result.ok:
            raise failure(result, system.names)
        if part.block_count == system.n:
            return system
    else:
        _require(system, part)
    names, members, sizes = lumping(system, part)
    labels, x0 = part.labels, system.init
    # A one-member sum is read directly: bde blocks then build no generator.
    init = tuple(x0[block[0]] if len(block) == 1 else
                 sum((x0[v] for v in block[1:]), x0[block[0]]) for block in members)
    obs = None if system.observables is None else \
        frozenset(labels[v] for v in system.observables)
    if polynomial:
        drifts = [_sum_renamed((system.drifts[v] for v in block), labels, sizes)
                  for block in members]
    else:
        sigma = {v: Var(b) if sizes is None else
                 Bin("mul", Const(Fraction(1, sizes[b])), Var(b))
                 for v, b in enumerate(labels)}
        drifts = [sum_exprs(substitute_exprs(system.drifts[v], sigma) for v in block)
                  for block in members]
    return OdeSystem(names, tuple(drifts), init, obs)


def _forward_lumping(system: OdeSystem, part: Partition):
    """Names joined by "_" (unique by appending "_"); each whole block, over its size."""
    names: dict = {}
    for block in part.blocks:
        name = "_".join(system.names[v] for v in block)
        while name in names:
            name += "_"
        names[name] = None
    return tuple(names), part.blocks, [len(block) for block in part.blocks]


def _backward_lumping(system: OdeSystem, part: Partition):
    """Representatives' names; each representative alone, undivided.  Warns
    of each block with unequal initial values."""
    init = system.init
    for block in part.blocks:
        # int pairs, not Fractions, whose hash is computed in Python
        inits = {(init[v].numerator, init[v].denominator) for v in block}
        if len(inits) > 1:
            members = ", ".join(system.names[v] for v in block)
            values = sorted(Fraction(p, q) for p, q in inits)
            warnings.warn(InitMismatchWarning(
                f"block {{{members}}} has unequal initial values {values}; "
                "the reduced model does not preserve the original dynamics"))
    return (tuple(system.names[block[0]] for block in part.blocks),
            [block[:1] for block in part.blocks], None)


def reduce_forward(system: OdeSystem, part: Partition) -> OdeSystem:
    """One macro-variable per block, carrying the block sum.

    The macro drift is the block-sum drift with every original variable
    replaced by macro/|block|; when the partition is an FDE any block-sum
    preserving replacement gives the same function, and the uniform one keeps
    coefficients rational.  Macro initial values are block sums of the
    original ones.  Polynomial systems are checked first with
    :func:`check_fde`, which costs nothing for an fde partition that
    :func:`coarsest_with_trace` returned for ``system``, and one whose
    partition is all singletons comes back as the same object; for
    expression drifts the caller is responsible for having verified the
    partition (normally through the solver loop).
    """
    return _reduce(system, part, check_fde, NotAnFde, _forward_lumping)


def reduce_backward(system: OdeSystem, part: Partition) -> OdeSystem:
    """Keep one representative (minimum index) per block and rewrite every
    occurrence of the other members to it.

    Polynomial systems are checked first with :func:`check_bde`, which
    costs nothing for a bde partition that :func:`coarsest_with_trace`
    returned for ``system``, and one whose partition is all singletons comes
    back as the same object.  Warns with
    :class:`InitMismatchWarning` when a block has unequal initial values, in
    which case the reduced dynamics do not reproduce the original.
    """
    return _reduce(system, part, check_bde, NotABde, _backward_lumping)


def prepartition_from_inits(system: OdeSystem, seed: Partition) -> Partition:
    """Refine ``seed`` by exact equality of initial values; observables are
    additionally isolated into singleton blocks."""
    _require(system, seed)
    obs = system.observables or frozenset()
    # ints, not a Fraction, whose hash is computed in Python
    keys = [(value.numerator, value.denominator, v if v in obs else -1)
            for v, value in enumerate(system.init)]
    return seed.split_by(keys.__getitem__)


# -- brute-force oracle ---------------------------------------------------------------


def _set_partitions(elems):
    if not elems:
        yield []
        return
    head = elems[0]
    for sub in _set_partitions(elems[1:]):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + [head]] + sub[i + 1:]
        yield [[head]] + sub


def brute_force_coarsest(system: OdeSystem, seed: Partition, mode: str) -> Partition:
    """Independent oracle: enumerate every partition refining ``seed``, filter
    by the equivalence check, and return the unique coarsest survivor.

    Guarded to n <= 10 (Bell-number growth).  Raises
    :class:`NoUniqueCoarsest` if the survivors have no maximum element.
    """
    signer_type = _by_mode(mode, _BdeSigner, _FdeSigner)
    # The oracle has no solver fallback, so its message gives no advice.
    _require(system, seed, "the brute-force oracle needs polynomial drifts")
    if system.n > _BRUTE_FORCE_LIMIT:
        raise TooLarge(system.n, _BRUTE_FORCE_LIMIT)

    raw = _numerators(system)
    per_block = [list(_set_partitions(list(block))) for block in seed.blocks]
    passing = []
    for combo in product(*per_block):
        candidate = Partition(b for sub in combo for b in sub)
        if _unstable(raw, candidate, signer_type) is None:
            passing.append(candidate)

    fewest = min(p.block_count for p in passing)
    for candidate in passing:
        if candidate.block_count == fewest and \
                all(p.refines(candidate) for p in passing):
            return candidate
    raise NoUniqueCoarsest(f"{mode} survivors have no unique coarsest element")


# -- numeric witnesses -------------------------------------------------------------------


def _nonzero_point(p: Polynomial) -> Optional[dict]:
    """A point of positive integers where ``p`` is nonzero, as variable ->
    Fraction over the variables of ``p``; None if ``p`` is zero.

    The variables are fixed in ascending order, each to the smallest t in
    1..deg+1 that leaves ``p`` nonzero, with deg its degree in ``p`` so far.
    A nonzero polynomial of degree deg in v vanishes identically at no more
    than deg values of v, so some t works and the search always succeeds.
    It stops as soon as ``p`` is nonzero with every remaining variable at 1,
    the values it would pick next.  The result is the lexicographically first
    point where ``p`` is nonzero of the grid that gives each variable the
    values 1..d+1, with d its degree in the original ``p``.
    """
    if not p:
        return None
    variables = sorted(p.variables())
    point = dict.fromkeys(variables, Fraction(1))
    for v in variables:
        if p.eval(point):
            break
        degree = max((e for exps in p.exps for w, e in exps if w == v), default=0)
        for t in range(1, degree + 2):
            fixed = p.substitute({v: Polynomial.constant(t)})
            if fixed:
                break
        point[v] = Fraction(t)
        p = fixed
    return point
