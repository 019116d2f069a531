"""Refinement gives exactly what it gave with sorted-tuple bde signatures.

Test-local copies keep the earlier forms: ``_BdeSigner`` with its signature
as the sorted tuple of the nonzero terms, ``_Refinable.split`` grouping by
block with ``setdefault``, and ``prepartition_from_inits`` with a key
function.  A lockstep copy of ``lump._refine`` runs the package's refinable
partition and signer beside the copies, and after every pass compares the
moves, the labels, the members, the keys each block was formed with (a bde
key as the set of its terms) and the count of wide blocks.  Its result and
trace must also be those of ``coarsest_with_trace``.  Inputs: the random
systems of ``test_refined_partitions_pass_the_full_check``, the golden
models, the benchmark's families at their tiny sizes, and the family A(k) of
ROADMAP item 2 with its transpose."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odelump import (OdeSystem, Partition, Polynomial, ReactionNetwork,
                     coarsest_with_trace, parse_model, prepartition_from_inits, rn_to_ode)
from odelump import lump
from odelump.partition import _Refinable
from odelump.poly import _fold_renamed
from test_lump import _refinable_system

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.ode"))


# -- the earlier forms ------------------------------------------------------------


class _TupleBdeSigner(lump._BdeSigner):
    def sign(self, v):
        acc: dict = {}
        exps, nums = self.raw[v]
        _fold_renamed(acc, exps, nums, self.labels)
        return tuple(sorted([item for item in acc.items() if item[1]]))


class _SetdefaultRefinable(_Refinable):
    def split(self, elements, key) -> list:
        labels, members, formed = self.labels, self.members, self.formed
        by_block: dict = {}
        for v in elements:
            by_block.setdefault(labels[v], []).append(v)
        moves = []
        for b, given in by_block.items():
            groups: dict = {}
            for v in given:
                groups.setdefault(key(v), []).append(v)
            block = members[b]
            if len(given) < len(block):
                groups.pop(formed[b], None)
                if groups and type(block) is not set:
                    block = members[b] = set(block)
                for part in groups.values():
                    block.difference_update(part)
            else:
                kept = formed[b] = max(groups, key=lambda k: len(groups[k]))
                block = members[b] = groups.pop(kept)
            if not groups:
                continue
            self.wide += (len(block) > 1) - 1 + sum(len(part) > 1 for part in groups.values())
            moves.extend((b, new, part)
                         for new, part in enumerate(groups.values(), len(members)))
            members.extend(groups.values())
            formed.extend(groups)
        for _, new, part in moves:
            for v in part:
                labels[v] = new
        return moves


def _keyed_prepartition(system, seed):
    obs = system.observables or frozenset()
    init = system.init

    def key(v):
        value = init[v]
        return value.numerator, value.denominator, v if v in obs else -1

    refinable = _SetdefaultRefinable(seed)
    if not refinable.split(range(seed.size), key):
        return seed
    return Partition(refinable.members)


# -- lockstep refinement ------------------------------------------------------------


def _pending(signer, part, moves):
    return [v for v in signer.affected(moves)
            if len(part.members[part.labels[v]]) > 1] if part.wide else ()


def _items(key):
    """A bde signature as the set of its terms; None stays None."""
    return None if key is None else frozenset(key)


def _lockstep(system, seed, mode):
    """``lump._refine`` with the package's forms and the earlier ones side by
    side; both states must agree after every pass."""
    raw = lump._numerators(system)
    signer_type, earlier_type = {"bde": (lump._BdeSigner, _TupleBdeSigner),
                                 "fde": (lump._FdeSigner, lump._FdeSigner)}[mode]
    part, earlier = _Refinable(seed), _SetdefaultRefinable(seed)
    signer = signer_type(raw, part.members, part.labels)
    earlier_signer = earlier_type(raw, earlier.members, earlier.labels)
    pending = [v for block in seed.blocks if len(block) > 1 for v in block]
    trace = []
    while True:
        trace.append(len(part.members))
        moves = part.split(pending, signer.sign)
        assert moves == earlier.split(pending, earlier_signer.sign)
        assert part.labels == earlier.labels
        assert part.members == earlier.members
        assert part.wide == earlier.wide
        if mode == "fde":
            assert part.formed == earlier.formed
        else:
            assert list(map(_items, part.formed)) == list(map(_items, earlier.formed))
        if not moves:
            return Partition(part.members), trace
        pending = _pending(signer, part, moves)
        assert list(pending) == list(_pending(earlier_signer, earlier, moves))


def _agrees(system, seeds):
    for seed in seeds:
        for mode in ("bde", "fde"):
            expected = _lockstep(system, seed, mode)
            assert coarsest_with_trace(system, seed, mode) == expected


def _seeds(system, rng=None):
    """One block, from the initial values (as the earlier prepartition gives
    it), all singletons and, with ``rng``, random labels over three values."""
    one = Partition.one_block(system.n)
    from_init = prepartition_from_inits(system, one)
    assert from_init == _keyed_prepartition(system, one)
    seeds = [one, from_init, Partition.singletons(system.n)]
    if rng is not None:
        labels = [rng.randrange(3) for _ in range(system.n)]
        seeds.append(one.split_by(labels.__getitem__))
    return seeds


@settings(deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_systems_refine_as_before(rng):
    system = _refinable_system(rng)
    _agrees(system, _seeds(system, rng))


def _polynomial_system(path):
    doc = parse_model(path.read_text())
    system = doc.system
    if isinstance(system, ReactionNetwork):
        system = rn_to_ode(system)
    if not system.is_polynomial:
        return None, None
    return system, doc.user_partition


# expression drifts are refined by the solver loop, not by signatures
POLYNOMIAL = [path for path in GOLDEN if _polynomial_system(path)[0] is not None]


@pytest.mark.parametrize("path", POLYNOMIAL, ids=[p.stem for p in POLYNOMIAL])
def test_golden_models_refine_as_before(path):
    system, user = _polynomial_system(path)
    seeds = _seeds(system)
    if user is not None:
        seeds.append(user)
        from_user = prepartition_from_inits(system, user)
        assert from_user == _keyed_prepartition(system, user)
        seeds.append(from_user)
    _agrees(system, seeds)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["motif", "chain", "sites"])
def test_benchmark_families_refine_as_before(workload):
    family = _workloads().make(workload, 7, "tiny")
    system = parse_model(family.text()).system
    if isinstance(system, ReactionNetwork):
        system = rn_to_ode(system)
    _agrees(system, _seeds(system, random.Random(7)))


def family_a(k, transpose=False):
    """ROADMAP item 2's A(k): a chain c_0..c_{k+1}, d(r) = r, probes
    d(t_j) = c_{k+2-j} and d(u_j) = r, and d(b_i) = t_1 + ... + t_{i-1} +
    u_i + ... + u_k; init 2, except 1 for the b's.  Its transpose gives d(y)
    the term x for every term y of d(x)."""
    c = [f"c{m}" for m in range(k + 2)]
    t = [f"t{j}" for j in range(1, k + 1)]
    u = [f"u{j}" for j in range(1, k + 1)]
    b = [f"b{i}" for i in range(1, k + 1)]
    names = c + ["r"] + t + u + b
    index = {name: v for v, name in enumerate(names)}
    terms = {name: [] for name in names}
    for m in range(k + 1):
        terms[c[m]].append(c[m + 1])
    terms["r"].append("r")
    for j in range(1, k + 1):
        terms[t[j - 1]].append(c[k + 2 - j])
        terms[u[j - 1]].append("r")
    for i in range(1, k + 1):
        terms[b[i - 1]] = t[:i - 1] + u[i - 1:]
    if transpose:
        flipped = {name: [] for name in names}
        for x, ys in terms.items():
            for y in ys:
                flipped[y].append(x)
        terms = flipped
    drifts = [Polynomial.sum(Polynomial.variable(index[y]) for y in terms[x]) for x in names]
    init = [Fraction(1) if x in b else Fraction(2) for x in names]
    return OdeSystem.make(names, drifts, init)


@pytest.mark.parametrize("transpose", [False, True], ids=["A", "transpose"])
@pytest.mark.parametrize("k", range(1, 7))
def test_family_a_refines_as_before(k, transpose):
    system = family_a(k, transpose)
    _agrees(system, _seeds(system))
    # the probes split off one per pass: k + 3 passes from the initial values
    seed = prepartition_from_inits(system, Partition.one_block(system.n))
    assert len(coarsest_with_trace(system, seed, "fde" if transpose else "bde")[1]) == k + 3
