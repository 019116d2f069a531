"""Numerical cross-validation of the reductions on random systems.

Independent of the syntactic checks: random base systems are lifted by
cloning each variable a few times so that the role partition is an
equivalence by construction, then the partitions found by refinement are
validated against integrated trajectories.  An unsound check would surface
here as a trajectory mismatch even where refinement and enumeration agree.
"""

import random
from fractions import Fraction

from odelump import (NonFiniteState, OdeSystem, Partition, Polynomial,
                     check_bde, check_fde, coarsest_with_trace,
                     compare_reduction, integrate,
                     prepartition_from_inits, reduce_backward,
                     reduce_forward)
from conftest import polynomial_of, random_poly_system


def _lift(base: OdeSystem, copies, mode: str):
    """Expand base variable j into copies[j] clones.

    bde: every clone of j carries the base drift of j rewritten onto the
    first clones, so clones are interchangeable.  fde: every clone of j
    carries (1/copies[j]) times the base drift with each base variable
    replaced by the sum of its clones, so block sums follow the base system.
    """
    first = []
    total = 0
    for m in copies:
        first.append(total)
        total += m
    if mode == "bde":
        sigma = {i: Polynomial.variable(first[i]) for i in range(base.n)}
    else:
        sigma = {}
        for i in range(base.n):
            clone_sum = Polynomial.zero()
            for c in range(copies[i]):
                clone_sum = clone_sum + Polynomial.variable(first[i] + c)
            sigma[i] = clone_sum
    names = []
    drifts = []
    init = []
    for j in range(base.n):
        lifted = base.drifts[j].substitute(sigma)
        if mode == "fde":
            lifted = lifted.scale(Fraction(1, copies[j]))
        for c in range(copies[j]):
            names.append(f"x{j}c{c}")
            drifts.append(lifted)
            init.append(base.init[j] if mode == "bde"
                        else Fraction(base.init[j], copies[j]))
    roles = Partition([range(first[j], first[j] + copies[j])
                       for j in range(base.n)])
    return OdeSystem.make(names, drifts, init), roles


def _lifted_sample(rng, mode):
    base = random_poly_system(rng, rng.randint(2, 4))
    copies = [rng.randint(1, 3) for _ in range(base.n)]
    if all(m == 1 for m in copies):
        copies[0] = 2
    return _lift(base, copies, mode)


def test_lifted_role_partitions_pass_the_checks():
    rng = random.Random(81)
    for _ in range(40):
        for mode in ("bde", "fde"):
            system, roles = _lifted_sample(rng, mode)
            check = check_bde if mode == "bde" else check_fde
            result = check(system, roles)
            assert result.ok and result.describe(system.names) == "ok"


def test_forward_reduction_tracks_block_sums_on_lifted_systems():
    rng = random.Random(2024)
    checked = 0
    for _ in range(40):
        system, roles = _lifted_sample(rng, "fde")
        part = coarsest_with_trace(system, Partition.one_block(system.n), "fde")[0]
        assert roles.refines(part)  # at least the roles merge
        reduced = reduce_forward(system, part)
        try:
            orig = integrate(system, t_end=0.5, dt=1e-3)
            red = integrate(reduced, t_end=0.5, dt=1e-3)
        except NonFiniteState:
            continue  # quadratic drifts may blow up; not what is under test
        assert compare_reduction(orig, red, part, "fde") <= 1e-6
        checked += 1
    assert checked >= 20


def test_forward_reduction_is_the_uniform_substitution():
    """The macro drift of block B is the sum of B's drifts with every x_v
    replaced by y_b / |B_b|, b the block of v, worked out by the generic
    substitution."""
    rng = random.Random(77)
    products_in_a_block = 0
    for _ in range(60):
        system, _ = _lifted_sample(rng, "fde")
        part = coarsest_with_trace(system, Partition.one_block(system.n), "fde")[0]
        labels = part.labels
        sigma = {v: Polynomial.variable(labels[v]).scale(
            Fraction(1, len(part.blocks[labels[v]]))) for v in range(system.n)}
        expected = tuple(Polynomial.sum(system.drifts[v] for v in block).substitute(sigma)
                         for block in part.blocks)
        assert reduce_forward(system, part).drifts == expected
        merged = {v for block in part.blocks if len(block) > 1 for v in block}
        products_in_a_block += any(
            sum(e for v, e in m.exps if v in merged and labels[v] == b) >= 2
            for d in system.drifts for m in d.terms for b in {labels[v] for v, _ in m.exps})
    assert products_in_a_block >= 20


def test_backward_reduction_tracks_members_on_lifted_systems():
    rng = random.Random(2025)
    checked = 0
    for _ in range(40):
        system, roles = _lifted_sample(rng, "bde")
        # block-equal initial values are required for faithful dynamics
        seed = prepartition_from_inits(system, Partition.one_block(system.n))
        part = coarsest_with_trace(system, seed, "bde")[0]
        assert roles.refines(part) or not roles.refines(seed)
        if part.block_count == system.n:
            continue
        reduced = reduce_backward(system, part)
        try:
            orig = integrate(system, t_end=0.5, dt=1e-3)
            red = integrate(reduced, t_end=0.5, dt=1e-3)
        except NonFiniteState:
            continue
        assert compare_reduction(orig, red, part, "bde") <= 1e-9
        checked += 1
    assert checked >= 20


def test_backward_reduction_with_interleaved_blocks():
    # block {x1, x3} with x2 between the representatives: exercises the
    # representative reindexing in drifts and trajectory comparison
    names = ("x1", "x2", "x3")
    system = OdeSystem.make(
        names,
        (polynomial_of("-x1 + x2", names),
         polynomial_of("-2*x2", names),
         polynomial_of("-x3 + x2", names)),
        (Fraction(3), Fraction(1), Fraction(3)))
    part = Partition([[0, 2], [1]])
    assert coarsest_with_trace(system, part, "bde")[0] == part
    reduced = reduce_backward(system, part)
    assert reduced.names == ("x1", "x2")
    orig = integrate(system, t_end=2.0, dt=1e-3)
    red = integrate(reduced, t_end=2.0, dt=1e-3)
    assert compare_reduction(orig, red, part, "bde") <= 1e-9
    # the kept drift references the representative's new index
    assert reduced.drifts[0] == polynomial_of("-x1 + x2", ("x1", "x2"))
