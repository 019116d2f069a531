import random
import time
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odelump import (InitMismatchWarning, NonPolynomialDrift, NotABde,
                     NotAnFde, OdeSystem, Partition, PartitionMismatch,
                     Polynomial, TooLarge, brute_force_coarsest, check_bde,
                     check_fde, coarsest_with_trace, compare_reduction, drift_eval,
                     integrate, monomial, parse_model,
                     phi_variable_names,
                     prepartition_from_inits,
                     reduce_backward, reduce_forward,
                     symbolic_coarsest_with_trace)
from odelump import lump
from odelump.cli import main
from odelump.lump import _BdeSigner, _nonzero_point
from odelump.smt import phi_script
from conftest import (cascade, permute_partition, permute_system,
                      polynomial_of, random_poly_system)

H_SPLIT = Partition([[0], [1, 2]])
H_ONE = Partition.one_block(3)
NAMES = ("x1", "x2", "x3")


# -- backward check -----------------------------------------------------------


def test_bde_holds_with_equal_rates():
    assert check_bde(cascade(k1=1, k2=1), H_SPLIT).ok


def test_bde_fails_with_unequal_rates():
    result = check_bde(cascade(k1=1, k2=2), H_SPLIT)
    assert not result.ok
    assert result.pair == (1, 2)
    assert result.block_index == 1
    assert result.witness_polynomial == polynomial_of("-x1", NAMES)
    # the witness assignment really separates the drifts
    system = cascade(k1=1, k2=2)
    point = result.witness_assignment
    assert system.drift_value(1, point) != system.drift_value(2, point)


def test_bde_singleton_partition_trivially_ok():
    assert check_bde(cascade(k1=3, k2=7), Partition.singletons(3)).ok


# -- forward check ----------------------------------------------------------------


def test_fde_holds_for_any_rates():
    assert check_fde(cascade(k1=1, k2=1), H_SPLIT).ok
    assert check_fde(cascade(k1=2, k2=3), H_SPLIT).ok
    assert check_fde(cascade(k1=-1, k2=5), H_SPLIT).ok


def test_fde_fails_on_one_block():
    result = check_fde(cascade(k1=1, k2=1), H_ONE)
    assert not result.ok
    assert result.pair == (0, 1)
    # gradient gap of F = (k1+k2-1)x1 - x2 - x3 between x1 and x2 is 1-(-1) = 2
    assert result.witness_polynomial == Polynomial.constant(2)


def test_fde_singleton_partition_trivially_ok():
    assert check_fde(cascade(k1=4, k2=9), Partition.singletons(3)).ok


# -- coarsest by refinement ----------------------------------------------------------


def test_coarsest_bde_from_one_block():
    assert coarsest_with_trace(cascade(k1=1, k2=1), H_ONE, "bde")[0] == H_SPLIT


def test_coarsest_bde_unequal_rates_fully_splits():
    assert coarsest_with_trace(cascade(k1=1, k2=2), H_ONE, "bde")[0] == \
        Partition.singletons(3)


def test_coarsest_from_singletons_is_identity():
    seed = Partition.singletons(3)
    assert coarsest_with_trace(cascade(), seed, "bde")[0] == seed
    assert coarsest_with_trace(cascade(), seed, "fde")[0] == seed


def test_coarsest_fde_from_one_block():
    assert coarsest_with_trace(cascade(k1=1, k2=1), H_ONE, "fde")[0] == H_SPLIT


def test_coarsest_fde_fixpoint_unchanged():
    assert coarsest_with_trace(cascade(k1=2, k2=3), H_SPLIT, "fde")[0] == H_SPLIT


def test_all_zero_drifts_keep_one_block():
    system = OdeSystem.make(NAMES, tuple(Polynomial.zero() for _ in NAMES), (0, 0, 0))
    assert coarsest_with_trace(system, H_ONE, "bde")[0] == H_ONE
    assert coarsest_with_trace(system, H_ONE, "fde")[0] == H_ONE


def test_refinement_trace_is_strictly_monotone():
    rng = random.Random(21)
    for _ in range(40):
        system = random_poly_system(rng, rng.randint(2, 6))
        for mode in ("bde", "fde"):
            part, trace = coarsest_with_trace(system, Partition.one_block(system.n), mode)
            assert all(b < a for b, a in zip(trace, trace[1:]))
            assert len(trace) <= system.n
            assert trace[-1] == part.block_count


def test_coarsest_results_are_sound_and_refine_seed():
    rng = random.Random(33)
    for _ in range(40):
        system = random_poly_system(rng, rng.randint(2, 6))
        seed = Partition.one_block(system.n)
        bde = coarsest_with_trace(system, seed, "bde")[0]
        fde = coarsest_with_trace(system, seed, "fde")[0]
        # Copies without the stability proof, so the checks really sign.
        assert check_bde(system, Partition(bde.blocks)).ok
        assert check_fde(system, Partition(fde.blocks)).ok
        assert bde.refines(seed)
        assert fde.refines(seed)


def test_oracle_agreement_sample():
    rng = random.Random(101)
    for _ in range(25):
        system = random_poly_system(rng, rng.randint(2, 5))
        seed = Partition.one_block(system.n)
        for mode in ("bde", "fde"):
            assert coarsest_with_trace(system, seed, mode)[0] == \
                brute_force_coarsest(system, seed, mode)


# -- deep refinement ---------------------------------------------------------------


def interleaved_chains(rates, init):
    """Two copies x, y of the chain x0' = -2 a0 x0, x_i' = a_i x_{i-1} - a_i x_i,
    declared x0, y0, x1, y1, ...  Each copy peels off one position per
    refinement pass, so the result is the pairs {x_i, y_i} after about as
    many passes as there are positions."""
    drifts = []
    for i, a in enumerate(rates):
        for v in (2 * i, 2 * i + 1):
            terms = [monomial(-2 * a, {v: 1})] if i == 0 else \
                [monomial(a, {v - 2: 1}), monomial(-a, {v: 1})]
            drifts.append(Polynomial(terms))
    names = tuple(f"{c}{i}" for i in range(len(rates)) for c in "xy")
    return OdeSystem.make(names, tuple(drifts), [x for x in init for _ in "xy"])


def _seeds(rng, system, groups):
    """One-block, from-init and random-label seeds; ``groups`` lists the
    variables that share a random label."""
    labels = [0] * system.n
    for group in groups:
        label = rng.randrange(3)
        for v in group:
            labels[v] = label
    one = Partition.one_block(system.n)
    return (one, prepartition_from_inits(system, one),
            one.split_by(labels.__getitem__))


def _full_passes(system, seed, mode):
    """Reference refinement from public polynomial operations: every pass
    re-signs every variable under the current partition."""
    part, trace = seed, []
    while True:
        trace.append(part.block_count)
        if mode == "bde":
            reps = {v: block[0] for block in part.blocks for v in block}
            sigma = {v: Polynomial.variable(r) for v, r in reps.items()}
            drifts = [d.substitute(sigma) for d in system.drifts]

            def signature(v):
                return drifts[v]
        else:
            sums = [Polynomial.sum(system.drifts[v] for v in block)
                    for block in part.blocks]

            def signature(v):
                return tuple(s.partial(v) for s in sums)
        groups: dict = {}
        for b, block in enumerate(part.blocks):
            for v in block:
                groups.setdefault((b, signature(v)), []).append(v)
        if len(groups) == part.block_count:
            return part, trace
        part = Partition(groups.values())


def _check_refinement(system, seed, mode, known=None):
    part, trace = coarsest_with_trace(system, seed, mode)
    assert (part, trace) == _full_passes(system, seed, mode)
    assert all(a < b for a, b in zip(trace, trace[1:]))
    assert trace[-1] == part.block_count
    assert part.refines(seed)
    # The oracle enumerates every partition refining the seed; a one-block
    # seed on 9 or 10 variables takes seconds per call (Bell numbers), so
    # only split seeds go to the oracle there.
    if system.n <= 8 or (system.n <= 10 and seed.block_count > 1):
        assert part == brute_force_coarsest(system, seed, mode)
    else:
        check = check_bde if mode == "bde" else check_fde
        assert check(system, Partition(part.blocks)).ok
        if known is not None:
            assert part == known
    return trace


def test_deep_refinement_on_interleaved_chains():
    rng = random.Random(2024)
    deepest = 0
    for _ in range(40):
        length = rng.choice((2, 3, 4, 5, rng.randint(6, 40)))
        rates = [Fraction(rng.choice((2, 3, 5, 7)), 4) for _ in range(length)]
        system = interleaved_chains(rates, [rng.randint(0, 1) for _ in range(length)])
        pairs = Partition([[2 * i, 2 * i + 1] for i in range(length)])
        for seed in _seeds(rng, system, pairs.blocks):
            for mode in ("bde", "fde"):
                trace = _check_refinement(system, seed, mode, known=pairs)
                deepest = max(deepest, len(trace))
    assert deepest > 20


def test_deep_refinement_on_random_systems():
    # With max_denominator 4 the drifts have different denominators, so they
    # reach the signers scaled to one common denominator.
    for rng_seed, max_denominator in ((77, 1), (78, 4)):
        rng = random.Random(rng_seed)
        for _ in range(120):
            n = rng.randint(2, 12)
            system = random_poly_system(rng, n, max_degree=3, max_denominator=max_denominator,
                                        coeff_range=rng.choice(((-3, 3), (0, 2), (-1, 1))))
            for seed in _seeds(rng, system, [[v] for v in range(n)]):
                for mode in ("bde", "fde"):
                    _check_refinement(system, seed, mode)


def test_resigned_variable_with_unchanged_signature_stays():
    # Seed {w, w', z1, z2, z3}, {u1, u2}.  Pass 1 moves w and w' out of the
    # first block; u2 is re-signed in pass 2 because it meets them, but its
    # terms in w and w' cancel, so it must stay with u1.
    names = ("w", "w2", "z1", "z2", "z3", "u1", "u2")
    seed = Partition([[0, 1, 2, 3, 4], [5, 6]])
    expected = Partition([[0, 1], [2, 3, 4], [5, 6]])
    bde = ("-w", "-w2", "0", "0", "0", "0", "w - w2")
    fde = ("u2", "-u2", "0", "0", "0", "w + w2", "0")
    for mode, texts in (("bde", bde), ("fde", fde)):
        system = OdeSystem.make(names, tuple(polynomial_of(t, names) for t in texts),
                                (0,) * len(names))
        assert coarsest_with_trace(system, seed, mode) == (expected, [2, 3])
        assert brute_force_coarsest(system, seed, mode) == expected


def test_fde_partials_carry_the_exponent():
    # The block sum a^2 + 2ab + b^2 has equal partials 2a + 2b; without the
    # exponent of a^2 and b^2 they would read a + 2b and 2a + b.
    names = ("a", "b")
    system = OdeSystem.make(names, (polynomial_of("a*a + b*b", names),
                                    polynomial_of("2*a*b", names)), (0, 0))
    one = Partition.one_block(2)
    assert coarsest_with_trace(system, one, "fde") == (one, [1])
    assert check_fde(system, one).ok


def _folded_signature(drift, labels):
    """Reference bde signature: every monomial's exponents folded by label
    through a dict, as the general branch of _BdeSigner.sign does."""
    acc: dict = {}
    for exps, c in zip(*drift):
        folded: dict = {}
        for v, e in exps:
            folded[labels[v]] = folded.get(labels[v], 0) + e
        key = tuple(sorted(folded.items()))
        acc[key] = acc.get(key, 0) + c
    return tuple(sorted((k, c) for k, c in acc.items() if c != 0))


# Canonical exponent vectors of up to three variables out of six, exponents
# >= 1; three labels make both variables of a pair share a block often.
_exponent_vectors = st.dictionaries(st.integers(0, 5), st.integers(1, 3), max_size=3) \
    .map(lambda exps: tuple(sorted(exps.items())))


@given(st.dictionaries(_exponent_vectors, st.integers(-3, 3).filter(bool), max_size=6),
       st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_bde_signature_matches_the_general_fold(terms, labels):
    drift = (tuple(terms), tuple(terms.values()))
    signer = _BdeSigner([drift], None, labels)
    assert signer.sign(0) == frozenset(_folded_signature(drift, labels))


def _sliced_partials(raw, blocks):
    """Reference fde partial entries: every term's partial in every variable
    by slicing its exponent vector, for the members of non-singleton blocks
    only, with exponent vectors numbered in order of first use."""
    partials = [None] * len(raw)
    for block in blocks:
        if len(block) > 1:
            for v in block:
                partials[v] = []
    numbers: dict = {}
    for w, (terms, coeffs) in enumerate(raw):
        for exps, c in zip(terms, coeffs):
            for pos, (v, e) in enumerate(exps):
                if partials[v] is not None:
                    lowered = ((v, e - 1),) if e > 1 else ()
                    dexps = exps[:pos] + lowered + exps[pos + 1:]
                    partials[v].append((w, numbers.setdefault(dexps, len(numbers)), c * e))
    return partials, len(numbers)


@given(st.lists(st.dictionaries(_exponent_vectors, st.integers(-3, 3).filter(bool),
                                max_size=6), min_size=6, max_size=6),
       st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_fde_partials_match_the_sliced_formula(drifts, labels):
    """Squares, three-variable monomials and members of singleton blocks
    (four labels over six variables leave some) take the general branch or
    none; one-variable and two-variable linear monomials take the direct
    ones.  Entries, and the numbering of exponent vectors, must agree."""
    raw = [(tuple(terms), tuple(terms.values())) for terms in drifts]
    part = Partition.one_block(6).split_by(labels.__getitem__)
    signer = lump._FdeSigner(raw, part.blocks, part.labels)
    assert (signer.partials, signer.count) == _sliced_partials(raw, part.blocks)


def test_refinement_scales_to_long_chains():
    n = 2000
    drifts = [Polynomial([monomial(-2, {0: 1})])]
    drifts += [Polynomial([monomial(1, {i - 1: 1}), monomial(-1, {i: 1})])
               for i in range(1, n)]
    system = OdeSystem.make(tuple(f"x{i}" for i in range(n)), tuple(drifts), (0,) * n)
    seed = Partition.one_block(n)
    for mode in ("bde", "fde"):
        started = time.perf_counter()
        part = coarsest_with_trace(system, seed, mode)[0]
        assert time.perf_counter() - started < 2.0
        assert part == Partition.singletons(n)


def test_permutation_equivariance():
    rng = random.Random(55)
    for _ in range(25):
        system = random_poly_system(rng, rng.randint(2, 6))
        perm = list(range(system.n))
        rng.shuffle(perm)
        shuffled = permute_system(system, perm)
        seed = Partition.one_block(system.n)
        for mode in ("bde", "fde"):
            assert coarsest_with_trace(shuffled, seed, mode)[0] == \
                permute_partition(coarsest_with_trace(system, seed, mode)[0], perm)


def test_normalization_invariance():
    # same drifts written with split and reordered monomials
    plain = cascade(k1=2, k2=3)
    messy_drift = Polynomial([
        monomial(1, {0: 1}), monomial(-1, {1: 1}), monomial(1, {0: 1}),
    ])
    messy = OdeSystem.make(NAMES, (plain.drifts[0], messy_drift, plain.drifts[2]),
                           plain.init)
    rebuilt = cascade(k1=2, k2=3)
    assert messy == rebuilt
    assert check_fde(messy, H_SPLIT).ok == check_fde(rebuilt, H_SPLIT).ok
    assert coarsest_with_trace(messy, H_ONE, "bde")[0] == \
        coarsest_with_trace(rebuilt, H_ONE, "bde")[0]


# -- reductions --------------------------------------------------------------------------


def test_reduce_forward_cascade():
    system = cascade(k1=2, k2=3, init=(1, Fraction(1, 2), Fraction(1, 2)))
    reduced = reduce_forward(system, H_SPLIT)
    assert reduced.names == ("x1", "x2_x3")
    assert reduced.drifts[0] == polynomial_of("-x1", reduced.names)
    assert reduced.drifts[1] == polynomial_of("5*x1 - x2_x3", reduced.names)
    assert reduced.init == (Fraction(1), Fraction(1))


def test_reduce_forward_singletons_is_isomorphic():
    system = cascade(k1=2, k2=3, observables={0, 2})
    reduced = reduce_forward(system, Partition.singletons(3))
    assert reduced.names == system.names
    assert reduced.drifts == system.drifts
    assert reduced.init == system.init
    assert reduced.observables == system.observables


def _rational_system(rng):
    """Random system with n <= 10 variables, degree <= 3 and coefficients
    p/q, q <= 4.  Half of them hide an FDE, which a random extra term may
    break on one variable, so many coarsest fde results lump something."""
    n = rng.randint(1, 10)
    observables = rng.sample(range(n), min(n, 2)) if rng.random() < 0.5 else None
    system = random_poly_system(rng, n, max_degree=3, max_terms=3,
                                max_denominator=4, hidden_fde=rng.random() < 0.5,
                                observables=observables)
    if rng.random() < 0.5:
        v = rng.randrange(n)
        extra = random_poly_system(rng, n, max_degree=3, max_terms=1,
                                   max_denominator=4).drifts[v]
        drifts = list(system.drifts)
        drifts[v] = drifts[v] + extra
        system = OdeSystem.make(system.names, drifts, system.init, observables)
    return system


def _reference_forward(system, part):
    """reduce_forward composed from public operations: sum each block's
    drifts, rename by the labels, divide each term by prod(size**e)."""
    labels = part.labels
    sizes = [len(block) for block in part.blocks]
    names, drifts, taken = [], [], set()
    for block in part.blocks:
        name = "_".join(system.names[v] for v in block)
        while name in taken:
            name += "_"
        taken.add(name)
        names.append(name)
        renamed = Polynomial.sum(system.drifts[v] for v in block) \
            .substitute({v: Polynomial.variable(b) for v, b in enumerate(labels)})
        drifts.append(Polynomial(
            monomial(m.coeff / prod(sizes[b] ** e for b, e in m.exps), m.exps)
            for m in renamed.terms))
    init = [sum((system.init[v] for v in block), Fraction(0)) for block in part.blocks]
    obs = None
    if system.observables is not None:
        obs = {labels[v] for v in system.observables}
    return OdeSystem.make(names, drifts, init, obs)


def test_reduce_forward_matches_sum_rename_and_scale():
    rng = random.Random(13)
    lumped = 0
    for _ in range(150):
        system = _rational_system(rng)
        for seed in _seeds(rng, system, [[v] for v in range(system.n)]):
            part = coarsest_with_trace(system, seed, "fde")[0]
            lumped += part.block_count < system.n
            reduced = reduce_forward(system, part)
            expected = _reference_forward(system, part)
            assert reduced == expected
    assert lumped > 100


@pytest.mark.parametrize("mode", ["bde", "fde"])
def test_singleton_partitions_pass_and_reduce_to_the_input(mode):
    check = check_bde if mode == "bde" else check_fde
    reduce = reduce_backward if mode == "bde" else reduce_forward
    rng = random.Random(5)
    systems = [cascade(k1=2, k2=3, observables={1})]
    systems += [_rational_system(rng) for _ in range(40)]
    for system in systems:
        singletons = Partition.singletons(system.n)
        assert check(system, singletons).ok
        assert reduce(system, singletons) is system


_RN_TEXT = ("begin model begin init x=1 y=2 end init begin reactions "
            "x -> y, 1 y -> x, 2 end reactions end model")
_EXPR_TEXT = ("begin model begin init x=1 y=1 end init "
              "begin ode d(x) = min(x, y) d(y) = max(y, x) end ode end model")


@pytest.mark.parametrize("mode", ["bde", "fde"])
def test_singleton_shortcut_keeps_the_errors(mode):
    check = check_bde if mode == "bde" else check_fde
    reduce = reduce_backward if mode == "bde" else reduce_forward
    network = parse_model(_RN_TEXT).system
    for call in (check, reduce):
        with pytest.raises(TypeError, match="rn_to_ode"):
            call(network, Partition.singletons(2))
        with pytest.raises(PartitionMismatch):
            call(cascade(), Partition.singletons(2))
        with pytest.raises(PartitionMismatch):
            call(cascade(), Partition.singletons(4))
    with pytest.raises(NonPolynomialDrift):
        check(parse_model(_EXPR_TEXT).system, Partition.singletons(2))


def test_reduce_forward_requires_fde():
    with pytest.raises(NotAnFde) as err:
        reduce_forward(cascade(k1=1, k2=1), H_ONE)
    assert not err.value.counterexample.ok
    assert str(err.value) == ("partition is not an FDE: counterexample: pair (x1, x2) "
                              "in block 0, difference 2, witness point ('1', '1', '1')")


def test_reduce_forward_observables_map_to_blocks():
    system = cascade(k1=1, k2=1, observables={2})
    reduced = reduce_forward(system, H_SPLIT)
    assert reduced.observables == frozenset({1})


def test_reduce_backward_cascade():
    system = cascade(k1=1, k2=1, init=(1, Fraction(1, 2), Fraction(1, 2)))
    reduced = reduce_backward(system, H_SPLIT)
    assert reduced.names == ("x1", "x2")
    assert reduced.drifts[1] == polynomial_of("x1 - x2", ("x1", "x2"))
    assert reduced.init == (Fraction(1), Fraction(1, 2))


def test_reduce_backward_singletons_unchanged():
    system = cascade(k1=5, k2=2)
    reduced = reduce_backward(system, Partition.singletons(3))
    assert reduced == system


def test_reduce_backward_warns_on_unequal_inits():
    system = cascade(k1=1, k2=1, init=(1, 0, 5))
    with pytest.warns(InitMismatchWarning, match="x2, x3"):
        reduced = reduce_backward(system, H_SPLIT)
    assert reduced.names == ("x1", "x2")


def test_reduce_backward_requires_bde():
    with pytest.raises(NotABde) as err:
        reduce_backward(cascade(k1=1, k2=2), H_SPLIT)
    assert err.value.counterexample.pair == (1, 2)
    assert str(err.value) == ("partition is not a BDE: counterexample: pair (x2, x3) "
                              "in block 1, difference -x1, witness point ('1', '1', '1')")


# min + max = x1 + x2, and both equal a when x1 = x2 = a: {x1, x2}, {x3} is
# both an FDE and a BDE, though no drift is a polynomial.
MINMAX_DIV_TEXT = """\
begin model
begin init
  x1 = {i1}
  x2 = {i2}
  x3 = 1/2
end init
begin ode
  d(x1) = min(x1, x2) - x1/(1 + x3*x3)
  d(x2) = max(x1, x2) - x2/(1 + x3*x3)
  d(x3) = (x1 + x2)/2 - x3
end ode
end model
"""


def minmax_div_system(i1, i2):
    system = parse_model(MINMAX_DIV_TEXT.format(i1=i1, i2=i2)).system
    assert not system.is_polynomial
    return system


def rational_points(count, n, seed=7):
    rng = random.Random(seed)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(count)]


def test_reduce_forward_expression_drifts():
    system = minmax_div_system(2, "1/2")
    reduced = reduce_forward(system, Partition([[0, 1], [2]]))
    assert reduced.names == ("x1_x2", "x3")
    assert reduced.init == (Fraction(5, 2), Fraction(1, 2))
    for x in rational_points(40, 3):
        sums = (x[0] + x[1], x[2])
        assert drift_eval(reduced.drifts[0], sums) == \
            drift_eval(system.drifts[0], x) + drift_eval(system.drifts[1], x)
        assert drift_eval(reduced.drifts[1], sums) == drift_eval(system.drifts[2], x)


def test_reduce_backward_expression_drifts():
    system = minmax_div_system(1, 1)
    reduced = reduce_backward(system, Partition([[0, 1], [2]]))
    assert reduced.names == ("x1", "x3")
    assert reduced.init == (1, Fraction(1, 2))
    for a, c, _ in rational_points(40, 3):
        for v in (0, 1):
            assert drift_eval(reduced.drifts[0], (a, c)) == \
                drift_eval(system.drifts[v], (a, a, c))
        assert drift_eval(reduced.drifts[1], (a, c)) == \
            drift_eval(system.drifts[2], (a, a, c))


@pytest.mark.parametrize("mode,inits", [("fde", (2, "1/2")), ("bde", (1, 1))])
def test_expression_reductions_track_the_original(mode, inits):
    system = minmax_div_system(*inits)
    part = Partition([[0, 1], [2]])
    reduced = (reduce_forward if mode == "fde" else reduce_backward)(system, part)
    orig = integrate(system, t_end=2.0, dt=0.01)
    red = integrate(reduced, t_end=2.0, dt=0.01)
    assert compare_reduction(orig, red, part, mode) < 1e-9


# -- the stability proof of refined partitions ---------------------------------------------


def _refinable_system(rng):
    """A random rational system: one of _rational_system, one with small
    coefficient ranges, whose drifts agree often enough that refinement
    takes three passes now and then, or interleaved chains, which take one
    pass per position."""
    kind = rng.randrange(3)
    if kind == 0:
        return _rational_system(rng)
    if kind == 1:
        return random_poly_system(rng, rng.randint(2, 12), max_degree=3, max_denominator=4,
                                  coeff_range=rng.choice(((0, 2), (-1, 1))))
    length = rng.randint(2, 8)
    rates = [Fraction(rng.choice((2, 3, 5, 7)), 4) for _ in range(length)]
    return interleaved_chains(rates, [rng.randint(0, 1) for _ in range(length)])


@settings(deadline=None)
@given(st.randoms(use_true_random=False))
def test_refined_partitions_pass_the_full_check(rng):
    # The reducers trust a refined partition without signing it, so the
    # refinement's fixpoint must pass the full check on a copy without proof.
    system = _refinable_system(rng)
    for seed in _seeds(rng, system, [[v] for v in range(system.n)]):
        for mode, check in (("bde", check_bde), ("fde", check_fde)):
            part = coarsest_with_trace(system, seed, mode)[0]
            assert part.refines(seed)
            assert check(system, Partition(part.blocks)).ok


@pytest.mark.parametrize("mode", ["bde", "fde"])
def test_refined_partition_is_reduced_without_signing(mode, monkeypatch):
    check = check_bde if mode == "bde" else check_fde
    reduce = reduce_backward if mode == "bde" else reduce_forward
    system = cascade(k1=1, k2=1)
    part = coarsest_with_trace(system, H_ONE, mode)[0]
    assert part == H_SPLIT
    expected = reduce(system, Partition(part.blocks))

    def unstable(*args):
        raise AssertionError("signed a refined partition")

    monkeypatch.setattr(lump, "_unstable", unstable)
    assert check(system, part).ok
    assert reduce(system, part) == expected


@pytest.mark.parametrize("mode", ["bde", "fde"])
def test_stability_proof_covers_only_its_system_and_mode(mode, monkeypatch):
    check = check_bde if mode == "bde" else check_fde
    other = check_fde if mode == "bde" else check_bde
    system = cascade(k1=1, k2=1)
    part = coarsest_with_trace(system, H_ONE, mode)[0]
    equal_system = cascade(k1=1, k2=1)
    assert equal_system == system and equal_system is not system
    # A seed that is already a fixpoint gets no proof: the result is a new
    # partition.
    seed = Partition(part.blocks)
    assert coarsest_with_trace(system, seed, mode)[0] is not seed

    signed = []
    original = lump._unstable

    def unstable(*args):
        signed.append(args)
        return original(*args)

    monkeypatch.setattr(lump, "_unstable", unstable)
    for call, target, candidate in ((check, system, Partition(part.blocks)),
                                    (check, system, seed),
                                    (check, equal_system, part),
                                    (other, system, part)):
        before = len(signed)
        assert call(target, candidate).ok
        assert len(signed) == before + 1


def test_refined_partition_of_the_other_mode_is_fully_checked():
    # bde {x1}, {x2, x3} of this system is no FDE: the block sum x2 of {x1}
    # has partials 1 and 0 in x2 and x3.
    system = OdeSystem.make(NAMES, tuple(polynomial_of(t, NAMES)
                                         for t in ("x2", "x1 - x2", "x1 - x3")), (1, 0, 0))
    bde = coarsest_with_trace(system, H_ONE, "bde")[0]
    assert bde == H_SPLIT
    with pytest.raises(NotAnFde) as err:
        reduce_forward(system, bde)
    assert err.value.counterexample.pair == (1, 2)
    # fde {x1}, {x2, x3} of the cascade with unequal rates is no BDE.
    system = cascade(k1=1, k2=2)
    fde = coarsest_with_trace(system, H_ONE, "fde")[0]
    assert fde == H_SPLIT
    with pytest.raises(NotABde) as err:
        reduce_backward(system, fde)
    assert str(err.value) == ("partition is not a BDE: counterexample: pair (x2, x3) "
                              "in block 1, difference -x1, witness point ('1', '1', '1')")


# -- initial partitions ---------------------------------------------------------------------


def test_prepartition_groups_by_value():
    system = cascade(init=(1, 0, 0))
    assert prepartition_from_inits(system, H_ONE) == H_SPLIT


def test_prepartition_equal_inits_keep_seed():
    system = cascade(init=(2, 2, 2))
    assert prepartition_from_inits(system, H_ONE) == H_ONE


def test_prepartition_isolates_observables():
    system = cascade(init=(0, 0, 0), observables={1})
    assert prepartition_from_inits(system, H_ONE) == Partition([[1], [0, 2]])


def test_prepartition_respects_seed_blocks():
    system = cascade(init=(1, 1, 1))
    assert prepartition_from_inits(system, H_SPLIT) == H_SPLIT


# -- brute force oracle ------------------------------------------------------------------------


def test_brute_force_cascade_bde():
    assert brute_force_coarsest(cascade(k1=1, k2=1), H_ONE, "bde") == H_SPLIT


def test_brute_force_single_variable():
    system = OdeSystem.make(("x",), (Polynomial.variable(0),), (1,))
    assert brute_force_coarsest(system, Partition.one_block(1), "bde") == \
        Partition.one_block(1)


def test_brute_force_guard():
    n = 11
    system = OdeSystem.make(tuple(f"x{i}" for i in range(n)),
                            tuple(Polynomial.zero() for _ in range(n)),
                            (0,) * n)
    with pytest.raises(TooLarge):
        brute_force_coarsest(system, Partition.one_block(n), "bde")


def test_brute_force_respects_seed():
    system = cascade(k1=1, k2=1)
    seed = Partition([[0, 1], [2]])  # pins x3 apart even though {x2,x3} would merge
    result = brute_force_coarsest(system, seed, "bde")
    assert result.refines(seed)
    assert result == Partition.singletons(3)


# -- witness points ------------------------------------------------------------------------


def grid_point(p):
    """Reference witness: the lexicographically first point, over the sorted
    variables of ``p``, of the grid giving each variable the values 1..d+1,
    with d its degree in ``p``, where ``p`` is nonzero."""
    variables = sorted(p.variables())
    degree = {v: max(e for m in p.terms for w, e in m.exps if w == v) for v in variables}
    for values in product(*(range(1, degree[v] + 2) for v in variables)):
        point = {v: Fraction(t) for v, t in zip(variables, values)}
        if p.eval(point):
            return point
    return None


WIDTH = 6
_witness_terms = st.lists(
    st.builds(monomial, st.integers(-3, 3).filter(bool),
              st.lists(st.integers(0, WIDTH - 1), max_size=3)
              .map(lambda vs: {v: vs.count(v) for v in vs})),
    min_size=1, max_size=5).map(Polynomial)
# Factors (x_v - c) make the polynomial vanish on the first grid points.
_vanishing_factors = st.lists(st.tuples(st.integers(0, WIDTH - 1), st.integers(1, 2)),
                              max_size=2)


@settings(max_examples=150, deadline=None)
@given(_witness_terms, _vanishing_factors)
@example(polynomial_of("x0*x1 - x0 - x1 + 1", ("x0", "x1")), [(2, 2)])
def test_nonzero_point_is_the_first_grid_point(p, factors):
    for v, c in factors:
        p = p * (Polynomial.variable(v) - Polynomial.constant(c))
    if not p:
        assert _nonzero_point(p) is None
        return
    point = _nonzero_point(p)
    assert point == grid_point(p)
    assert p.eval(point) != 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(-2, 2)),
                min_size=1, max_size=8))
def test_nonzero_point_found_for_wide_polynomials(pairs):
    # sums of x_i - x_j, zero on the whole diagonal
    p = Polynomial.sum((Polynomial.variable(i) - Polynomial.variable(j)).scale(c)
                       for i, j, c in pairs)
    point = _nonzero_point(p)
    if not p:
        assert point is None
    else:
        assert set(point) == p.variables()
        assert p.eval(point) != 0


def test_nonzero_point_skips_a_variable_that_drops_out():
    # fixing x0 = 1 removes x1, whose value then defaults to 1
    p = polynomial_of("(x0 - 1)*x1 + x2 - 1", ("x0", "x1", "x2"))
    assert _nonzero_point(p) == {0: 1, 1: 1, 2: 2}


def test_nonzero_point_stops_once_ones_work(monkeypatch):
    # x0 = 2 leaves x1 + ... + x9, nonzero at ones: nothing else is substituted
    names = tuple(f"x{i}" for i in range(10))
    p = polynomial_of("(x0 - 1)*(" + " + ".join(names[1:]) + ")", names)
    calls = []
    substitute = Polynomial.substitute

    def counting(self, sigma):
        calls.append(sorted(sigma))
        return substitute(self, sigma)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    assert _nonzero_point(p) == {0: 2, **{v: 1 for v in range(1, 10)}}
    assert calls == [[0], [0]]


def test_check_reports_a_witness_for_a_wide_difference(tmp_path, capsys):
    names = [f"x{i}" for i in range(1, 11)]
    singletons = ", ".join(f"{{{nm}}}" for nm in names[:8])
    path = tmp_path / "wide.ode"
    path.write_text(
        "begin model\nbegin init\n"
        + "".join(f"  {nm} = 1\n" for nm in names)
        + "end init\nbegin ode\n"
        "  d(x9) = x1 + x3 + x5 + x7\n"
        "  d(x10) = x2 + x4 + x6 + x8\n"
        "end ode\nbegin partition\n"
        f"  {singletons}, {{x9, x10}}\n"
        "end partition\nend model\n")
    assert main(["check", "--mode", "bde", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert "difference x1 - x2 + x3 - x4 + x5 - x6 + x7 - x8" in err
    assert "witness point ('1', '1', '1', '1', '1', '1', '1', '2', '1', '1')" in err


# -- error paths -----------------------------------------------------------------------------


def test_partition_mismatch():
    with pytest.raises(PartitionMismatch):
        check_bde(cascade(), Partition.singletons(2))
    with pytest.raises(PartitionMismatch):
        coarsest_with_trace(cascade(), Partition.one_block(4), "fde")


def test_expression_drifts_rejected_by_syntactic_path():
    from odelump.parsing import parse_model
    doc = parse_model("begin model begin init x=1 y=1 end init "
                      "begin ode d(x) = min(x, y) d(y) = min(y, x) end ode end model")
    with pytest.raises(NonPolynomialDrift):
        check_bde(doc.system, Partition.one_block(2))


_TRAJ = integrate(cascade(), 0.1, 0.05)
_MODE_ENTRY_POINTS = {
    "coarsest_with_trace": lambda mode, tmp: coarsest_with_trace(cascade(), H_ONE, mode),
    "brute_force_coarsest": lambda mode, tmp: brute_force_coarsest(cascade(), H_ONE, mode),
    "phi_variable_names": lambda mode, tmp: phi_variable_names(cascade(), mode),
    "phi_script": lambda mode, tmp: phi_script(cascade(), H_ONE, mode),
    "compare_reduction": lambda mode, tmp: compare_reduction(
        _TRAJ, _TRAJ, Partition.singletons(3), mode),
    # a solver command that cannot start: the mode must be rejected first
    "symbolic_coarsest_with_trace": lambda mode, tmp: symbolic_coarsest_with_trace(
        cascade(), H_ONE, mode, str(tmp / "no-such-solver")),
}


@pytest.mark.parametrize("entry", sorted(_MODE_ENTRY_POINTS))
def test_mode_validated(entry, tmp_path):
    with pytest.raises(ValueError, match="sideways"):
        _MODE_ENTRY_POINTS[entry]("sideways", tmp_path)
