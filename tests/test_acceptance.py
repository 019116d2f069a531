"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s or -v to see them)."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from odelump import (OdeSystem, Partition, Polynomial, brute_force_coarsest,
                     check_bde, coarsest_with_trace, compare_reduction,
                     integrate, parse_model, reduce_backward, reduce_forward,
                     smt_emit, build_phi_bde, solver_invoke,
                     symbolic_coarsest_with_trace)
from odelump.cli import main
from odelump.poly import Monomial
from conftest import cascade, cascade_text, random_poly_system, solver_available


def _report(name: str, ok: bool):
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


H_SPLIT = Partition([[0], [1, 2]])


def test_forward_reduction_of_cascade(tmp_path):
    """reduce --mode fde from the one-block seed recovers the two-block
    partition and the exact summed rate k1 + k2 = 5, in under a second."""
    model = tmp_path / "eq1.ode"
    model.write_text(cascade_text(k1=2, k2=3, init=(1, "1/2", "1/2")))
    out = tmp_path / "red.ode"
    started = time.perf_counter()
    rc = main(["reduce", "--mode", "fde", "--in", str(model),
               "--partition", "one-block", "--out", str(out)])
    elapsed = time.perf_counter() - started
    system = cascade(k1=2, k2=3, init=(1, Fraction(1, 2), Fraction(1, 2)))
    part = coarsest_with_trace(system, Partition.one_block(3), "fde")[0]
    reduced = parse_model(out.read_text()).system
    macro = reduced.drifts[1]
    ok = (rc == 0
          and part == H_SPLIT
          and macro.terms[0].coeff == Fraction(5)
          and macro.terms[0].exps == ((0, 1),)
          and elapsed < 1.0)
    _report(f"forward reduction: partition {part.format(system.names)}, "
            f"rate coefficient {macro.terms[0].coeff}, {elapsed:.3f}s", ok)


def test_coarsest_bde_of_cascade():
    """Coarsest BDE from the one-block seed with equal rates, in under a second."""
    system = cascade(k1=1, k2=1)
    started = time.perf_counter()
    part = coarsest_with_trace(system, Partition.one_block(3), "bde")[0]
    elapsed = time.perf_counter() - started
    ok = part == H_SPLIT and elapsed < 1.0
    _report(f"coarsest BDE: {part.format(system.names)}, {elapsed:.3f}s", ok)


def test_oracle_equivalence_on_random_systems():
    """Signature refinement equals brute-force enumeration on 100 seeded
    random systems (n in 2..6, degree <= 2, integer coefficients in [-3, 3]),
    for both modes, within 60 s."""
    rng = random.Random(20260808)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        system = random_poly_system(rng, rng.randint(2, 6), max_degree=2,
                                    coeff_range=(-3, 3))
        seed = Partition.one_block(system.n)
        if coarsest_with_trace(system, seed, "bde")[0] != \
                brute_force_coarsest(system, seed, "bde"):
            mismatches += 1
        if coarsest_with_trace(system, seed, "fde")[0] != \
                brute_force_coarsest(system, seed, "fde"):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    _report(f"oracle equivalence: 100 systems, {mismatches} mismatches, "
            f"{elapsed:.1f}s", ok)


def test_trajectory_consistency():
    """Forward reduction reproduces block sums within 1e-6 and backward
    reduction reproduces members within 1e-9 over t in [0, 10], dt = 1e-3,
    each integration under 5 s."""
    init = (1, Fraction(1, 2), Fraction(1, 2))
    fwd_sys = cascade(k1=2, k2=3, init=init)
    started = time.perf_counter()
    orig = integrate(fwd_sys, t_end=10.0, dt=1e-3)
    red = integrate(reduce_forward(fwd_sys, H_SPLIT), t_end=10.0, dt=1e-3)
    fwd_err = compare_reduction(orig, red, H_SPLIT, "fde")
    fwd_time = time.perf_counter() - started

    bwd_sys = cascade(k1=1, k2=1, init=init)  # block-equal initial values
    started = time.perf_counter()
    orig_b = integrate(bwd_sys, t_end=10.0, dt=1e-3)
    red_b = integrate(reduce_backward(bwd_sys, H_SPLIT), t_end=10.0, dt=1e-3)
    bwd_err = compare_reduction(orig_b, red_b, H_SPLIT, "bde")
    bwd_time = time.perf_counter() - started

    ok = (fwd_err <= 1e-6 and bwd_err <= 1e-9
          and fwd_time < 5.0 and bwd_time < 5.0)
    _report(f"trajectory consistency: forward {fwd_err:.2e} ({fwd_time:.2f}s), "
            f"backward {bwd_err:.2e} ({bwd_time:.2f}s)", ok)


def test_negative_controls(tmp_path, capsys):
    """Unequal rates break the backward check naming (x2, x3) with CLI exit
    code 1; a corrupted reduced model is detected by a comparison error
    above 1e-2."""
    bad = cascade(k1=1, k2=2)
    result = check_bde(bad, H_SPLIT)
    library_ok = (not result.ok) and result.pair == (1, 2)

    model = tmp_path / "bad.ode"
    model.write_text(cascade_text(
        k1=1, k2=2, extra="begin partition\n  {x1}, {x2, x3}\nend partition\n"))
    rc = main(["check", "--mode", "bde", "--in", str(model)])
    err_text = capsys.readouterr().err
    cli_ok = rc == 1 and "(x2, x3)" in err_text

    init = (1, Fraction(1, 2), Fraction(1, 2))
    system = cascade(k1=2, k2=3, init=init)
    good = reduce_forward(system, H_SPLIT)
    corrupted = OdeSystem.make(
        good.names,
        (good.drifts[0], good.drifts[1] + Polynomial.variable(0)),  # rate 6, not 5
        good.init)
    orig = integrate(system, t_end=10.0, dt=1e-3)
    red = integrate(corrupted, t_end=10.0, dt=1e-3)
    corrupt_err = compare_reduction(orig, red, H_SPLIT, "fde")

    ok = library_ok and cli_ok and corrupt_err > 1e-2
    _report(f"negative controls: pair named {result.pair}, CLI exit {rc}, "
            f"corrupted-model error {corrupt_err:.2e}", ok)


def _replicated_motif(copies: int, width: int) -> OdeSystem:
    """copies x width variables; role r in every copy follows the same drift
    -(r+1)*self + next + next2*self, so the coarsest backward partition is
    exactly the width role blocks."""
    one = Fraction(1)
    names = []
    drifts = []
    for c in range(copies):
        base = c * width
        for r in range(width):
            me, nxt, nx2 = base + r, base + (r + 1) % width, base + (r + 2) % width
            names.append(f"v{c}_{r}")
            cross = tuple(sorted(((me, 1), (nx2, 1))))
            terms = [Monomial(Fraction(-(r + 1)), ((me, 1),)),
                     Monomial(one, ((nxt, 1),)),
                     Monomial(one, cross)]
            terms.sort(key=lambda m: (-m.degree(), tuple((v, -e) for v, e in m.exps)))
            drifts.append(Polynomial(tuple(terms)))
    return OdeSystem(tuple(names), tuple(drifts), (one,) * (copies * width))


def test_desk_scale_performance():
    """A replicated system with 1e5 variables and 3e5 monomials is reduced
    to its 10 known role blocks in under 60 s."""
    copies, width = 10_000, 10
    started = time.perf_counter()
    system = _replicated_motif(copies, width)
    part = coarsest_with_trace(system, Partition.one_block(system.n), "bde")[0]
    elapsed = time.perf_counter() - started
    expected = Partition([range(r, system.n, width) for r in range(width)])
    ok = (system.monomial_count() == 3 * copies * width
          and part == expected
          and part.block_count == 10
          and elapsed < 60.0)
    _report(f"desk-scale performance: {system.n} variables, "
            f"{system.monomial_count()} monomials -> {part.block_count} blocks "
            f"in {elapsed:.1f}s", ok)


def test_rk4_order():
    """Halving dt shrinks the endpoint error of the decay system by >= 12x."""
    system = OdeSystem.make(("x",), (Polynomial.variable(0).scale(-1),), (1,))

    def endpoint_error(dt):
        traj = integrate(system, t_end=1.0, dt=dt)
        return abs(traj.states[-1, 0] - np.exp(-1))

    ratio = endpoint_error(0.1) / endpoint_error(0.05)
    ok = ratio >= 12.0
    _report(f"RK4 order: error ratio {ratio:.1f} on dt 0.1 -> 0.05", ok)


@pytest.mark.skipif(not solver_available(),
                    reason="no SMT-LIB solver on the path")
def test_smt_agreement():
    """Solver-gated: the witness-guided loop matches signature refinement on
    50 random systems; the equal-rate formula is unsat; the symmetric
    min-pair system keeps the pair together."""
    system = cascade(k1=1, k2=1)
    script = smt_emit(build_phi_bde(system, H_SPLIT), system.names)
    unsat_ok = solver_invoke(script).kind == "unsat"

    rng = random.Random(4242)
    mismatches = 0
    for _ in range(50):
        candidate = random_poly_system(rng, rng.randint(2, 4))
        seed = Partition.one_block(candidate.n)
        if symbolic_coarsest_with_trace(candidate, seed, "bde")[0] != \
                coarsest_with_trace(candidate, seed, "bde")[0]:
            mismatches += 1

    from test_smt import MIN_PAIR_TEXT
    min_doc = parse_model(MIN_PAIR_TEXT)
    min_part = symbolic_coarsest_with_trace(
        min_doc.system, Partition.one_block(3), "bde")[0]
    min_ok = min_part == Partition([[0, 1], [2]])

    ok = unsat_ok and mismatches == 0 and min_ok
    _report(f"SMT agreement: unsat {unsat_ok}, {mismatches} mismatches on 50 "
            f"systems, min-pair partition {min_part.format(min_doc.system.names)}",
            ok)
