import io
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odelump import (DivisionByZero, GridMismatch, NonFiniteState, OdeSystem,
                     Partition, Polynomial, Trajectory, compare_reduction,
                     integrate, monomial, parse_model,
                     read_csv, reduce_backward, reduce_forward,
                     write_csv)
from odelump import sim
from conftest import cascade, polynomial_of


def decay_system():
    return OdeSystem.make(("x",), (Polynomial.variable(0).scale(-1),), (1,))


def test_exponential_decay_endpoint():
    traj = integrate(decay_system(), t_end=1.0, dt=1e-3)
    assert abs(traj.states[-1, 0] - math.exp(-1)) <= 1e-6


def test_zero_drifts_stay_constant():
    system = OdeSystem.make(("a", "b"), (Polynomial.zero(), Polynomial.zero()),
                            (Fraction(3), Fraction(1, 4)))
    traj = integrate(system, t_end=2.0, dt=0.1)
    assert np.all(traj.states == traj.states[0])
    assert traj.states[0, 0] == 3.0


def test_backward_symmetry_in_original_system():
    # equal rates and equal inits keep x2 and x3 identical along the flow
    system = cascade(k1=1, k2=1, init=(1, 0, 0))
    traj = integrate(system, t_end=5.0, dt=1e-3, sample_every=10)
    assert np.max(np.abs(traj.column("x2") - traj.column("x3"))) <= 1e-9


def test_rk4_order_on_decay():
    def endpoint_error(dt):
        traj = integrate(decay_system(), t_end=1.0, dt=dt)
        return abs(traj.states[-1, 0] - math.exp(-1))

    ratio = endpoint_error(0.1) / endpoint_error(0.05)
    assert ratio >= 12.0


def test_sampling_grid():
    traj = integrate(decay_system(), t_end=1.0, dt=0.01, sample_every=10)
    assert traj.times[0] == 0.0
    assert len(traj.times) == 11
    assert abs(traj.times[1] - 0.1) < 1e-12


def test_expression_drifts_integrate():
    doc = parse_model("begin model begin init x=2 y=5 end init "
                      "begin ode d(x) = min(x, y) - x d(y) = abs(x) - y "
                      "end ode end model")
    traj = integrate(doc.system, t_end=1.0, dt=0.01)
    assert np.all(np.isfinite(traj.states))


def test_division_by_zero_reported_with_time():
    doc = parse_model("begin model begin init x=1 y=0 end init "
                      "begin ode d(x) = x/y end ode end model")
    with pytest.raises(DivisionByZero):
        integrate(doc.system, t_end=1.0, dt=0.1)


def test_constant_zero_denominator_reported_with_time():
    # float constants divide as Python floats, which raise rather than give inf
    doc = parse_model("begin model begin init x=1 end init "
                      "begin ode d(x) = x + 1/(2 - 2) end ode end model")
    with pytest.raises(DivisionByZero, match=r"^division by zero at t = 0\.1$"):
        integrate(doc.system, t_end=1.0, dt=0.1)


def test_zero_over_zero_is_non_finite():
    doc = parse_model("begin model begin init x=0 y=0 end init "
                      "begin ode d(x) = x/y d(y) = y end ode end model")
    with pytest.raises(NonFiniteState):
        integrate(doc.system, t_end=1.0, dt=0.1)


def test_blowup_raises_non_finite():
    system = OdeSystem.make(("x",), (polynomial_of("x*x", ("x",)),), (10,))
    with pytest.raises(NonFiniteState, match=r"at t = 1\.5$"):
        integrate(system, t_end=10.0, dt=0.5)


def test_product_blowup_raises_non_finite_at_the_reference_time():
    names = ("x", "y")
    system = OdeSystem.make(names, (polynomial_of("x*y", names),
                                    polynomial_of("2*x*y - y", names)), (3, 2))
    with pytest.raises(NonFiniteState, match=r"at t = 0\.6000000000000001$"):
        integrate(system, t_end=5.0, dt=0.1)
    with pytest.raises(NonFiniteState, match=r"at t = 0\.6000000000000001$"):
        scalar_integrate(system, t_end=5.0, dt=0.1)


def test_no_monomials_at_all_stays_at_the_initial_values():
    init = (Fraction(-7, 3), Fraction(0), Fraction(1, 10))
    system = OdeSystem.make(("a", "b", "c"), (Polynomial.zero(),) * 3, init)
    traj = integrate(system, t_end=1.0, dt=0.125, sample_every=2)
    assert traj.states.shape == (5, 3)
    assert np.array_equal(traj.states, np.tile([float(v) for v in init], (5, 1)))


# -- the array evaluator against a per-monomial scalar one ---------------------------


def _scalar_compile(system):
    """Reference evaluator: each monomial as ``coeff * f1 * f2 * ...`` with
    scalar powers, each drift summed from 0.0 in term order."""
    drifts = [[(float(m.coeff), m.exps) for m in d.terms] for d in system.drifts]

    def f(x):
        out = []
        for terms in drifts:
            total = 0.0
            for c, exps in terms:
                t = c
                for v, e in exps:
                    t *= x[v] ** e
                total += t
            out.append(total)
        return np.array(out)

    return f


def scalar_integrate(system, t_end, dt, sample_every=1):
    """``integrate`` with the reference evaluator in place of the arrays."""
    with mock.patch.object(sim, "_compile_system", _scalar_compile):
        return integrate(system, t_end, dt, sample_every)


NAMES = ("x0", "x1", "x2", "x3")
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
# Up to three factors, exponents 1-4; an empty mapping is a constant term.
monomials = st.builds(monomial, coefficients,
                      st.dictionaries(st.integers(0, len(NAMES) - 1), st.integers(1, 4),
                                      max_size=3))
polynomials = st.lists(monomials, max_size=6).map(Polynomial)  # may be zero
inits = st.fractions(min_value=-2, max_value=2, max_denominator=16)


@settings(max_examples=100, deadline=None)
@given(st.lists(polynomials, min_size=len(NAMES), max_size=len(NAMES)),
       st.lists(inits, min_size=len(NAMES), max_size=len(NAMES)))
@example(  # (x0, 2) in several monomials, of one, two and three factors
    [polynomial_of("x0*x0 - 3*x0*x0*x1 + x0*x0*x1*x2*x2*x2*x2 + 1/3", NAMES),
     polynomial_of("x0*x0*x3 - x1*x1*x1", NAMES),
     Polynomial.zero(),
     polynomial_of("2", NAMES)],
    [Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4), Fraction(1)])
def test_array_evaluator_is_bit_identical_to_scalar_reference(drifts, init):
    system = OdeSystem.make(NAMES, drifts, init)
    try:
        expected = scalar_integrate(system, t_end=0.5, dt=0.05, sample_every=2)
    except NonFiniteState as exc:
        with pytest.raises(NonFiniteState, match=f"^{re.escape(str(exc))}$"):
            integrate(system, t_end=0.5, dt=0.05, sample_every=2)
        return
    actual = integrate(system, t_end=0.5, dt=0.05, sample_every=2)
    assert np.array_equal(actual.times, expected.times)
    assert np.array_equal(actual.states, expected.states)


def test_cubic_uses_scalar_power_not_array_power():
    # At x = 0.01, numpy's vectorized np.power(x, 3.0) differs in the last bit
    # from the scalar x ** 3 on AVX-512 builds; the drift and the trajectory
    # must follow the scalar value wherever they run.
    system = OdeSystem.make(("x",), (polynomial_of("-x*x*x + x", ("x",)),),
                            (Fraction(1, 100),))
    x = np.float64(0.01)
    assert sim._compile_system(system)(np.array([x]))[0] == 0.0 + -1.0 * x ** 3 + 1.0 * x
    traj = integrate(system, t_end=1.0, dt=0.01)
    assert np.array_equal(traj.states, scalar_integrate(system, 1.0, 0.01).states)


def test_time_reversal_on_linear_system():
    system = cascade(k1=2, k2=3, init=(1, Fraction(1, 2), Fraction(1, 2)))
    forward = integrate(system, t_end=1.0, dt=1e-3)
    back_sys = OdeSystem.make(
        system.names, tuple(d.scale(-1) for d in system.drifts),
        [Fraction(str(round(v, 15))) for v in forward.states[-1]])
    back = integrate(back_sys, t_end=1.0, dt=1e-3)
    assert np.max(np.abs(back.states[-1] - np.array([1.0, 0.5, 0.5]))) <= 1e-5


# -- reduction comparison -------------------------------------------------------------


def test_forward_reduction_consistency():
    part = Partition([[0], [1, 2]])
    system = cascade(k1=2, k2=3, init=(1, Fraction(1, 2), Fraction(1, 2)))
    reduced = reduce_forward(system, part)
    orig = integrate(system, t_end=2.0, dt=1e-3)
    red = integrate(reduced, t_end=2.0, dt=1e-3)
    assert compare_reduction(orig, red, part, "fde") <= 1e-6


def test_backward_reduction_consistency():
    part = Partition([[0], [1, 2]])
    system = cascade(k1=1, k2=1, init=(1, Fraction(1, 2), Fraction(1, 2)))
    reduced = reduce_backward(system, part)
    orig = integrate(system, t_end=2.0, dt=1e-3)
    red = integrate(reduced, t_end=2.0, dt=1e-3)
    assert compare_reduction(orig, red, part, "bde") <= 1e-9


def test_identical_trajectories_have_zero_error():
    traj = integrate(cascade(), t_end=1.0, dt=0.01)
    assert compare_reduction(traj, traj, Partition.singletons(3), "bde") == 0.0


def test_corrupted_reduction_detected():
    part = Partition([[0], [1, 2]])
    system = cascade(k1=2, k2=3, init=(1, Fraction(1, 2), Fraction(1, 2)))
    good = reduce_forward(system, part)
    bad = OdeSystem.make(good.names,
                         (good.drifts[0],
                          good.drifts[1] + Polynomial.variable(0)),  # rate k1+k2+1
                         good.init)
    orig = integrate(system, t_end=2.0, dt=1e-3)
    red = integrate(bad, t_end=2.0, dt=1e-3)
    assert compare_reduction(orig, red, part, "fde") > 1e-2


def test_grid_mismatch_detected():
    a = integrate(decay_system(), t_end=1.0, dt=0.01)
    b = integrate(decay_system(), t_end=1.0, dt=0.02)
    with pytest.raises(GridMismatch):
        compare_reduction(a, b, Partition.one_block(1), "bde")


def test_block_width_mismatch_detected():
    traj = integrate(cascade(), t_end=1.0, dt=0.1)
    with pytest.raises(GridMismatch):
        compare_reduction(traj, traj, Partition([[0], [1, 2]]), "fde")


# -- CSV ----------------------------------------------------------------------------------


def test_csv_shape_and_header():
    system = OdeSystem.make(("only",), (Polynomial.zero(),), (Fraction(1, 3),))
    traj = integrate(system, t_end=2.0, dt=1.0)
    sink = io.StringIO()
    write_csv(traj, sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 4  # header + t=0,1,2
    assert lines[0] == "time,only"
    assert lines[1].startswith("0,0.333333333")


def test_csv_column_order_matches_system():
    traj = integrate(cascade(), t_end=0.1, dt=0.1)
    sink = io.StringIO()
    write_csv(traj, sink)
    assert sink.getvalue().splitlines()[0] == "time,x1,x2,x3"


def test_csv_round_trip(tmp_path):
    # values stay within [0, 1]; 9 significant digits then resolve 1e-9
    traj = integrate(cascade(k1=1, k2=1, init=(1, 0, 0)),
                     t_end=1.0, dt=0.01, sample_every=5)
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    again = read_csv(path)
    assert again.names == traj.names
    assert np.max(np.abs(again.states - traj.states)) <= 1e-9
    assert np.max(np.abs(again.times - traj.times)) <= 1e-9


@pytest.mark.parametrize("text", ["", "time,x1,x2\n", "time,x1\n\n"])
def test_read_csv_without_rows_raises_value_error(text):
    with pytest.raises(ValueError):
        read_csv(io.StringIO(text))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), ("x",))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), ("x",))


def test_integrate_argument_validation():
    nan, inf = float("nan"), float("inf")
    for t_end, dt, sample_every in [(0.0, 0.1, 1), (1.0, -0.1, 1), (1.0, 0.1, 0),
                                    (nan, 0.1, 1), (inf, 0.1, 1), (1e308, 1e-308, 1),
                                    (1e200, 1e-100, 1), (1.0, 1e-8, 1)]:
        with pytest.raises(ValueError):
            integrate(decay_system(), t_end=t_end, dt=dt, sample_every=sample_every)


@pytest.mark.parametrize("sample_every", [1.5, 2.0, "2", None])
def test_sample_every_must_be_an_int(sample_every):
    with pytest.raises(ValueError, match="must be a positive integer"):
        integrate(decay_system(), t_end=1.0, dt=0.1, sample_every=sample_every)
