import io
import math
from fractions import Fraction

import numpy as np
import pytest

from odelump import (DivisionByZero, GridMismatch, NonFiniteState, OdeSystem,
                     Partition, Polynomial, Trajectory, compare_reduction,
                     integrate, parse_model, parse_polynomial, read_csv,
                     reduce_backward, reduce_forward, write_csv)
from conftest import cascade


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
    system = OdeSystem.make(("x",), (parse_polynomial("x*x", ("x",)),), (10,))
    with pytest.raises(NonFiniteState):
        integrate(system, t_end=10.0, dt=0.5)


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
