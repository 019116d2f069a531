"""The trajectory CSV is the text that formatting each numpy scalar wrote: the
writer formats Python floats instead, which must give the same bytes."""

import io

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from odelump import Trajectory, write_csv

SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324,
           1.7976931348623157e308, 1e-9, 123456789.5, 0.1]


def _write_per_scalar(trajectory, out) -> None:
    """The writer as it was: one f-string per numpy scalar."""
    out.write("time," + ",".join(trajectory.names) + "\n")
    for t, row in zip(trajectory.times, trajectory.states):
        out.write(f"{t:.9g}," + ",".join(f"{v:.9g}" for v in row) + "\n")


def _assert_same_text(trajectory):
    expected, written = io.StringIO(), io.StringIO()
    _write_per_scalar(trajectory, expected)
    write_csv(trajectory, written)
    assert written.getvalue() == expected.getvalue()


@st.composite
def _trajectories(draw):
    times = sorted(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=1, max_size=6, unique=True)))
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.floats(), min_size=width, max_size=width),
                         min_size=len(times), max_size=len(times)))
    return Trajectory(np.array(times), np.array(rows), tuple(f"v{i}" for i in range(width)))


@given(_trajectories())
@example(Trajectory(np.array([-1.0, 0.0, 5e-324]), np.array([SPECIAL[:4], SPECIAL[4:8],
                                                             SPECIAL[7:]]), ("a", "b", "c", "d")))
def test_csv_text_equals_the_per_scalar_format(trajectory):
    _assert_same_text(trajectory)


def test_csv_text_of_many_random_floats_and_special_values():
    rng = np.random.default_rng(29)
    scaled = rng.standard_normal(40000) * 10.0 ** rng.integers(-300, 300, 40000)
    values = np.concatenate([SPECIAL, scaled, rng.random(40000)])
    values = values[:len(values) // 8 * 8].reshape(-1, 8)
    times = np.arange(len(values), dtype=float) / 7
    _assert_same_text(Trajectory(times, values, tuple(f"s{i}" for i in range(8))))
