"""Fixed-step numerical integration and reduction accuracy measurement.

Classical fourth-order Runge-Kutta with a fixed step: deterministic and
reproducible, which the acceptance tolerances rely on.  Exact rational
initial values and coefficients are converted to binary64 on entry, and a
number beyond its range is a non-finite state at t = 0; exactness is only
needed by the lumping checks, never here.  numpy is imported by the
functions that use it, so importing odelump does not load it.

A polynomial system is compiled once into flat arrays: one float
coefficient per monomial, the index of the drift that owns it, and its
factors, where factor slot j lists the monomials with more than j factors
and the value each of them multiplies by.  A factor is ``x[v]`` for
exponent 1, or ``x[v] ** e`` computed once per stage for each distinct
``(v, e)``.  An RK4 stage gathers each slot, multiplies it into the terms
in place, and sums the terms per drift with ``np.bincount``.  Expression
drifts compile, by ``driftexpr._fold``, to one closure per node; a node
``_DEPTH`` deep is computed first, so calls never nest deeper than that.  A
zero divisor raises ZeroDivisionError or numpy's FloatingPointError.

The arrays give the same floats, to the last bit, as evaluating each
monomial in Python as ``coeff * f1 * f2 * ...`` in exponent-vector order
and adding the terms to 0.0 in term order: slots multiply in that order,
and ``bincount`` adds each drift's terms in that order.  Powers are numpy
scalar ``x[v] ** e``, not array ``np.power``, whose vectorized kernels can
round differently from the scalar ``pow``.  So trajectories do not move
when the evaluator changes, and neither do the golden ``simulate`` outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .driftexpr import Bin, Const, _fold
from .errors import DivisionByZero, GridMismatch, NonFiniteState
from .partition import Partition
from .system import OdeSystem, _by_mode, _require


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray   # strictly increasing, seconds
    states: np.ndarray  # sample x variable
    names: tuple

    def __post_init__(self):
        import numpy as np
        if self.states.shape != (len(self.times), len(self.names)):
            raise ValueError("states must be (samples, variables)")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.names.index(name)]


def _compile_polynomials(drifts, n: int):
    import numpy as np
    coef, owner = [], []
    powers: dict = {}  # (v, e) with e >= 2 -> its index in the factor values
    slots: list = []   # slot j: (rows, sources) of the monomials' j-th factors
    for i, drift in enumerate(drifts):
        den = drift.den
        for exps, num in zip(drift.exps, drift.nums):
            row = len(coef)
            coef.append(num / den)  # correctly rounded, like float(Fraction(n, den))
            owner.append(i)
            for j, (v, e) in enumerate(exps):
                if j == len(slots):
                    slots.append(([], []))
                rows, sources = slots[j]
                rows.append(row)
                sources.append(v if e == 1 else powers.setdefault((v, e), n + len(powers)))
    coef = np.array(coef, dtype=float)
    owner = np.array(owner, dtype=np.intp)
    slots = [(slice(None) if len(rows) == len(coef) else np.array(rows, dtype=np.intp),
              np.array(sources, dtype=np.intp)) for rows, sources in slots]
    powers = tuple(powers)

    def f(x):
        z = np.concatenate((x, [x[v] ** e for v, e in powers])) if powers else x
        t = coef.copy()
        for rows, sources in slots:
            t[rows] *= z[sources]
        return np.bincount(owner, weights=t, minlength=n)

    return f


# The closure of a node, from its operands' closures.
_FLOAT_NODES = {
    "add": lambda fa, fb: lambda x: fa(x) + fb(x),
    "sub": lambda fa, fb: lambda x: fa(x) - fb(x),
    "mul": lambda fa, fb: lambda x: fa(x) * fb(x),
    "div": lambda fa, fb: lambda x: fa(x) / fb(x),
    "min": lambda fa, fb: lambda x: min(fa(x), fb(x)),
    "max": lambda fa, fb: lambda x: max(fa(x), fb(x)),
    "abs": lambda fa, fb: lambda x: abs(fa(x)),
}
_DEPTH = 40


def _compile_system(system: OdeSystem):
    import numpy as np
    if system.is_polynomial:
        return _compile_polynomials(system.drifts, system.n)
    spilled, t = [], []  # closures of the subtrees _DEPTH deep, in fold order; their values

    def leaf(e):
        c = float(e.value) if isinstance(e, Const) else None
        return (itemgetter(e.index) if c is None else lambda x: c), 1

    def node(e, a, b):
        (fa, da), (fb, db) = a, b or a
        g = _FLOAT_NODES[e.op if isinstance(e, Bin) else "abs"](fa, fb)
        depth = (da if da > db else db) + 1
        if depth < _DEPTH:
            return g, depth
        spilled.append(g)
        return (lambda x, k=len(spilled) - 1: t[k]), 1

    outs = [_fold(d, leaf, node)[0] for d in system.drifts]

    def f(x):
        t[:] = ()
        for g in spilled:
            t.append(g(x))
        return np.array([g(x) for g in outs])

    return f


# Ten million RK4 steps take minutes even on a two-variable system; a longer
# run is almost surely a mistyped --t-end or --dt.
MAX_STEPS = 10**7


def integrate(system: OdeSystem, t_end: float, dt: float,
              sample_every: int = 1) -> Trajectory:
    """RK4 from the system's initial values; rows recorded every
    ``sample_every`` steps, first row at t = 0."""
    _require(system)
    if not (0 < t_end < math.inf and 0 < dt < math.inf):
        raise ValueError("t_end and dt must be positive and finite")
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(f"t_end / dt must be at most {MAX_STEPS} steps")
    if not isinstance(sample_every, int) or sample_every < 1:
        raise ValueError("sample_every must be a positive integer")
    import numpy as np
    try:  # exact numbers beyond float range
        f = _compile_system(system)
        x = np.array([float(v) for v in system.init])
    except OverflowError:
        raise NonFiniteState(0.0) from None
    steps = max(1, round(t_end / dt))
    times = [0.0]
    rows = [x.copy()]
    half = dt / 2.0
    sixth = dt / 6.0
    with np.errstate(divide="raise", invalid="ignore", over="ignore"):
        for k in range(1, steps + 1):
            t = k * dt
            try:
                k1 = f(x)
                k2 = f(x + half * k1)
                k3 = f(x + half * k2)
                k4 = f(x + dt * k3)
                x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            except (ZeroDivisionError, FloatingPointError):
                raise DivisionByZero(f"t = {t}") from None
            if not np.all(np.isfinite(x)):
                raise NonFiniteState(t)
            if k % sample_every == 0:
                times.append(t)
                rows.append(x.copy())
    return Trajectory(np.array(times), np.vstack(rows), tuple(system.names))


def compare_reduction(orig: Trajectory, red: Trajectory, part: Partition,
                      mode: str) -> float:
    """Largest absolute mismatch between a reduced trajectory and the
    aggregation of the original one.

    fde: each reduced column must equal its block's sum of original columns.
    bde: each reduced (representative) column must equal every original
    member column of its block.
    """
    import numpy as np
    targets = _by_mode(mode, lambda block: [orig.states[:, v] for v in block],
                       lambda block: [orig.states[:, list(block)].sum(axis=1)])
    if len(orig.times) != len(red.times) or not np.array_equal(orig.times, red.times):
        raise GridMismatch("trajectories use different time grids")
    if part.size != len(orig.names):
        raise GridMismatch("partition does not cover the original variables")
    if part.block_count != len(red.names):
        raise GridMismatch("reduced trajectory width does not match the partition")
    worst = 0.0
    for b, block in enumerate(part.blocks):
        for target in targets(block):
            worst = max(worst, float(np.max(np.abs(red.states[:, b] - target))))
    return worst


def write_csv(trajectory: Trajectory, sink) -> None:
    """Write ``time,<name1>,...`` rows with 9 significant digits."""
    if hasattr(sink, "write"):
        _write_csv_stream(trajectory, sink)
    else:
        with open(sink, "w", encoding="utf-8", newline="") as handle:
            _write_csv_stream(trajectory, handle)


def _write_csv_stream(trajectory: Trajectory, out) -> None:
    # Python floats format exactly as float64 scalars do, and faster.
    fmt = "{:.9g}".format
    out.write("time," + ",".join(trajectory.names) + "\n")
    for t, row in zip(trajectory.times.tolist(), trajectory.states):
        out.write(fmt(t) + "," + ",".join(map(fmt, row.tolist())) + "\n")


def read_csv(source) -> Trajectory:
    """Inverse of :func:`write_csv` (round-trips within formatting precision)."""
    import numpy as np
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    if not lines:
        raise ValueError("empty trajectory: no header")
    header = lines[0].split(",")
    if header[0] != "time":
        raise ValueError("first column must be 'time'")
    names = tuple(header[1:])
    data = np.array([[float(cell) for cell in line.split(",")]
                     for line in lines[1:] if line])
    if not len(data):
        raise ValueError("trajectory has a header but no rows")
    return Trajectory(data[:, 0], data[:, 1:], names)
