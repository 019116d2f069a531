"""Seeded model families, described without odelump.

Each family writes its model text from a seed and knows, by construction,
everything the checks need: the exact drift of every variable, the coarsest
partitions that odelump must find, the closed form of the lumped systems and
a numpy right-hand side for the reference trajectory.  None of it calls
odelump, so a check that compares odelump's output with a family is a
comparison with an independent derivation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import numpy as np


def rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _product(coeff, variables, x):
    for v in variables:
        coeff = coeff * x[v]
    return coeff


def rk4(rhs, x0, t_end, dt, sample):
    """Rows of the fixed-step RK4 trajectory on the grid odelump uses:
    ``round(t_end / dt)`` steps, a row at t = 0 and every ``sample`` steps."""
    steps = max(1, round(t_end / dt))
    half, sixth = dt / 2.0, dt / 6.0
    x = np.array(x0, dtype=float)
    rows = [x.copy()]
    for k in range(1, steps + 1):
        k1 = rhs(x)
        k2 = rhs(x + half * k1)
        k3 = rhs(x + half * k2)
        k4 = rhs(x + dt * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % sample == 0:
            rows.append(x.copy())
    return np.vstack(rows)


class Family:
    """Common shape of a model family; subclasses fill in the formulas.

    ``names`` and ``init`` list the variables in declaration order.  ``form``
    is the drift section the model file uses ("ode" or "rn") and
    ``convert_to`` the other one.  ``sim`` holds the ``simulate`` arguments
    (t_end, dt, sample).  ``reps`` gives, per command, how many invocations
    make one timed sample.
    """

    form = "ode"
    convert_to = "rn"

    def drift(self, i: int, x) -> Fraction:
        """Exact drift of variable ``i`` at the point ``x`` (indexed by variable)."""
        return sum((_product(c, vs, x) for c, vs in self.terms(i)), Fraction(0))

    def terms(self, i: int):
        """Monomials of the drift of variable ``i`` as (coefficient, variables)."""
        raise NotImplementedError

    def blocks(self, mode: str):
        """The coarsest partition for ``mode`` ("bde" from the initial values,
        "fde" from one block): blocks of sorted indices ordered by minimum."""
        raise NotImplementedError

    def lumped_drift(self, mode: str, b: int, y) -> Fraction:
        """Closed-form drift of block ``b`` of the lumped system at ``y``
        (indexed by block): representatives for bde, block sums for fde."""
        raise NotImplementedError

    def rhs(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def invariants(self, states: np.ndarray):
        """(name, series) of the quantities every trajectory must conserve."""
        return []

    def lumped_names(self, mode: str):
        if mode == "bde":
            return [self.names[block[0]] for block in self.blocks(mode)]
        return ["_".join(self.names[v] for v in block) for block in self.blocks(mode)]

    def lumped_init(self, mode: str):
        if mode == "bde":
            return [self.init[block[0]] for block in self.blocks(mode)]
        return [sum((self.init[v] for v in block), Fraction(0))
                for block in self.blocks(mode)]

    def reference(self):
        """Sampled states of the ``simulate`` command, rows by variables."""
        t_end, dt, sample = self.sim
        return rk4(self.rhs, [float(v) for v in self.init], t_end, dt, sample)

    def text(self) -> str:
        out = ["begin model", "begin init"]
        out.extend(f"  {nm} = {rat(v)}" for nm, v in zip(self.names, self.init))
        out.append("end init")
        out.extend(self.body())
        out.append("end model")
        return "\n".join(out) + "\n"

    def body(self):
        lines = ["begin ode"]
        for i, nm in enumerate(self.names):
            parts = []
            for c, vs in self.terms(i):
                factors = [self.names[v] for v in vs]
                if c != 1:
                    factors.insert(0, rat(abs(c)) if parts else rat(c))
                if parts:
                    parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
                else:
                    parts.append("*".join(factors))
            lines.append(f"  d({nm}) = " + " ".join(parts))
        lines.append("end ode")
        return lines


class Motif(Family):
    """``copies`` copies of the ten-variable motif of demos/05_large_scale.py:
    v_r' = -k_r v_r + v_{r+1} + v_r v_{r+2} (roles mod 10, within a copy).

    The ten decay rates k_r are distinct integers, so no two roles can share
    a backward block: the coarsest bde partition is the ten role classes.
    Every quadratic term ties a variable to a partner of its own copy, so
    the gradient of any block sum tells copies apart and fde keeps
    singletons.  Initial values depend on the role only.
    """

    WIDTH = 10

    def __init__(self, seed: int, copies: int):
        rng = random.Random(seed)
        self.k = [Fraction(v) for v in rng.sample(range(2, 22), self.WIDTH)]
        role_init = [Fraction(rng.randint(1, 9), 10) for _ in range(self.WIDTH)]
        self.copies = copies
        self.names = [f"v{c}r{r}" for c in range(copies) for r in range(self.WIDTH)]
        self.init = role_init * copies
        self.sim = (0.16, 0.01, 4)
        self.reps = {"reduce_bde": 1, "reduce_fde": 1, "simulate": 1, "convert": 1}

    def terms(self, i):
        w = self.WIDTH
        base, r = i - i % w, i % w
        return [(-self.k[r], (i,)), (Fraction(1), (base + (r + 1) % w,)),
                (Fraction(1), (i, base + (r + 2) % w))]

    def blocks(self, mode):
        if mode == "bde":
            return [list(range(r, len(self.names), self.WIDTH)) for r in range(self.WIDTH)]
        return [[v] for v in range(len(self.names))]

    def lumped_drift(self, mode, b, y):
        if mode == "fde":
            return self.drift(b, y)
        w = self.WIDTH
        return -self.k[b] * y[b] + y[(b + 1) % w] + y[b] * y[(b + 2) % w]

    def rhs(self, x):
        k = np.array([float(v) for v in self.k])
        m = x.reshape(self.copies, self.WIDTH)
        d = -k * m + np.roll(m, -1, axis=1) + m * np.roll(m, -2, axis=1)
        return d.reshape(-1)


class Chain(Family):
    """Two identical linear chains x and y of length ``n``, declared as
    x0, y0, x1, y1, ...: x0' = -2a x0 and x_i' = a x_{i-1} - a x_i.

    All initial values are equal.  Swapping the chains is a symmetry and the
    positions differ by their distance to the head (bde) or to both ends
    (fde), so both modes end at the pairs {x_i, y_i}, peeling off about one
    pair per refinement pass.
    """

    def __init__(self, seed: int, n: int):
        rng = random.Random(seed)
        # Every seed gets a rate of the same shape (a non-integer with
        # denominator 3), so the text and the rational arithmetic, and thus
        # the work, do not depend on the seed.
        self.a = Fraction(rng.choice((1, 2, 4, 5)), 3)
        self.n = n
        self.names = [f"{c}{i}" for i in range(n) for c in "xy"]
        self.init = [Fraction(rng.randint(1, 9))] * (2 * n)
        self.sim = (2.0, 0.01, 50)
        self.reps = {"reduce_bde": 1, "reduce_fde": 1, "simulate": 1, "convert": 6}

    def terms(self, i):
        pos = i // 2
        if pos == 0:
            return [(-2 * self.a, (i,))]
        return [(self.a, (i - 2,)), (-self.a, (i,))]

    def blocks(self, mode):
        return [[2 * i, 2 * i + 1] for i in range(self.n)]

    def lumped_drift(self, mode, b, y):
        if b == 0:
            return -2 * self.a * y[0]
        return self.a * (y[b - 1] - y[b])

    def matrix(self) -> np.ndarray:
        size = 2 * self.n
        m = np.zeros((size, size))
        for i in range(size):
            for c, (v,) in self.terms(i):
                m[i, v] += float(c)
        return m

    def reference(self):
        """Exact solution of the linear system, exp(A t) x(0), on the sample grid."""
        from scipy.linalg import expm

        t_end, dt, sample = self.sim
        steps = max(1, round(t_end / dt))
        step = expm(self.matrix() * (dt * sample))
        x = np.array([float(v) for v in self.init])
        rows = [x]
        for _ in range(steps // sample):
            x = step @ x
            rows.append(x)
        return np.vstack(rows)


class Sites(Family):
    """A protein with ``k`` independent binding sites for a ligand L, as a
    reaction network: P_s + L -> P_{s+i} at rate a and back at rate b, for
    every site set s and free site i.  Species P_s are declared in the order
    of the bit mask s, then L.

    Initial values depend on the bound-site count only, so both modes end at
    one block per count plus {L}.  The lumped systems are
    bde: R_j' = a j L R_{j-1} - a (k-j) R_j L - b j R_j + b (k-j) R_{j+1},
    fde: M_j' = a (k-j+1) M_{j-1} L - a (k-j) M_j L - b j M_j + b (j+1) M_{j+1}.
    """

    form = "rn"
    convert_to = "ode"

    def __init__(self, seed: int, k: int):
        rng = random.Random(seed)
        # Rates of one shape for every seed, as in Chain.
        self.a = Fraction(rng.choice((1, 3, 5)), 2)
        self.b = Fraction(rng.choice((1, 3, 5)), 4)
        self.k = k
        size = 1 << k
        self.pop = [bin(s).count("1") for s in range(size)]
        # About one unit of protein in all, whatever k, keeps the system mild.
        count_init = [Fraction(rng.randint(1, 9), 10 << k) for _ in range(k + 1)]
        self.names = ["P" + "".join("1" if s >> i & 1 else "0" for i in range(k))
                      for s in range(size)] + ["L"]
        self.init = [count_init[p] for p in self.pop] + [Fraction(rng.randint(5, 15), 10)]
        self.sim = (0.08, 0.005, 4)
        self.reps = {"reduce_bde": 1, "reduce_fde": 1, "simulate": 1, "convert": 1}

    def body(self):
        names, lig = self.names, self.names[-1]
        lines = ["begin reactions"]
        for s in range(1 << self.k):
            for i in range(self.k):
                if not s >> i & 1:
                    t = s | 1 << i
                    lines.append(f"  {names[s]} + {lig} -> {names[t]}, {rat(self.a)}")
                    lines.append(f"  {names[t]} -> {names[s]} + {lig}, {rat(self.b)}")
        lines.append("end reactions")
        return lines

    def drift(self, i, x):
        a, b, k, size = self.a, self.b, self.k, 1 << self.k
        lig = x[size]
        if i == size:
            return sum((-a * (k - p) * x[s] * lig + b * p * x[s]
                        for s, p in enumerate(self.pop)), Fraction(0))
        s, p = i, self.pop[i]
        total = -a * (k - p) * x[s] * lig - b * p * x[s]
        for j in range(k):
            bit = 1 << j
            if s & bit:
                total += a * lig * x[s ^ bit]
            else:
                total += b * x[s | bit]
        return total

    def blocks(self, mode):
        by_count = [[] for _ in range(self.k + 1)]
        for s, p in enumerate(self.pop):
            by_count[p].append(s)
        return by_count + [[1 << self.k]]

    def lumped_drift(self, mode, b, y):
        a, rb, k = self.a, self.b, self.k
        lig = y[k + 1]
        # bde counts every member of a count class; fde sums them into M_j.
        weight = (lambda j: comb(k, j)) if mode == "bde" else (lambda j: 1)
        if b == k + 1:
            return sum((weight(j) * (-a * (k - j) * y[j] * lig + rb * j * y[j])
                        for j in range(k + 1)), Fraction(0))
        j = b
        total = -a * (k - j) * y[j] * lig - rb * j * y[j]
        if mode == "bde":
            if j > 0:
                total += a * j * lig * y[j - 1]
            if j < k:
                total += rb * (k - j) * y[j + 1]
        else:
            if j > 0:
                total += a * (k - j + 1) * lig * y[j - 1]
            if j < k:
                total += rb * (j + 1) * y[j + 1]
        return total

    def invariants(self, states):
        size = len(self.pop)
        pop = np.array(self.pop, dtype=float)
        return [("total protein", states[:, :size].sum(axis=1)),
                ("total ligand", states[:, size] + states[:, :size] @ pop)]

    def rhs(self, x):
        if not hasattr(self, "_index"):
            s = np.arange(1 << self.k)
            self._index = [(1 << i, (s & 1 << i) != 0) for i in range(self.k)]
            self._s = s
            self._popf = np.array(self.pop, dtype=float)
        a, b, k, size = float(self.a), float(self.b), self.k, 1 << self.k
        p, lig, s, pop = x[:size], x[size], self._s, self._popf
        out = np.empty_like(x)
        dp = -(a * (k - pop) * lig + b * pop) * p
        for bit, has in self._index:
            dp[has] += a * lig * p[s[has] ^ bit]
            dp[~has] += b * p[s[~has] | bit]
        out[:size] = dp
        out[size] = np.sum(-a * (k - pop) * p * lig + b * pop * p)
        return out


# Sizes: "full" is what the benchmark times, "tiny" what the self-test runs.
SIZES = {
    "motif": {"full": 200, "tiny": 3},
    "chain": {"full": 200, "tiny": 6},
    "sites": {"full": 9, "tiny": 3},
}
FAMILIES = {"motif": Motif, "chain": Chain, "sites": Sites}


def make(workload: str, seed: int, size: str = "full") -> Family:
    return FAMILIES[workload](seed, SIZES[workload][size])
