"""Checks of odelump's output files against a model family.

The files are read back here with a reader of this benchmark's own (a small
tokenizer and expression evaluator over exact rationals), not with odelump's
parser, and compared with what the family derives by construction:

* a reduced model must have the expected blocks (by their names), initial
  values and, at seeded random rational points, drifts exactly equal to the
  closed-form lumped system;
* a converted model must have the family's initial values and, read as
  odes or as mass-action reactions, drifts exactly equal to the family's;
* a trajectory must match the family's reference trajectory, and on the
  binding-site network conserve total protein and total ligand.

Each check raises ``CheckFailed`` with a message naming what differs.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    pass


_TOKEN = re.compile(r"\s+|//[^\n]*|(\d+(?:\.\d+)?|[A-Za-z_]\w*|->|[=(){},+\-*/])")


def _tokens(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise CheckFailed(f"unreadable output near {text[pos:pos + 20]!r}")
        if m.group(1) is not None:
            out.append(m.group(1))
        pos = m.end()
    out.append("")
    return out


class _Reader:
    """Recursive-descent reader for the model grammar's polynomial subset.

    Sums and products are kept flat, so a drift with thousands of terms does
    not nest deeply.
    """

    def __init__(self, text):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, expected=None):
        tok = self.toks[self.pos]
        if expected is not None and tok != expected:
            raise CheckFailed(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def rational(self):
        neg = self.peek() == "-"
        if neg:
            self.take()
        value = Fraction(self.take())
        if self.peek() == "/":
            self.take()
            value /= Fraction(self.take())
        return -value if neg else value

    def expr(self):
        terms = [(1, self.term())]
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            terms.append((sign, self.term()))
        return ("sum", terms)

    def term(self):
        factors = [(1, self.factor())]
        while self.peek() in ("*", "/"):
            power = 1 if self.take() == "*" else -1
            factors.append((power, self.factor()))
        return ("prod", factors)

    def factor(self):
        tok = self.take()
        if tok == "-":
            return ("neg", self.factor())
        if tok == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if tok[:1].isdigit():
            return ("num", Fraction(tok))
        return ("var", tok)

    def mset(self):
        if self.peek() == "0":
            self.take()
            return {}
        out = {}
        while True:
            mult = 1
            if self.peek()[:1].isdigit():
                mult = int(self.take())
                self.take("*")
            name = self.take()
            out[name] = out.get(name, 0) + mult
            if self.peek() != "+":
                return out
            self.take()


def _evaluate(node, values):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return values[node[1]]
    if kind == "neg":
        return -_evaluate(node[1], values)
    if kind == "sum":
        total = Fraction(0)
        for sign, sub in node[1]:
            total += _evaluate(sub, values) if sign > 0 else -_evaluate(sub, values)
        return total
    result = Fraction(1)
    for power, sub in node[1]:
        value = _evaluate(sub, values)
        result = result * value if power > 0 else result / value
    return result


class Model:
    """A model file as read back: names in order, initial values, and a drift
    function ``drift(name, values)`` for either drift section."""

    def __init__(self, text):
        r = _Reader(text)
        for word in ("begin", "model", "begin", "init"):
            r.take(word)
        self.names, self.init = [], {}
        while r.peek() != "end":
            name = r.take()
            r.take("=")
            self.names.append(name)
            self.init[name] = r.rational()
        r.take("end")
        r.take("init")
        r.take("begin")
        self.form = r.take()
        self.odes, self._mass_action = {}, {}
        while r.peek() != "end":
            if self.form == "ode":
                r.take("d")
                r.take("(")
                name = r.take()
                r.take(")")
                r.take("=")
                self.odes[name] = r.expr()
            elif self.form == "reactions":
                reagents = r.mset()
                r.take("->")
                products = r.mset()
                r.take(",")
                rate = r.rational()
                for name in set(reagents) | set(products):
                    change = products.get(name, 0) - reagents.get(name, 0)
                    if change:
                        self._mass_action.setdefault(name, []).append(
                            (rate * change, reagents))
            else:
                raise CheckFailed(f"unknown drift section {self.form!r}")
        r.take("end")
        r.take(self.form)
        r.take("end")
        r.take("model")
        r.take("")

    def drift(self, name, values) -> Fraction:
        if self.form == "ode":
            node = self.odes.get(name)
            return Fraction(0) if node is None else _evaluate(node, values)
        total = Fraction(0)
        for coeff, reagents in self._mass_action.get(name, ()):
            for species, mult in reagents.items():
                coeff *= values[species] ** mult
            total += coeff
        return total


def random_point(rng, count):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(count)]


def _compare_system(model, names, init, drift_of, rng, points, what):
    if sorted(model.names) != sorted(names):
        missing = sorted(set(names) - set(model.names))[:3]
        extra = sorted(set(model.names) - set(names))[:3]
        raise CheckFailed(f"{what}: {len(model.names)} variables, expected "
                          f"{len(names)}; missing {missing}, unexpected {extra}")
    for nm, value in zip(names, init):
        if model.init[nm] != value:
            raise CheckFailed(f"{what}: init of {nm} is {model.init[nm]}, expected {value}")
    for _ in range(points):
        point = random_point(rng, len(names))
        values = dict(zip(names, point))
        for i, nm in enumerate(names):
            got, want = model.drift(nm, values), drift_of(i, point)
            if got != want:
                raise CheckFailed(f"{what}: drift of {nm} at a random point is "
                                  f"{got}, expected {want}")


def check_reduced(family, mode, text, seed, points=2):
    """The reduced model equals the closed-form lumped system of ``mode``."""
    _compare_system(Model(text), family.lumped_names(mode), family.lumped_init(mode),
                    lambda b, y: family.lumped_drift(mode, b, y),
                    random.Random(seed), points, f"reduce --mode {mode}")


def check_converted(family, text, seed, points=2):
    """The converted model has the other drift section and the same system."""
    model = Model(text)
    expected = {"ode": "ode", "rn": "reactions"}[family.convert_to]
    if model.form != expected:
        raise CheckFailed(f"convert wrote a {model.form} section, expected {expected}")
    _compare_system(model, family.names, family.init, family.drift,
                    random.Random(seed), points, f"convert --to {family.convert_to}")


def read_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:] if line])
    return header, rows


def check_trajectory(family, text, rtol=1e-7, atol=1e-9):
    """The sampled trajectory matches the family's reference and, for the
    binding-site network, conserves total protein and total ligand."""
    header, rows = read_csv(text)
    if header != ["time"] + list(family.names):
        raise CheckFailed("simulate wrote an unexpected CSV header")
    t_end, dt, sample = family.sim
    steps = max(1, round(t_end / dt))
    times = np.array([0.0] + [k * dt for k in range(sample, steps + 1, sample)])
    reference = family.reference()
    states = rows[:, 1:]
    if states.shape != reference.shape or not np.allclose(rows[:, 0], times, rtol=1e-9):
        raise CheckFailed(f"simulate wrote {states.shape} samples by variables at times "
                          f"{rows[:, 0]}, expected {reference.shape} at {times}")
    if not np.allclose(states, reference, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(states - reference)))
        raise CheckFailed(f"simulate differs from the reference by up to {worst:.3g}")
    for name, series in family.invariants(states):
        if not np.allclose(series, series[0], rtol=rtol, atol=atol):
            raise CheckFailed(f"simulate does not conserve {name}")
