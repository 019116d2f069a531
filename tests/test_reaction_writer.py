"""Reaction form is written straight from the drifts.

``serialize_model(system, "rn")`` writes each reaction from the triples of
``encode._reactions``, the derivation ``ode_to_rn`` wraps, with no
``Reaction`` or ``ReactionNetwork`` built, and turns each distinct number
object into text once.  These tests hold its text to that of the network
``ode_to_rn`` returns, and count what the writer builds and formats."""

from fractions import Fraction
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import odelump.encode as encode
import odelump.parsing as parsing
from odelump import (OdeSystem, Partition, Polynomial, Reaction, ReactionNetwork, monomial,
                     ode_to_rn, parse_model, rn_to_ode, serialize_model)
from odelump.cli import main
from odelump.parsing import ModelDocument
from test_statement_read import CHAIN, MOTIF, SITES

GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.ode"))


def _as_ode(doc: ModelDocument) -> ModelDocument:
    if isinstance(doc.system, ReactionNetwork):
        return ModelDocument(rn_to_ode(doc.system), doc.user_partition)
    return doc


def _assert_written_as_its_network(doc: ModelDocument):
    network = ModelDocument(ode_to_rn(doc.system), doc.user_partition)
    assert serialize_model(doc, "rn") == serialize_model(network, "rn")


def _polynomial_documents():
    for path in GOLDEN:
        doc = parse_model(path.read_text())
        if getattr(doc.system, "is_polynomial", True):
            yield _as_ode(doc)
    for text in (MOTIF, CHAIN, SITES):
        yield _as_ode(parse_model(text))


def test_every_polynomial_model_is_written_as_its_network():
    documents = list(_polynomial_documents())
    assert len(documents) == 22  # 19 polynomial golden models and the three shapes
    for doc in documents:
        _assert_written_as_its_network(doc)


_coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _documents(draw):
    """Polynomial systems with zero drifts, constant, squared and
    two-variable monomials, negative and fractional rates and initial
    values, perhaps observables and perhaps a partition."""
    n = draw(st.integers(1, 4))
    exps = st.dictionaries(st.integers(0, n - 1), st.integers(1, 2), max_size=2)
    drifts = [Polynomial([monomial(c, e) for e, c in
                          draw(st.lists(st.tuples(exps, _coefficients), max_size=4))])
              for _ in range(n)]
    init = draw(st.lists(_coefficients, min_size=n, max_size=n))
    observables = draw(st.none() | st.sets(st.integers(0, n - 1), min_size=1))
    system = OdeSystem.make([f"x{i}" for i in range(n)], drifts, init, observables)
    labels = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if labels is None:
        return ModelDocument(system)
    blocks = {}
    for v, label in enumerate(labels):
        blocks.setdefault(label, []).append(v)
    return ModelDocument(system, Partition(blocks.values()))


@given(_documents())
def test_random_systems_are_written_as_their_networks(doc):
    _assert_written_as_its_network(doc)
    assert rn_to_ode(parse_model(serialize_model(doc, "rn")).system) == doc.system


def test_writing_reaction_form_builds_no_reaction(monkeypatch, tmp_path):
    calls = []
    real = encode._trusted

    def counting(cls, **fields):
        if cls is Reaction:
            calls.append(fields)
        return real(cls, **fields)

    for module in (encode, parsing):
        monkeypatch.setattr(module, "_trusted", counting)
    model = tmp_path / "motif.ode"
    model.write_text(MOTIF)
    out = tmp_path / "motif.rn.ode"
    assert main(["convert", "--to", "rn", "--in", str(model), "--out", str(out)]) == 0
    assert calls == []
    network = ode_to_rn(parse_model(MOTIF).system)  # the count sees every call
    assert len(calls) == len(network.reactions) == 9
    assert out.read_text() == serialize_model(network, "rn")


def test_each_distinct_number_is_formatted_once(monkeypatch):
    system = parse_model(MOTIF).system
    distinct = len(set(map(id, system.init))) + \
        len({r.rate for r in ode_to_rn(system).reactions})
    formatted = []
    real = Fraction.__str__

    def counting(value):
        formatted.append(value)
        return real(value)

    monkeypatch.setattr(Fraction, "__str__", counting)
    serialize_model(system, "rn")
    assert len(formatted) == distinct == 7  # 3 initial values, 4 rates

