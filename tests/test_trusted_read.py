"""The model reader enforces every input rule in its own read and builds its
system or network with the trusted constructors, which skip the container
checks.  So each container it returns must equal, hash like and be as frozen
as the one the public constructors build from the same fields, which run
every check; that holds for the golden models (polynomial, expression and
reaction files), the benchmark shapes and the hypothesis texts of
``tests/test_statement_read.py``."""

import dataclasses

import pytest
from hypothesis import given, settings

from odelump import OdeLumpError, Reaction, ReactionNetwork, parse_model
from test_statement_read import CHAIN, GOLDEN, MOTIF, SITES, model_texts, respaced


def _checked(system):
    """The container the public constructors build from ``system``'s fields,
    each reaction included."""
    fields = {f.name: getattr(system, f.name) for f in dataclasses.fields(system)}
    if isinstance(system, ReactionNetwork):
        fields["reactions"] = tuple(Reaction(r.reagents, r.products, r.rate)
                                    for r in system.reactions)
    return type(system)(**fields)


def _same_as_checked(system):
    checked = _checked(system)
    assert system == checked and hash(system) == hash(checked)
    assert type(system) is type(checked)
    for field in dataclasses.fields(system):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(system, field.name, getattr(system, field.name))
    for r in getattr(system, "reactions", ()):
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.rate = r.rate


TEXTS = {path.stem: path.read_text() for path in GOLDEN}
TEXTS.update(motif=MOTIF, chain=CHAIN, sites=SITES)


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
def test_read_containers_equal_checked_ones(text):
    _same_as_checked(parse_model(text).system)


def test_every_kind_of_container_is_read():
    systems = [parse_model(text).system for text in TEXTS.values()]
    assert any(isinstance(s, ReactionNetwork) for s in systems)
    assert any(not isinstance(s, ReactionNetwork) and s.is_polynomial for s in systems)
    assert any(not isinstance(s, ReactionNetwork) and not s.is_polynomial for s in systems)


def _read_or_refused(text):
    try:
        return parse_model(text).system
    except OdeLumpError:
        return None


@given(model_texts())
@settings(deadline=None)
def test_generated_texts_read_into_checked_containers(text):
    system = _read_or_refused(text)
    if system is not None:
        _same_as_checked(system)


@given(respaced())
@settings(deadline=None)
def test_respaced_texts_read_into_checked_containers(text):
    system = _read_or_refused(text)
    if system is not None:
        _same_as_checked(system)
