"""Each input rule is checked once: every public entry point makes one call
of ``system._require``, and a partition that ``coarsest_with_trace``
returned for a system object is checked and reduced with no call at all.

The guard is counted wherever an odelump module holds a reference to it.
"""

import importlib
import pkgutil

import pytest

import odelump
from odelump import (Partition, SolverNotFound, brute_force_coarsest,
                     build_phi_bde, build_phi_fde, check_bde, check_fde,
                     coarsest_with_trace, integrate, ode_to_rn, parse_model,
                     prepartition_from_inits, reduce_backward,
                     reduce_forward, serialize_model, symbolic_coarsest_with_trace)
from odelump import system as system_module
from conftest import cascade

_EXPR_MODEL = ("begin model begin init x=1 y=1 end init "
               "begin ode d(x) = min(x, y) d(y) = max(y, x) end ode end model")


@pytest.fixture
def guard_calls(monkeypatch):
    """The argument tuples of every guard call made while the test runs."""
    calls = []
    real = system_module._require

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    holders = set()
    for info in pkgutil.iter_modules(odelump.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"odelump.{info.name}")
        if getattr(module, "_require", None) is real:
            monkeypatch.setattr(module, "_require", counting)
            holders.add(info.name)
    assert {"system", "lump", "sim", "smt", "encode"} <= holders
    return calls


def _inputs(kind):
    """An expression system with singletons, or a cascade with its coarsest
    ``kind`` partition, rebuilt so that it carries no proof of stability."""
    if kind == "expression":
        system = parse_model(_EXPR_MODEL).system
        return system, Partition.singletons(system.n)
    system = cascade()
    part, _ = coarsest_with_trace(system, Partition.one_block(system.n), kind)
    return system, Partition(part.blocks)


_ENTRY_POINTS = {
    "check_bde": ("bde", check_bde),
    "check_fde": ("fde", check_fde),
    "coarsest_with_trace bde": ("bde", lambda s, p: coarsest_with_trace(s, p, "bde")),
    "coarsest_with_trace fde": ("fde", lambda s, p: coarsest_with_trace(s, p, "fde")),
    "brute_force_coarsest": ("bde", lambda s, p: brute_force_coarsest(s, p, "bde")),
    "prepartition_from_inits": ("bde", prepartition_from_inits),
    "build_phi_bde": ("bde", build_phi_bde),
    "build_phi_fde": ("fde", build_phi_fde),
    "integrate": ("bde", lambda s, p: integrate(s, 0.1, 0.05)),
    "integrate expression": ("expression", lambda s, p: integrate(s, 0.1, 0.05)),
    "ode_to_rn": ("bde", lambda s, p: ode_to_rn(s)),
    "serialize_model rn": ("bde", lambda s, p: serialize_model(s, "rn")),
    "reduce_backward": ("bde", reduce_backward),
    "reduce_forward": ("fde", reduce_forward),
    "reduce_backward expression": ("expression", reduce_backward),
    "reduce_forward expression": ("expression", reduce_forward),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_each_public_entry_point_guards_once(entry, guard_calls):
    kind, call = _ENTRY_POINTS[entry]
    system, part = _inputs(kind)
    guard_calls.clear()
    call(system, part)
    assert len(guard_calls) == 1
    assert guard_calls[0][0] is system


def test_the_solver_loop_guards_before_it_starts_a_solver(guard_calls):
    system, part = _inputs("bde")
    guard_calls.clear()
    with pytest.raises(SolverNotFound):
        symbolic_coarsest_with_trace(system, part, "bde", "odelump-no-such-solver")
    assert len(guard_calls) == 1


@pytest.mark.parametrize("mode, check, reduce", [
    ("bde", check_bde, reduce_backward),
    ("fde", check_fde, reduce_forward),
])
def test_a_proven_partition_is_not_guarded_again(mode, check, reduce, guard_calls):
    system = cascade()
    part, _ = coarsest_with_trace(system, Partition.one_block(system.n), mode)
    assert part.block_count < system.n  # not the all-singletons shortcut
    assert len(guard_calls) == 1
    guard_calls.clear()
    assert check(system, part).ok
    reduced = reduce(system, part)
    assert reduced.n == part.block_count
    assert guard_calls == []


@pytest.mark.parametrize("mode, check", [("bde", check_bde), ("fde", check_fde)])
def test_a_proof_holds_only_for_its_own_system_and_mode(mode, check, guard_calls):
    system = cascade()
    part, _ = coarsest_with_trace(system, Partition.one_block(system.n), mode)
    other = check_fde if check is check_bde else check_bde
    for run in (lambda: check(cascade(), part),       # an equal system
                lambda: check(system, Partition(part.blocks)),  # an equal partition
                lambda: other(system, part)):         # the other mode
        guard_calls.clear()
        run()
        assert len(guard_calls) == 1
