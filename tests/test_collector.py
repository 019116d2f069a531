"""The command line pauses the cyclic garbage collector while a command runs.

``cli.main`` disables the collector and restores the state it found; no
library function touches the collector.  That is safe only because a run
builds no reference cycles that grow with the model: reference counting
frees everything else.  These tests pin both halves."""

import contextlib
import gc
import io

import pytest

from odelump import (Partition, coarsest_with_trace, integrate, parse_model,
                     reduce_backward, reduce_forward)
from odelump import cli
from odelump.cli import main
from conftest import cascade_text
from test_cli import PARTITION_BLOCK
from test_smt import seq_cmd


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector switched on or off for the test, and restored after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _cases(tmp_path):
    """(argv, exit code) of commands that end in each way ``main`` can end."""
    ok = tmp_path / "ok.ode"
    ok.write_text(cascade_text(k1=1, k2=1, extra=PARTITION_BLOCK))
    not_bde = tmp_path / "not_bde.ode"
    not_bde.write_text(cascade_text(k1=1, k2=2, extra=PARTITION_BLOCK))
    out = str(tmp_path / "out.ode")
    return [
        (["reduce", "--mode", "bde", "--in", str(ok), "--out", out], 0),
        (["check", "--mode", "bde", "--in", str(not_bde)], 1),
        (["check", "--mode", "bde", "--in", str(tmp_path / "missing.ode")], 2),
        (["reduce", "--mode", "sideways"], 2),  # argparse rejects it
        (["--help"], 0),  # argparse exits after printing
        (["check", "--mode", "fde", "--backend", "smt", "--in", str(ok),
          "--solver-cmd", seq_cmd(tmp_path, ["unknown"])], 3),
        (["oracle", "--mode", "bde", "--in", str(ok)], 4),  # see broken below
    ]


def test_main_restores_the_collector_state(collector, tmp_path, monkeypatch):
    def broken(args):
        raise KeyError("invariant")

    monkeypatch.setitem(cli._DISPATCH, "oracle", broken)
    for argv, code in _cases(tmp_path):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == code, argv
        assert gc.isenabled() is collector, argv


def test_main_pauses_the_collector_during_the_command(collector, tmp_path, monkeypatch):
    seen = []

    def spy(args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setitem(cli._DISPATCH, "oracle", spy)
    assert main(["oracle", "--mode", "bde", "--in", str(tmp_path / "m.ode")]) == 0
    assert seen == [False]
    assert gc.isenabled() is collector


def test_library_functions_leave_the_collector_alone(collector, monkeypatch):
    calls = []
    for name in ("enable", "disable", "freeze", "unfreeze", "set_threshold", "collect"):
        monkeypatch.setattr(gc, name, lambda *args, _name=name: calls.append(_name))
    system = parse_model(cascade_text(k1=1, k2=1, init=(1, 1, 1))).system
    for mode, reduce in (("bde", reduce_backward), ("fde", reduce_forward)):
        part, _ = coarsest_with_trace(system, Partition.one_block(3), mode)
        reduce(system, part)
    integrate(system, 1.0, 0.1)
    assert calls == []
    assert gc.isenabled() is collector


# -- no cycles that grow with the model -----------------------------------------------


def _ode_copies(k):
    """``k`` uncoupled three-variable cascades: a decays and feeds b and c
    alike, so both modes find blocks."""
    init, drifts = [], []
    for i in range(k):
        init += [f"  a{i} = 1", f"  b{i} = 1/2", f"  c{i} = 1/2"]
        drifts += [f"  d(a{i}) = -a{i}", f"  d(b{i}) = 2*a{i} - b{i} - a{i}*b{i}",
                   f"  d(c{i}) = 2*a{i} - c{i} - a{i}*c{i}"]
    return "\n".join(["begin model", "begin init", *init, "end init",
                      "begin ode", *drifts, "end ode", "end model", ""])


def _rn_copies(k):
    """``k`` uncoupled copies of a three-species reaction network."""
    init, reactions = [], []
    for i in range(k):
        init += [f"  a{i} = 1", f"  b{i} = 1/2", f"  c{i} = 1/2"]
        reactions += [f"  a{i} -> a{i} + b{i}, 2", f"  a{i} -> a{i} + c{i}, 2",
                      f"  b{i} + c{i} -> a{i}, 3", f"  a{i} -> a{i} + a{i}, -1"]
    return "\n".join(["begin model", "begin init", *init, "end init",
                      "begin reactions", *reactions, "end reactions", "end model", ""])


COMMANDS = {
    "reduce-bde": (_ode_copies, ["reduce", "--mode", "bde"]),
    "reduce-fde": (_ode_copies, ["reduce", "--mode", "fde"]),
    "simulate": (_ode_copies, ["simulate", "--t-end", "1", "--dt", "0.1"]),
    "convert-rn": (_ode_copies, ["convert", "--to", "rn"]),
    "convert-ode": (_rn_copies, ["convert", "--to", "ode"]),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_cyclic_garbage_does_not_grow_with_the_model(command, tmp_path):
    """With the collector off, a command on a model ten times larger leaves
    no more cyclic garbage than on the small one.  The first call, which
    imports and caches, is not counted."""
    text, argv = COMMANDS[command]
    small, large = tmp_path / "small.ode", tmp_path / "large.ode"
    small.write_text(text(3))
    large.write_text(text(30))
    out = str(tmp_path / "out")

    def garbage(model):
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--in", str(model), "--out", out]) == 0
        return gc.collect()

    was = gc.isenabled()
    gc.disable()
    try:
        garbage(small)
        left = garbage(small), garbage(large)
    finally:
        if was:
            gc.enable()
    assert left[1] <= left[0], left
