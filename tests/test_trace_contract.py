"""The benchmark's tracer reaches the lumping layers by module attribute.

``perfbench/spans.Recorder.patched()`` swaps each traced function for a
wrapper wherever an odelump module holds a reference to it, so the CLI must
call those functions through their module-level names.  This guards that
contract on the reduce command in both modes.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from odelump.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "t02_cascade.ode"


def _spans_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reduce_records_every_lumping_span(tmp_path):
    recorder = _spans_module().Recorder()
    with recorder.patched(), contextlib.redirect_stdout(io.StringIO()):
        for mode in ("bde", "fde"):
            assert main(["reduce", "--mode", mode, "--in", str(GOLDEN),
                         "--out", str(tmp_path / f"{mode}.ode")]) == 0
    spans = {s["name"]: s for s in recorder.spans}
    for name in ("lump.seed", "lump.refine_bde", "lump.refine_fde",
                 "lump.check_bde", "lump.check_fde",
                 "lump.reduce_backward", "lump.reduce_forward"):
        assert name in spans, name
    for mode in ("bde", "fde"):
        assert {"passes", "blocks"} <= set(spans["lump.refine_" + mode]["counts"])
    for direction in ("backward", "forward"):
        counts = spans["lump.reduce_" + direction]["counts"]
        assert {"monomials_in", "monomials_out"} <= set(counts)
