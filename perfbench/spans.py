"""Spans around the public functions of odelump's layers, recorded from outside.

``Recorder.patched()`` replaces each traced function, wherever an odelump
module holds a reference to it, by a wrapper that records a span (name,
start, end, parent) and a few counts, and puts the originals back on exit.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (defining module, function, span name); the span name of the refinement
# gets the mode appended.
TRACED = (
    ("odelump.parsing", "parse_model", "parsing.parse"),
    ("odelump.parsing", "serialize_model", "parsing.serialize"),
    ("odelump.encode", "rn_to_ode", "encode.rn_to_ode"),
    ("odelump.encode", "ode_to_rn", "encode.ode_to_rn"),
    ("odelump.lump", "prepartition_from_inits", "lump.seed"),
    ("odelump.lump", "coarsest_with_trace", "lump.refine"),
    ("odelump.lump", "check_bde", "lump.check_bde"),
    ("odelump.lump", "check_fde", "lump.check_fde"),
    ("odelump.lump", "reduce_backward", "lump.reduce_backward"),
    ("odelump.lump", "reduce_forward", "lump.reduce_forward"),
    ("odelump.sim", "integrate", "sim.integrate"),
    ("odelump.sim", "write_csv", "sim.write_csv"),
)


def _counts(name, args, result):
    """Counts read off a traced call: refinement passes and blocks, and the
    monomials going into and out of a reduction."""
    if name.startswith("lump.refine"):
        part, passes = result
        return {"passes": len(passes), "blocks": part.block_count,
                "partition": [list(b) for b in part.blocks]}
    if name.startswith("lump.reduce"):
        return {"monomials_in": args[0].monomial_count(),
                "monomials_out": result.monomial_count()}
    return None


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name
            if name == "lump.refine":
                full += "_" + (args[2] if len(args) > 2 else kwargs["mode"])
            with self.span(full) as record:
                result = fn(*args, **kwargs)
                counts = _counts(full, args, result)
                if counts:
                    record["counts"] = counts
            return result
        return traced

    @contextmanager
    def patched(self):
        """Trace every call of the functions in ``TRACED`` made through any
        odelump module while the context is open."""
        swaps = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "odelump" or key.startswith("odelump.")]
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                if getattr(module, attr, None) is original:
                    swaps.append((module, attr, original))
                    setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original in reversed(swaps):
                setattr(module, attr, original)


def self_times(spans):
    """Per span id, its duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
