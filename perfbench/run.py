"""Benchmark of odelump's reduce, simulate and convert commands.

    python3 perfbench/run.py --workload motif|chain|sites --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; odelump is imported from its ``src``.  The
run generates the workload's model file from the seed (timed as set-up, in
fresh processes), then repeats whole rounds of four commands through
``odelump.cli.main`` for ``--seconds``: reduce --mode bde, reduce --mode fde,
simulate and convert.  The first round's outputs are checked against the
family's independent derivation (see checks.py); later rounds must write the
same bytes.  One process, one thread.

Every time is in host-speed-corrected seconds (see speed.py).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, medians over the rounds.  With ``--trace 1`` rounds
alternate between traced and untraced; the traced ones give the per-layer
metrics (see spans.py).  Raw timings, calibrations and, when traced, the
spans go to ``perfbench/out/<workload>/log-trace<0|1>.json``.
"""

from __future__ import annotations

import os

# One thread: numpy and scipy must not start a BLAS pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from spans import Recorder, self_times
from speed import Clock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7
COMMANDS = ("reduce_bde", "reduce_fde", "simulate", "convert")

# Spans of the traced layers; each gives the per-layer metric "<span>_s", its
# self time per invocation summed over the four commands of a round.  The
# root spans "cli.<command>" give "cli.other_s".
LAYER_SPANS = (
    "parsing.parse", "parsing.serialize", "encode.rn_to_ode", "encode.ode_to_rn",
    "lump.seed", "lump.refine_bde", "lump.refine_fde", "lump.check_bde",
    "lump.check_fde", "lump.reduce_backward", "lump.reduce_forward",
    "sim.integrate", "sim.write_csv",
)


def import_cli():
    """odelump.cli from this checkout's src, or ImportError."""
    sys.path.insert(0, str(SRC))
    import odelump.cli

    if Path(odelump.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"odelump imported from {odelump.__file__}, not {SRC}")
    return odelump.cli


def setup(workload, seed, size, model):
    """Median corrected duration of starting a process that imports odelump
    and writes the model file; the last run's file is the one the commands
    read."""
    clock = Clock()
    argv = [sys.executable, str(HERE / "gen.py"), workload, str(seed), size, str(model)]
    durations = [clock.measure(lambda: subprocess.run(argv, check=True))[0]
                 for _ in range(SETUP_REPEATS)]
    return statistics.median(durations), clock.log


def commands(family, model, work):
    """(name, argv, output path) of the four commands of a round."""
    t_end, dt, sample = family.sim
    args = {
        "reduce_bde": ["reduce", "--mode", "bde"],
        "reduce_fde": ["reduce", "--mode", "fde"],
        "simulate": ["simulate", "--t-end", repr(t_end), "--dt", repr(dt),
                     "--sample", str(sample)],
        "convert": ["convert", "--to", family.convert_to],
    }
    return [(name, args[name] + ["--in", str(model), "--out", str(work / name)], work / name)
            for name in COMMANDS]


def check_outputs(family, outputs, seed):
    checks.check_reduced(family, "bde", outputs["reduce_bde"], seed)
    checks.check_reduced(family, "fde", outputs["reduce_fde"], seed)
    checks.check_trajectory(family, outputs["simulate"])
    checks.check_converted(family, outputs["convert"], seed)


def layer_metrics(family, rounds):
    """Per-layer metrics from the traced rounds (medians over rounds of the
    corrected self times) and the partitions the refinement returned."""
    per_round = []
    counts = {}
    for spans in rounds:
        own = self_times(spans)
        root_of = {}
        totals = dict.fromkeys([name + "_s" for name in LAYER_SPANS] + ["cli.other_s"], 0.0)
        for s in spans:
            root = s if s["parent"] is None else root_of[s["parent"]]
            root_of[s["id"]] = root
            metric = "cli.other_s" if s is root else s["name"] + "_s"
            totals[metric] += own[s["id"]] * root["scale"]
            for key, value in s.get("counts", {}).items():
                counts[(s["name"], key)] = value
        per_round.append(totals)
    metrics = {name: (statistics.median(r[name] for r in per_round), "s")
               for name in per_round[0]}
    t_end, dt, _ = family.sim
    steps = max(1, round(t_end / dt))
    metrics["sim.step_ms"] = (metrics["sim.integrate_s"][0] / steps * 1000, "ms")
    partitions = {}
    for mode in ("bde", "fde"):
        refine = "lump.refine_" + mode
        metrics[f"lump.passes_{mode}"] = (counts[(refine, "passes")], "count")
        metrics[f"lump.blocks_{mode}"] = (counts[(refine, "blocks")], "count")
        partitions[mode] = counts[(refine, "partition")]
    forward, backward = "lump.reduce_forward", "lump.reduce_backward"
    metrics["poly.monomials_in"] = (counts[(backward, "monomials_in")], "count")
    metrics["poly.monomials_out_bde"] = (counts[(backward, "monomials_out")], "count")
    metrics["poly.monomials_out_fde"] = (counts[(forward, "monomials_out")], "count")
    return metrics, partitions


def run(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns the result object printed as the last line."""
    cli = import_cli()
    family = workloads.make(workload, seed, size)
    work = HERE / "out" / workload
    work.mkdir(parents=True, exist_ok=True)
    model = work / "model.ode"
    setup_s, setup_log = setup(workload, seed, size, model)
    if model.read_text(encoding="utf-8") != family.text():
        raise checks.CheckFailed("the set-up step wrote another model than the family's")

    cmds = commands(family, model, work)
    reps = family.reps
    recorder = Recorder()
    clock = Clock()
    samples = {name: [] for name in COMMANDS}
    round_totals = {True: [], False: []}
    traced_rounds = []
    expected = {}
    attempted = failed = 0
    problems = []

    def invoke(name, argv, traced):
        nonlocal attempted, failed
        for _ in range(reps[name]):
            with contextlib.redirect_stdout(io.StringIO()):
                with recorder.span("cli." + name) if traced else contextlib.nullcontext():
                    code = cli.main(argv)
            attempted += 1
            failed += code != 0

    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        traced = trace and index % 2 == 0
        first_span = len(recorder.spans)
        round_total = 0.0
        for name, argv, out in cmds:
            first_root = len(recorder.spans)
            with recorder.patched() if traced else contextlib.nullcontext():
                elapsed, scale = clock.measure(lambda: invoke(name, argv, traced))
            for s in recorder.spans[first_root:]:
                s["scale"] = scale / reps[name]
            samples[name].append(elapsed / reps[name])
            round_total += elapsed / reps[name]
            text = out.read_text(encoding="utf-8")
            if expected.setdefault(name, text) != text:
                problems.append(f"{name} wrote different output in round {index}")
        round_totals[traced].append(round_total)
        if traced:
            traced_rounds.append(recorder.spans[first_span:])
        index += 1

    try:
        check_outputs(family, expected, seed)
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    log = {"setup": setup_log, "commands": clock.log, "samples_s": samples}
    if trace:
        metrics, partitions = layer_metrics(family, traced_rounds)
        for mode, found in partitions.items():
            if found != family.blocks(mode):
                problems.append(f"the {mode} refinement found {len(found)} blocks, "
                                f"expected {len(family.blocks(mode))}")
        metrics["parsing.input_bytes"] = (model.stat().st_size, "B")
        untraced = round_totals[False] or round_totals[True]
        metrics["trace.overhead_s"] = (statistics.median(round_totals[True])
                                       - statistics.median(untraced), "s")
        log["spans"] = [dict(s, start=s["start"] - started, end=s["end"] - started)
                        for s in recorder.spans]
    else:
        metrics = {f"{name}_s": (statistics.median(samples[name]), "s") for name in COMMANDS}
        metrics["setup_s"] = (setup_s, "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    (work / f"log-trace{int(trace)}.json").write_text(json.dumps(log), encoding="utf-8")
    for problem in problems:
        print(f"incorrect output: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.FAMILIES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import odelump from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
