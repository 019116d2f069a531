"""Command-line entry point.

Subcommands: reduce, check, simulate, convert, oracle.  Exit codes:
0 success / check passed, 1 check failed (counterexample on stderr),
2 input or parse error, 3 solver error/timeout/unknown, 4 internal error.

:func:`main` runs the command with the cyclic garbage collector paused, and
turns it back on afterwards only if it was on.  A run's data is acyclic, so
reference counting frees all of it; the collector's passes over a large
model's objects found nothing to free.  The argument parser is built on the
first call and kept for the process.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import time
import traceback
import warnings

from .encode import ReactionNetwork, rn_to_ode
from .errors import InitMismatchWarning, OdeLumpError, _SolverError
from .lump import (brute_force_coarsest, check_bde, check_fde,
                   coarsest_with_trace, prepartition_from_inits,
                   reduce_backward, reduce_forward)
from .parsing import ModelDocument, parse_model, serialize_model
from .partition import Partition
from .sim import compare_reduction, integrate, write_csv
from .smt import (DEFAULT_TIMEOUT_MS, phi_script, solver_ask,
                  symbolic_coarsest_with_trace)
from .system import _MODES, _by_mode


class _InputError(Exception):
    """User-facing input problem mapped to exit code 2."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="odelump",
        description="Exact reduction of ODE and reaction-network models by "
                    "forward/backward differential equivalence.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_mode(p):
        p.add_argument("--mode", choices=_MODES, required=True,
                       help="forward (block sums) or backward (representatives)")

    def add_backend(p):
        p.add_argument("--backend", choices=("syntactic", "smt"),
                       help="default: syntactic for polynomial drifts, smt otherwise")
        p.add_argument("--solver-cmd", metavar="C",
                       help="solver command line (default: $ODELUMP_SOLVER or 'z3 -in')")
        p.add_argument("--timeout", type=int, default=DEFAULT_TIMEOUT_MS, metavar="MS",
                       help="per solver call, milliseconds")

    p = sub.add_parser("reduce", help="compute the coarsest partition and write "
                                      "the reduced model")
    add_mode(p)
    p.add_argument("--in", dest="input", required=True, metavar="F")
    add_backend(p)
    p.add_argument("--partition", default=None,
                   choices=("file", "singletons", "one-block", "from-init"),
                   help="seed partition (default: from-init for bde, one-block for fde)")
    p.add_argument("--out", required=True, metavar="G")
    p.add_argument("--report", metavar="R.json", help="write a JSON run report")

    p = sub.add_parser("check", help="check the partition declared in the model file")
    add_mode(p)
    p.add_argument("--in", dest="input", required=True, metavar="F")
    add_backend(p)

    p = sub.add_parser("simulate", help="integrate a model, optionally comparing "
                                        "against a reduced one")
    p.add_argument("--in", dest="input", required=True, metavar="F")
    p.add_argument("--t-end", dest="t_end", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--sample", type=int, default=1, metavar="K",
                   help="record every K-th step")
    p.add_argument("--out", required=True, metavar="traj.csv")
    p.add_argument("--compare", metavar="G",
                   help="reduced model; the partition is read from --in")
    p.add_argument("--map-mode", choices=_MODES,
                   help="aggregation used by --compare")

    p = sub.add_parser("convert", help="rewrite a model as odes, reactions, or an "
                                       "SMT-LIB script")
    p.add_argument("--in", dest="input", required=True, metavar="F")
    p.add_argument("--to", dest="target", choices=("ode", "rn", "smt2"), required=True)
    p.add_argument("--out", required=True, metavar="G")
    p.add_argument("--mode", choices=_MODES,
                   help="required for --to smt2 (with a partition in the model)")

    p = sub.add_parser("oracle", help="brute-force coarsest partition (n <= 10)")
    add_mode(p)
    p.add_argument("--in", dest="input", required=True, metavar="F")
    return top


def _load(path: str) -> ModelDocument:
    try:  # utf-8-sig: a byte-order mark some editors write is not model text
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    return parse_model(text)


def _as_ode(doc: ModelDocument):
    if isinstance(doc.system, ReactionNetwork):
        return rn_to_ode(doc.system)
    return doc.system


def _seed_partition(kind, mode, system, doc: ModelDocument) -> Partition:
    if kind is None:
        kind = _by_mode(mode, "from-init", "one-block")
    if kind == "file":
        if doc.user_partition is None:
            raise _InputError("--partition file requires a partition section "
                              "in the model")
        return doc.user_partition
    if kind == "singletons":
        return Partition.singletons(system.n)
    if kind == "one-block":
        return Partition.one_block(system.n)
    return prepartition_from_inits(system, Partition.one_block(system.n))


def _pick_backend(requested, system) -> str:
    if requested:
        if requested == "syntactic" and not system.is_polynomial:
            raise _InputError("the syntactic backend requires polynomial drifts; "
                              "use --backend smt")
        return requested
    return "syntactic" if system.is_polynomial else "smt"


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


_PHASES = ("parse", "seed", "refine", "reduce", "serialize")


def _cmd_reduce(args) -> int:
    clock = time.perf_counter
    stamps = [clock()]
    doc = _load(args.input)
    system = _as_ode(doc)
    stamps.append(clock())
    seed = _seed_partition(args.partition, args.mode, system, doc)
    stamps.append(clock())
    backend = _pick_backend(args.backend, system)

    if backend == "syntactic":
        part, trace = coarsest_with_trace(system, seed, args.mode)
        iterations = len(trace)
    else:
        part, iterations = symbolic_coarsest_with_trace(
            system, seed, args.mode, args.solver_cmd, args.timeout)
    stamps.append(clock())

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", InitMismatchWarning)
        reduced = _by_mode(args.mode, reduce_backward, reduce_forward)(system, part)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    stamps.append(clock())

    _write_text(args.out, serialize_model(reduced))
    stamps.append(clock())
    elapsed_ms = int((stamps[-1] - stamps[0]) * 1000)
    print(f"{args.mode} reduction ({backend}): {system.n} -> {reduced.n} variables, "
          f"{seed.block_count} -> {part.block_count} blocks; wrote {args.out}")

    if args.report:
        report = {
            "mode": args.mode,
            "backend": backend,
            "input": args.input,
            "iterations": iterations,
            "blocks_before": seed.block_count,
            "blocks_after": part.block_count,
            "variables_before": system.n,
            "variables_after": reduced.n,
            "monomials_before": system.monomial_count(),
            "monomials_after": reduced.monomial_count(),
            "wall_time_ms": elapsed_ms,
            "phases_ms": _phases_ms(stamps),
            "warnings": [str(w.message) for w in caught],
        }
        _write_text(args.report, json.dumps(report, indent=2) + "\n")
    return 0


def _phases_ms(stamps) -> dict:
    """Milliseconds of each of ``_PHASES`` between consecutive stamps.  Each
    phase is the difference of the elapsed times at its ends, each rounded
    to 0.001 ms, so the phases sum to the rounded whole."""
    marks = [round((t - stamps[0]) * 1000, 3) for t in stamps]
    return {name: round(b - a, 3) for name, a, b in zip(_PHASES, marks, marks[1:])}


def _cmd_check(args) -> int:
    doc = _load(args.input)
    system = _as_ode(doc)
    if doc.user_partition is None:
        raise _InputError("check needs a partition section in the model file")
    part = doc.user_partition
    backend = _pick_backend(args.backend, system)

    if backend == "syntactic":
        result = _by_mode(args.mode, check_bde, check_fde)(system, part)
        counterexample = None if result.ok else result.describe(system.names)
    else:
        script, names = phi_script(system, part, args.mode)
        values = solver_ask(script, names, part, args.solver_cmd, args.timeout)
        counterexample = None if values is None else "counterexample witness: " + \
            ", ".join(f"{nm}={v}" for nm, v in zip(names, values))
    if counterexample is None:
        print(f"ok: partition is a {args.mode.upper()}")
        return 0
    print(counterexample, file=sys.stderr)
    return 1


def _cmd_simulate(args) -> int:
    doc = _load(args.input)
    system = _as_ode(doc)
    if args.compare:
        if args.map_mode is None:
            raise _InputError("--compare requires --map-mode fde|bde")
        if doc.user_partition is None:
            raise _InputError("--compare needs a partition section in the "
                              "original model file")
        reduced = _as_ode(_load(args.compare))
        if reduced.n != doc.user_partition.block_count:
            raise _InputError("reduced trajectory width does not match the partition")
    try:
        trajectory = integrate(system, args.t_end, args.dt, args.sample)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    write_csv(trajectory, args.out)
    print(f"wrote {args.out} ({len(trajectory.times)} samples, {system.n} variables)")
    if args.compare:
        reduced_traj = integrate(reduced, args.t_end, args.dt, args.sample)
        error = compare_reduction(trajectory, reduced_traj,
                                  doc.user_partition, args.map_mode)
        print(f"max_error={error:.6e}")
    return 0


def _cmd_convert(args) -> int:
    doc = _load(args.input)
    if args.target in ("ode", "rn"):
        _write_text(args.out, serialize_model(doc, args.target))
        print(f"wrote {args.out}")
        return 0
    if args.mode is None:
        raise _InputError("--to smt2 requires --mode fde|bde")
    if doc.user_partition is None:
        raise _InputError("--to smt2 needs a partition section in the model file")
    script, _ = phi_script(_as_ode(doc), doc.user_partition, args.mode)
    _write_text(args.out, script)
    print(f"wrote {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    doc = _load(args.input)
    system = _as_ode(doc)
    kind = "file" if doc.user_partition is not None else None
    seed = _seed_partition(kind, args.mode, system, doc)
    part = brute_force_coarsest(system, seed, args.mode)
    print(part.format(system.names))
    return 0


_DISPATCH = {
    "reduce": _cmd_reduce,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "convert": _cmd_convert,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "timeout", 1) <= 0:
            raise _InputError(f"--timeout must be a positive number of ms, not {args.timeout}")
        return _DISPATCH[args.command](args)
    except _SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (_InputError, OdeLumpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - internal invariant violation
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
