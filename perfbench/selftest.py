"""Self-test of the benchmark at tiny sizes; takes seconds.

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced run at the tiny
size and requires correct outputs, no failed command and exactly the metric
names that BENCHMARK.json lists.  Then it feeds each check a corrupted copy
of an output and requires the check to reject it.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import re
import sys

import checks
import run
import workloads

SEED = 7


def _corrupt_drift(text):
    """Add a constant to the first drift or change the first reaction rate."""
    if "begin ode" in text:
        return re.sub(r"(d\([^)]*\) = )", r"\g<1>1/1000 + ", text, count=1)
    return re.sub(r"(-> [^,\n]*, )(\S+)", r"\g<1>12345/1000", text, count=1)


def _corrupt_csv(text):
    lines = text.rstrip("\n").split("\n")
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-4) + 1e-6)
    lines[-1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _must_fail(what, check, *args):
    try:
        check(*args)
    except checks.CheckFailed:
        return
    raise AssertionError(f"the check accepted a corrupted {what}")


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for workload in sorted(workloads.FAMILIES):
        for trace in (0, 1):
            result = run.run(workload, SEED, 0, bool(trace), size="tiny")
            if not result["correct"] or result["failed"] or result["attempted"] < 4:
                raise AssertionError(f"{workload}: {result}")
            if set(result["metrics"]) != names[trace]:
                raise AssertionError(f"{workload}: metric names differ from BENCHMARK.json "
                                     f"in {sorted(set(result['metrics']) ^ names[trace])}")

        family = workloads.make(workload, SEED, "tiny")
        out = run.HERE / "out" / workload
        text = {name: (out / name).read_text(encoding="utf-8") for name in run.COMMANDS}
        for mode, other in (("bde", "fde"), ("fde", "bde")):
            _must_fail(f"{mode} reduction", checks.check_reduced, family, mode,
                       _corrupt_drift(text[f"reduce_{mode}"]), SEED)
            _must_fail(f"{mode} partition", checks.check_reduced, family, mode,
                       text[f"reduce_{other}"], SEED)
        _must_fail("conversion", checks.check_converted, family,
                   _corrupt_drift(text["convert"]), SEED)
        _must_fail("trajectory", checks.check_trajectory, family,
                   _corrupt_csv(text["simulate"]))
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
