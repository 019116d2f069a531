"""Set-up step of the benchmark: start Python, import odelump and write the
workload's model file, as a user does before the first command.

    python3 perfbench/gen.py WORKLOAD SEED SIZE OUT
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import odelump.cli  # noqa: E402,F401  (the import is part of the set-up cost)

import workloads  # noqa: E402


def main(argv):
    workload, seed, size, out = argv
    text = workloads.make(workload, int(seed), size).text()
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
