"""Every solver-free CLI command on every golden model, pinned byte for byte.

``golden/snapshots.json`` maps ``"<model> <command>"`` to what the command
left behind: the file it wrote (null if none), its stdout and stderr with the
input and output paths replaced by ``IN`` and ``OUT``, and its exit code.
``reduce`` and ``check`` run with ``--backend syntactic``, so models with
expression drifts pin the error that backend gives instead of calling a
solver; ``--out`` goes only to the commands that write a file.  The
``simulate`` cases pin the RK4 floats, those of the expression models
included, and the ``oracle`` cases pin the seed read from a partition section.

After a deliberate change of output, inspect the differences and regenerate
the file from the repository root with

    PYTHONPATH=src python tests/test_golden_snapshots.py
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from odelump.cli import main

GOLDEN = Path(__file__).parent / "golden"
SNAPSHOTS = GOLDEN / "snapshots.json"

COMMANDS = (
    "reduce --mode bde",
    "reduce --mode fde",
    "check --mode bde",
    "check --mode fde",
    "convert --to ode",
    "convert --to rn",
    "convert --to smt2 --mode bde",
    "convert --to smt2 --mode fde",
    "simulate --t-end 2 --dt 0.01 --sample 10",
    "oracle --mode bde",
    "oracle --mode fde",
)


def run(model: Path, command: str, out: Path) -> dict:
    """Run one command in-process and return what it left behind."""
    argv = command.split() + ["--in", str(model)]
    if argv[0] in ("reduce", "check"):
        argv += ["--backend", "syntactic"]
    if argv[0] in ("reduce", "simulate", "convert"):
        argv += ["--out", str(out)]
    if out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)

    def scrub(text):
        return text.replace(str(out), "OUT").replace(str(model), "IN")

    return {
        "file": out.read_text(encoding="utf-8") if out.exists() else None,
        "stdout": scrub(stdout.getvalue()),
        "stderr": scrub(stderr.getvalue()),
        "exit": code,
    }


def cases():
    return [(path, command) for path in sorted(GOLDEN.glob("*.ode"))
            for command in COMMANDS]


def key(path: Path, command: str) -> str:
    return f"{path.name} {command}"


@functools.lru_cache(maxsize=None)
def snapshots() -> dict:
    return json.loads(SNAPSHOTS.read_text(encoding="utf-8"))


def test_snapshot_covers_every_case():
    assert sorted(snapshots()) == sorted(key(p, c) for p, c in cases())


@pytest.mark.parametrize("path,command", cases(),
                         ids=[key(p, c) for p, c in cases()])
def test_cli_output_matches_snapshot(path, command, tmp_path):
    assert run(path, command, tmp_path / "out") == snapshots()[key(path, command)]


def regenerate(scratch: Path) -> None:
    scratch.mkdir(parents=True, exist_ok=True)
    table = {key(p, c): run(p, c, scratch / "out") for p, c in cases()}
    SNAPSHOTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        regenerate(Path(scratch))
