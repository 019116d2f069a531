"""Scripted stand-in for an SMT solver, driving the subprocess protocol tests.

Reads the whole SMT-LIB script from stdin (like a real solver fed over a
pipe) and checks its scope with ``smtcheck.scope_errors``: a script with an
unbound or rebound symbol, or unbalanced text, gets an ``(error ...)`` reply
and exit status 1.  Otherwise it answers according to argv:

    reply FILE    print FILE verbatim
    seq FILE      FILE holds response blocks separated by lines of '---';
                  print the first block and rewrite FILE with the remainder
    sleep SECS    sleep, then answer unsat (for timeout tests)
    garbage       print something that is not an SMT-LIB reply
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import smtcheck  # noqa: E402  (needs odelump, from the src directory above)


def main() -> int:
    try:
        errors = smtcheck.scope_errors(sys.stdin.read())
    except ValueError as exc:
        errors = [str(exc)]
    if errors:
        sys.stdout.write(f"(error \"fake solver: {'; '.join(errors)}\")\n")
        return 1
    mode = sys.argv[1]
    if mode == "reply":
        with open(sys.argv[2], "r", encoding="utf-8") as handle:
            sys.stdout.write(handle.read())
    elif mode == "seq":
        path = sys.argv[2]
        with open(path, "r", encoding="utf-8") as handle:
            blocks = handle.read().split("\n---\n")
        if not blocks or not blocks[0].strip():
            sys.stdout.write("(error \"fake solver ran out of replies\")\n")
            return 1
        sys.stdout.write(blocks[0])
        if not blocks[0].endswith("\n"):
            sys.stdout.write("\n")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n---\n".join(blocks[1:]))
    elif mode == "sleep":
        time.sleep(float(sys.argv[2]))
        sys.stdout.write("unsat\n")
    elif mode == "garbage":
        sys.stdout.write("flagrant system error\n")
    else:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
