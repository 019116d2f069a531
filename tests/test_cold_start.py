"""Only ``simulate`` needs numpy: the CLI starts without it, and every other
command runs with numpy made unimportable."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "t04_partition.ode"

WITHOUT_NUMPY = textwrap.dedent("""
    import sys
    import odelump.cli
    assert "numpy" not in sys.modules, "importing odelump.cli loaded numpy"
    sys.modules["numpy"] = None  # any later import of numpy raises ImportError
    model, out = sys.argv[1:]
    for argv in (["reduce", "--mode", "bde", "--in", model, "--out", out],
                 ["check", "--mode", "bde", "--in", model],
                 ["convert", "--in", model, "--to", "rn", "--out", out]):
        rc = odelump.cli.main(argv)
        assert rc == 0, (argv, rc)
    print("ok")
""")


def test_cli_runs_without_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, str(GOLDEN), str(tmp_path / "out.ode")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "ok"
