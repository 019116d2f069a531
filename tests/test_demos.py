"""The walk-through demos run to completion against the library in src/.

``05_large_scale.py`` is left out: it builds and reduces a 1e5-variable
system and takes minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_forward_lumping.py", "02_backward_lumping.py",
         "03_reaction_networks.py", "04_solver_backend.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.startswith("04_"):
        assert "(assert (not (=> (= x1 x2)" in proc.stdout
