"""The exact modules import no float code.

A fresh interpreter imports them, so nothing an earlier test loaded can
hide a numpy import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

EXACT_MODULES = ["moser", "bogo", "checks", "reduction", "catalog"]


def test_exact_modules_leave_numpy_unloaded():
    code = "; ".join(
        [*(f"import todavolterra.{m}" for m in EXACT_MODULES),
         "import sys",
         "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')))"]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
