"""The library's import footprint."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_library_loads_no_scipy():
    # A fresh interpreter: this test process has scipy loaded by the oracles.
    code = (
        "import json, sys\n"
        "import acrkit, acrkit.cli, acrkit.simulator\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert json.loads(out.stdout) == []
