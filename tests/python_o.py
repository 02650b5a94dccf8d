"""Run a script under ``python -O`` against this checkout's ``src``.

Invariants must hold with ``assert`` stripped, so the tests that stub a
check to fail run their script this way and read what it prints.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_under_python_O(script: str, *flags: str, stdin: str | None = None) -> str:
    """The stdout of ``python [flags] -O -c script`` fed ``stdin``; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, *flags, "-O", "-c", script], input=stdin, env=env, capture_output=True, text=True, check=True
    )
    return done.stdout
