"""What ``tools/replay.py`` and ``tools/opcount.py`` share: the seeded ops, a commit's ``src/``, and one child per tree.

``bench/`` is imported read-only and nothing is written under it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent

# printed first by every child, so that the parent can check which degpoly it imported
CHILD_PREAMBLE = """
import contextlib, io, json, sys
import degpoly.cli
print(json.dumps(degpoly.cli.__file__), flush=True)
"""


def pool_argvs(seeds: tuple[int, ...]) -> dict[str, list[list[str]]]:
    """The argv of every op of ``seeds``' pools in ``bench/workloads.py``, by workload, in pool order."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, ops_for

    return {
        name: [list(op.argv) for seed in seeds for op in ops_for(workload, seed)] for name, workload in WORKLOADS.items()
    }


@contextlib.contextmanager
def archived_src(ref: str) -> Iterator[Path]:
    """The ``src/`` of commit ``ref``, extracted by ``git archive`` to a temporary directory for the block."""
    archive = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT, capture_output=True, check=True)
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tmp, filter="data")
            else:
                tar.extractall(tmp)
        yield Path(tmp) / "src"


def run_child(src: Path, body: str, argvs: list[list[str]], env: dict[str, str] | None = None) -> list:
    """One JSON value per argv, printed by ``body`` run in one ``python -B`` on ``src``'s degpoly.

    ``body`` follows :data:`CHILD_PREAMBLE` and reads one JSON argv per
    line of stdin.  ``env`` is added to the child's environment.
    """
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(src)}
    feed = "".join(json.dumps(argv) + "\n" for argv in argvs)
    # cwd holds no degpoly, so PYTHONPATH is where it comes from
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-B", "-c", CHILD_PREAMBLE + body],
            input=feed,
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )
    if proc.returncode:
        raise RuntimeError(f"the child on {src} exited {proc.returncode}: {proc.stderr[-2000:]}")
    module, *lines = proc.stdout.splitlines()
    if not Path(json.loads(module)).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"the child on {src} imported {json.loads(module)}")
    return [json.loads(line) for line in lines]
