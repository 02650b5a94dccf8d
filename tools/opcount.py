"""Count the Python opcodes and calls of each benchmark op, on the working tree and on a commit.

Usage, from the root of a checkout:

    python3 tools/opcount.py [--parent HEAD~]

For each workload in ``bench/workloads.py``, the first 48 ops of the
seed-1 pool run through ``degpoly.cli.main`` in one ``python -B`` per
tree, after one warm-up op (the pool's first).  Each op runs under
``sys.settrace`` with ``frame.f_trace_opcodes`` set on every frame, and
counts one opcode per ``opcode`` event and one call per ``call`` event:
each Python frame entered, a generator's resumption included.  Work
done in C, such as ``sorted``, big-int arithmetic or a regular
expression match, counts only as the opcodes that called it.  Tracing
makes an op some 15 to 30 times slower, which a count does not see, and
the counts do not depend on the host.  ``PYTHONHASHSEED`` is fixed, so
a rerun gives the same counts.

The tool prints, per workload and tree, the mean opcodes and calls per
op, and with ``--parent`` the change from the commit to the working
tree.  ``bench/`` is imported read-only and nothing is written under it.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from trees import ROOT, archived_src, pool_argvs, run_child

SEED = 1
OPS = 48

# one JSON line per op back: [opcodes, calls]
_CHILD = """
counts = [0, 0]

def _opcode(frame, event, arg):
    if event == "opcode":
        counts[0] += 1
    return _opcode

def _call(frame, event, arg):
    counts[1] += 1
    frame.f_trace_lines = False
    frame.f_trace_opcodes = True
    return _opcode

for line in sys.stdin:
    argv = json.loads(line)
    counts[:] = [0, 0]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(_call)
        try:
            degpoly.cli.main(argv)
        except SystemExit:
            pass
        finally:
            sys.settrace(None)
    print(json.dumps(counts), flush=True)
"""


def opcounts(src: Path, argvs: list[list[str]]) -> list[tuple[int, int]]:
    """(opcodes, calls) of each argv, run in order by one ``python -B`` on ``src``'s degpoly."""
    return [tuple(counts) for counts in run_child(src, _CHILD, argvs, env={"PYTHONHASHSEED": "0"})]


def per_op(src: Path, argvs: list[list[str]]) -> tuple[float, float]:
    """Mean (opcodes, calls) per op of ``argvs``, after the first of them is run once as a warm-up."""
    counts = opcounts(src, argvs[:1] + argvs)[1:]
    return sum(c[0] for c in counts) / len(counts), sum(c[1] for c in counts) / len(counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="also count the commit REF, such as HEAD~, and print the change")
    args = parser.parse_args(argv)
    pools = {name: argvs[:OPS] for name, argvs in pool_argvs((SEED,)).items()}
    with contextlib.ExitStack() as stack:
        trees = {args.parent: stack.enter_context(archived_src(args.parent))} if args.parent else {}
        trees["working tree"] = ROOT / "src"
        for name, argvs in pools.items():
            counts = {label: per_op(src, argvs) for label, src in trees.items()}
            for label, (opcodes, calls) in counts.items():
                print(f"{name} ({len(argvs)} ops, seed {SEED}) {label}: {opcodes:.1f} opcodes/op, {calls:.1f} calls/op")
            if args.parent:
                (old_ops, old_calls), (new_ops, new_calls) = counts.values()
                print(f"{name} change: opcodes {new_ops / old_ops - 1:+.1%}, calls {new_calls / old_calls - 1:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
