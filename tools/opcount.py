"""Count the Python opcodes and calls of each benchmark op, on the working tree and on a commit.

Usage, from the root of a checkout:

    python3 tools/opcount.py [--parent HEAD~]

For each workload in ``bench/workloads.py``, and for each of seeds 1-3,
the seed's pool's first whole periods of its op mix that make at least
48 ops (49 for verify, whose period is 49) are counted, seed after seed:
144 ops per workload, 147 for verify.  They run through
``degpoly.cli.main`` in one ``python -B`` per workload and tree, after
one warm-up op (seed 1's first).  Each op runs under
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
tree.  For ``verify`` it prints the same for each suite's ops, and for
its ``optimize --oracle`` ops, under the pool's lines, so that a change
to one suite reads as that suite's.  ``bench/`` is imported read-only
and nothing is written under it.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from trees import ROOT, archived_src, periods, pool_argvs, run_child

SEEDS = (1, 2, 3)
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


def warmed(src: Path, argvs: list[list[str]]) -> list[tuple[int, int]]:
    """(opcodes, calls) of each argv, after the first of them is run once as a warm-up."""
    return opcounts(src, argvs[:1] + argvs)[1:]


def mean(counts: list[tuple[int, int]]) -> tuple[float, float]:
    """Mean (opcodes, calls) per op."""
    return sum(c[0] for c in counts) / len(counts), sum(c[1] for c in counts) / len(counts)


def by_suite(argvs: list[list[str]], counts: list[tuple[int, int]]) -> dict[str, list[tuple[int, int]]]:
    """The counts of each argv, grouped by the suite it verifies; an ``optimize --oracle`` op is its own group."""
    groups: dict[str, list[tuple[int, int]]] = {}
    for argv, count in zip(argvs, counts):
        label = argv[argv.index("--suite") + 1] if "--suite" in argv else "optimize --oracle"
        groups.setdefault(label, []).append(count)
    return groups


def report(name: str, means: dict[str, tuple[float, float]]) -> None:
    """One line per tree of ``name``'s mean opcodes and calls per op, then the change if there are two trees."""
    for label, (opcodes, calls) in means.items():
        print(f"{name} {label}: {opcodes:.1f} opcodes/op, {calls:.1f} calls/op")
    if len(means) == 2:
        (old_ops, old_calls), (new_ops, new_calls) = means.values()
        print(f"{name} change: opcodes {new_ops / old_ops - 1:+.1%}, calls {new_calls / old_calls - 1:+.1%}")


def whole_periods(argvs: list[list[str]], period: int) -> list[list[str]]:
    """The first ``argvs`` that make whole periods of ``period`` ops, at least ``OPS`` of them."""
    return argvs[: -(-OPS // period) * period]


def seed_periods(pools: list[list[list[str]]], period: int) -> list[list[str]]:
    """Each seed's pool cut by :func:`whole_periods`, seed after seed."""
    return [argv for argvs in pools for argv in whole_periods(argvs, period)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="also count the commit REF, such as HEAD~, and print the change")
    args = parser.parse_args(argv)
    period = periods()
    by_seed = [pool_argvs((seed,)) for seed in SEEDS]
    pools = {name: seed_periods([seed[name] for seed in by_seed], period[name]) for name in period}
    with contextlib.ExitStack() as stack:
        trees = {args.parent: stack.enter_context(archived_src(args.parent))} if args.parent else {}
        trees["working tree"] = ROOT / "src"
        for name, argvs in pools.items():
            counts = {label: warmed(src, argvs) for label, src in trees.items()}
            report(f"{name} ({len(argvs)} ops, seeds 1-3)", {label: mean(c) for label, c in counts.items()})
            if name != "verify":
                continue
            suites = {label: by_suite(argvs, c) for label, c in counts.items()}
            for suite, ops in suites["working tree"].items():
                report(f"  {name} {suite} ({len(ops)} ops)", {label: mean(s[suite]) for label, s in suites.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
