"""Replay the benchmark's seeded ops on two trees and compare what each prints.

Usage, from the root of a checkout:

    python3 tools/replay.py --parent HEAD~

``git archive REF`` of ``src/`` is extracted to a temporary directory.
For each tree, the commit's and the working tree's, one ``python -B``
process with that tree's ``src`` on ``PYTHONPATH`` runs every op of
seeds 1-3 of each pool in ``bench/workloads.py`` through
``degpoly.cli.main`` and records its stdout, stderr and exit code.
``bench/`` is imported read-only and nothing is written under it.

The tool prints how many ops it compared, the argv of each op whose
stdout, stderr or exit code differ, cut to 120 characters, and each
tree's ``src/`` line count and code-line count (lines holding code: no
docstrings, comments or blank lines).  It exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

from trees import ROOT, archived_src, pool_argvs, run_child

SEEDS = (1, 2, 3)
ARGV_WIDTH = 120

# one JSON line per op back: [exit code, stdout, stderr]
_CHILD = """
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = degpoly.cli.main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def workload_argvs() -> list[list[str]]:
    """The argv of every op of seeds 1-3 of each pool in ``bench/workloads.py``."""
    return [argv for argvs in pool_argvs(SEEDS).values() for argv in argvs]


def replay(src: Path, argvs: list[list[str]]) -> list[tuple]:
    """(exit code, stdout, stderr) of each argv, run in order by one ``python -B`` on ``src``'s degpoly."""
    return [tuple(result) for result in run_child(src, _CHILD, argvs)]


def differing(argvs: list[list[str]], left: Path, right: Path) -> list[list[str]]:
    """The argvs whose exit code, stdout or stderr differ between the two trees' ``src``."""
    return [argv for argv, a, b in zip(argvs, replay(left, argvs), replay(right, argvs), strict=True) if a != b]


def line_counts(src: Path) -> tuple[int, int]:
    """(lines, code lines) of the ``.py`` files under ``src``.

    A code line holds a token that is not a comment and not part of a
    docstring, the string that opens a module, class or function body.
    """
    lines = code = 0
    for path in sorted(Path(src).rglob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            body = getattr(node, "body", None)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
                first = body[0]
                if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
        held = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _NOT_CODE:
                held.update(range(tok.start[0], tok.end[0] + 1))
        code += len(held - docstrings)
    return lines, code


def compare(argvs: list[list[str]], trees: dict[str, Path]) -> int:
    """Print the comparison of two labelled ``src`` trees on ``argvs``; 1 if any op differs, else 0."""
    (left_name, left), (right_name, right) = trees.items()
    diff = differing(argvs, left, right)
    print(f"ops compared: {len(argvs)}, differing: {len(diff)} ({left_name} against {right_name})")
    for argv in diff:
        print("differs: " + " ".join(argv)[:ARGV_WIDTH])
    for name, src in trees.items():
        lines, code = line_counts(src)
        print(f"{name} src/: {lines} lines, {code} code lines")
    return 1 if diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare the working tree with, such as HEAD~")
    args = parser.parse_args(argv)
    argvs = workload_argvs()
    with archived_src(args.parent) as parent_src:
        return compare(argvs, {args.parent: parent_src, "working tree": ROOT / "src"})


if __name__ == "__main__":
    sys.exit(main())
