"""tools/replay.py finds exactly the ops whose output differs between two trees, and counts lines; tools/opcount.py counts the same on every run."""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the tools import their shared helpers, tools/trees.py, as a top-level module
sys.path.insert(0, str(ROOT / "tools"))
import opcount
import replay

COUNTS = ["verify", "--n", "4", "--suite", "counts"]
# two argvs per command; of these, only COUNTS reports dominating-sum-identity
ARGVS = [
    ["optimize", "--costs=1,-1/2,2", "--mode", "max"],
    ["optimize", "--costs=3,1.5,2", "--mode", "min", "--oracle"],
    COUNTS,
    ["verify", "--n", "3", "--suite", "edges"],
    ["recognize", "--seq=2,2,1,1", "--r=2"],
    ["recognize", "--seq=2,2,1,1", "--r=3"],
]


def test_replay_finds_exactly_the_ops_a_changed_check_name_touches(tmp_path, capsys):
    src = ROOT / "src"
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert replay.differing(ARGVS, src, copy) == []

    cli = copy / "degpoly" / "cli.py"
    text = cli.read_text()
    assert text.count('"dominating-sum-identity"') == 1
    cli.write_text(text.replace('"dominating-sum-identity"', '"dominating-sum-identity-renamed"'))
    assert replay.differing(ARGVS, src, copy) == [COUNTS]

    assert replay.compare(ARGVS, {"before": src, "after": copy}) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["ops compared: 6, differing: 1 (before against after)", "differs: " + " ".join(COUNTS)]
    lines, code = replay.line_counts(src)
    assert out[2] == f"before src/: {lines} lines, {code} code lines"
    assert out[3] == f"after src/: {lines} lines, {code} code lines"


def test_a_long_differing_argv_is_cut(tmp_path, capsys, monkeypatch):
    argv = ["optimize", "--costs=" + ",".join(["1"] * 200)]
    monkeypatch.setattr(replay, "differing", lambda argvs, left, right: argvs)
    monkeypatch.setattr(replay, "line_counts", lambda src: (0, 0))
    assert replay.compare([argv], {"a": tmp_path, "b": tmp_path}) == 1
    assert capsys.readouterr().out.splitlines()[1] == "differs: " + " ".join(argv)[: replay.ARGV_WIDTH]


def test_line_counts_skip_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """One line."""\n'
        '    return """not a\n'
        'docstring"""\n'
        "\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    y = 2\n"
    )
    (tmp_path / "pkg" / "empty.py").write_text("")
    assert replay.line_counts(tmp_path) == (18, 7)


def test_opcount_counts_an_op_the_same_twice_after_one_warm_up():
    # one small argv per command, each run three times in one process: the first warms its caches
    argvs = [argv for argv in ARGVS[::2] for _ in range(3)]
    counts = opcount.opcounts(ROOT / "src", argvs)
    assert len(counts) == len(argvs)
    for first, second, third in zip(counts[::3], counts[1::3], counts[2::3]):
        assert second == third
        opcodes, calls = second
        assert opcodes > calls > 0
    # the warm-up op is run once more and not counted
    assert opcount.per_op(ROOT / "src", ARGVS[:1]) == counts[1]
