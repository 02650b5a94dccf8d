"""tools/replay.py finds exactly the ops whose output differs between two trees, and counts lines."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("replay", ROOT / "tools" / "replay.py")
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

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
