"""Every integer entry point applies the one rule of degpoly.core, and no module restates it.

No module states an invariant as a bare ``assert`` either, which ``python -O`` would strip,
and ``cli.py`` builds each named check in one place.
"""

import ast
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

from degpoly.core import check_partition, is_partition
from degpoly.hypergraph import RGraph, is_r_graphical_partition
from degpoly.polytope import is_degree_sequence
from degpoly.threshold import is_threshold_partition

SRC = Path(__file__).resolve().parent.parent / "src" / "degpoly"


class Degree(IntEnum):
    TWO = 2


# each equals an int, and none is exactly an int
NOT_INTS = [True, 1.0, Fraction(2), Degree.TWO]

# entry point -> a call on the degree partition d of the complete graph on len(d) vertices
ENTRY_POINTS = {
    "is_partition": is_partition,
    "check_partition": check_partition,
    "is_threshold_partition": is_threshold_partition,
    "is_degree_sequence": is_degree_sequence,
    "RGraph": lambda d: RGraph(len(d), 2, {(d[0], len(d))}),
    "is_r_graphical_partition": lambda d: is_r_graphical_partition(d, len(d), 2),
}


def _accepts(call, d):
    """A truthy answer; ``False`` or ``ValueError`` is a refusal."""
    try:
        return bool(call(d))
    except ValueError:
        return False


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_refuses_what_is_not_exactly_an_int(name, value):
    call = ENTRY_POINTS[name]
    plain = (int(value),) * (int(value) + 1)
    assert _accepts(call, plain)
    assert not _accepts(call, (value,) + plain[1:])


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("name", ("is_partition", "is_threshold_partition", "is_degree_sequence"))
def test_predicates_answer_false_rather_than_raise(name, value):
    plain = (int(value),) * (int(value) + 1)
    assert ENTRY_POINTS[name]((value,) + plain[1:]) is False


def _is_int(node):
    return isinstance(node, ast.Name) and node.id == "int"


def _restated_rules(tree):
    """(line, rule) for every int type test and every use of lcm in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            if _is_int(node.args[-1]):
                yield node.lineno, "isinstance(_, int)"
        elif (
            isinstance(node, ast.Compare)
            and getattr(getattr(node.left, "func", None), "id", None) == "type"
            and any(map(_is_int, node.comparators))
        ):
            yield node.lineno, "type(_) compared with int"
        elif isinstance(node, ast.Set) and any(map(_is_int, node.elts)):
            yield node.lineno, "set of types {int}"
        elif getattr(node, "id", None) == "lcm" or getattr(node, "attr", None) == "lcm":
            yield node.lineno, "lcm"
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] == "lcm":
            yield node.lineno, "import of lcm"


def _scan(path):
    return list(_restated_rules(ast.parse(path.read_text(), str(path))))


def test_only_core_states_the_integer_and_denominator_rules():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "core.py" in modules
    found = [
        f"{path.name}:{line}: {rule}" for path in modules if path.name != "core.py" for line, rule in _scan(path)
    ]
    assert found == []
    # the scan does see both rules where they live
    assert {rule for _, rule in _scan(SRC / "core.py")} >= {"set of types {int}", "lcm", "import of lcm"}


def test_the_scan_catches_each_form_of_a_restated_rule():
    source = """
from math import lcm
import math
isinstance(v, int)
type(v) is int
type(v) == int
set(map(type, values)) <= {int}
math.lcm(2, 3)
"""
    assert sorted(rule for _, rule in _restated_rules(ast.parse(source))) == [
        "import of lcm",
        "isinstance(_, int)",
        "lcm",
        "set of types {int}",
        "type(_) compared with int",
        "type(_) compared with int",
    ]


def _bare_asserts(tree):
    """Lines of ``assert`` statements; ``python -O`` drops them."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_module_states_an_invariant_as_a_bare_assert():
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "cli.py" in modules
    found = [f"{path.name}:{line}" for path in modules for line in _bare_asserts(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_assert_scan_catches_a_bare_assert():
    source = """
assert n > 0, "n must be positive"
if n < 0:
    raise AssertionError("an explicit raise survives python -O")
def f():
    assert n
"""
    assert _bare_asserts(ast.parse(source)) == [2, 6]


def _check_names(tree):
    """The string literal named as each check: ``make_check``'s first argument."""
    return [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "make_check"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]


def test_each_check_name_is_built_in_one_place():
    names = _check_names(ast.parse((SRC / "cli.py").read_text()))
    assert "edge-count" in names
    assert [name for name, count in Counter(names).items() if count > 1] == []


def test_the_check_name_scan_catches_a_repeated_name():
    source = """
make_check("edge-count", 1, 1)
make_check(f"r{r}-agreement", 1, 1)
checks.append(make_check("edge-count", 2, count_edges(n), formula="E(n)"))
make_check(name, 1, 1)
"""
    assert _check_names(ast.parse(source)) == ["edge-count", "edge-count"]
