"""Every integer and every rational entry point applies its one rule of degpoly.core, and no module restates it.

No module states an invariant as a bare ``assert`` either, which ``python -O`` would strip,
and ``cli.py`` builds each named check in one place.
"""

import ast
from collections import Counter
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

from degpoly.core import as_rational_vector, bounded_partitions, check_partition, clear_denominators, is_partition
from degpoly.hypergraph import RGraph, havel_hakimi, is_r_graphical_partition, realize_r_graph
from degpoly.optimize import brute_force_optimal_partition, optimal_threshold_partition, optimality_certificate
from degpoly.polytope import affine_rank, fhm_violations, in_fhm_polytope, is_degree_sequence, koren_oracle
from degpoly.runs import average_runs, pava_oracle, pool
from degpoly import runs
from degpoly.threshold import graph_from_weights, ideal_from_partition, is_threshold_partition

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
    "realize_r_graph": lambda d: realize_r_graph(d, len(d), 2),
    "havel_hakimi": havel_hakimi,
}


# entry point -> a call on one rational vector; each accepts (1, 1/2, 0)
RATIONAL_ENTRY_POINTS = {
    "as_rational_vector": as_rational_vector,
    "clear_denominators": clear_denominators,
    "average_runs": average_runs,
    "pool": pool,
    "pava_oracle": pava_oracle,
    "graph_from_weights": graph_from_weights,
    "optimality_certificate": optimality_certificate,
    "optimal_threshold_partition": optimal_threshold_partition,
    "brute_force_optimal_partition": brute_force_optimal_partition,
    "in_fhm_polytope": in_fhm_polytope,
    "fhm_violations": fhm_violations,
    "koren_oracle": koren_oracle,
    # the rule holds for every point, not only the first
    "affine_rank": lambda x: affine_rank([(0,) * len(x), x]),
}
RATIONAL = (1, Fraction(1, 2), 0)
# none is exactly an int or a Fraction
NOT_RATIONALS = [True, 0.5, "1", Decimal(1), Degree.TWO]
RATIONAL_RULE = "a rational vector is nonempty and each entry exactly an int or a Fraction, got "


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


@pytest.mark.parametrize("name", RATIONAL_ENTRY_POINTS)
def test_every_rational_entry_point_refuses_an_empty_vector(name):
    call = RATIONAL_ENTRY_POINTS[name]
    call(RATIONAL)
    with pytest.raises(ValueError, match=RATIONAL_RULE + "an empty vector$"):
        call(())


@pytest.mark.parametrize("position", [0, 2])
@pytest.mark.parametrize("value", NOT_RATIONALS, ids=repr)
@pytest.mark.parametrize("name", RATIONAL_ENTRY_POINTS)
def test_every_rational_entry_point_refuses_what_is_not_exactly_an_int_or_a_fraction(name, value, position):
    call = RATIONAL_ENTRY_POINTS[name]
    call(RATIONAL)
    vec = list(RATIONAL)
    vec[position] = value
    with pytest.raises(ValueError, match=f"{RATIONAL_RULE}an entry of type {type(value).__name__}$"):
        call(tuple(vec))


def test_the_rational_rule_names_the_first_offender_and_never_echoes_the_vector():
    vec = (Fraction(1, 3),) * 10**5 + (0.5, "1")
    with pytest.raises(ValueError) as refusal:
        as_rational_vector(vec)
    assert str(refusal.value) == RATIONAL_RULE + "an entry of type float"


ASCENT = (0,) * 10**5 + (1,)
# refusal -> (a call on about 10^5 entries, what its message must say)
LONG_REFUSALS = {
    "check_partition": (lambda: check_partition(ASCENT), "entry 100001 = 1 exceeds entry 100000 = 0"),
    "check_partition negative": (lambda: check_partition((0,) * 10**5 + (-1,)), "entry 100001 = -1, which is negative"),
    "check_partition type": (lambda: check_partition((0,) * 10**5 + (0.0,)), "entry 100001 of type float"),
    "check_partition long int": (lambda: check_partition((0,) * 10**5 + (10**5000,)), "a int too long to print"),
    "ideal_from_partition": (lambda: ideal_from_partition(ASCENT), "entry 100001 = 1 exceeds entry 100000 = 0"),
    "ideal_from_partition peel": (
        lambda: ideal_from_partition((2, 2, 1, 1) + (0,) * 10**5),
        "the peel stops at entries 1..4, where entry 4 is not isolated and entry 1 does not dominate",
    ),
    "graph_from_weights": (lambda: graph_from_weights(ASCENT), "entry 100001 = 1 exceeds entry 100000 = 0"),
    "graph_from_weights long value": (
        lambda: graph_from_weights((0,) * 10**5 + (Fraction(10**60 + 1, 3),)),
        "entry 100001 = 1000000000000000000000000000000000000... exceeds",
    ),
    "affine_rank": (lambda: affine_rank([(0,) * 10**5, (1,)]), "got 100000 at point 1 and 1 at point 2"),
}


@pytest.mark.parametrize("name", LONG_REFUSALS)
def test_a_refusal_names_the_first_offending_entry_and_never_echoes_the_vector(name):
    call, fault = LONG_REFUSALS[name]
    with pytest.raises(ValueError) as refusal:
        call()
    assert fault in str(refusal.value)
    assert len(str(refusal.value)) < 200


@pytest.mark.parametrize(
    "args",
    [(-1, 5), (2.5, 3), (True, 3), (3, 2.0), (3, Fraction(6)), (3, 6, 2.0), (3, 6, True), ("3", 6)],
    ids=repr,
)
def test_bounded_partitions_refuses_a_bad_length_or_bound_before_any_work(args):
    # unrefused, a negative or fractional n recurses until RecursionError
    with pytest.raises(ValueError, match=r"^need an int n >= 0 and int bounds, got \(n, max_total, max_entry\) = \("):
        bounded_partitions(*args)


def test_an_unstable_pool_names_its_first_ascent_and_never_echoes_the_vector(monkeypatch):
    monkeypatch.setattr(runs, "average_runs", lambda vec: vec)
    with pytest.raises(AssertionError) as failure:
        runs.pool((0, 1) + (0,) * 2000)
    assert str(failure.value) == "averaging failed to stabilize within 2001 rounds: entry 2 = 1 exceeds entry 1 = 0"


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
