"""Every public name in the package is used by the program, the benchmark or the tests' oracles.

A public top-level ``def`` or ``class`` of ``src/degpoly`` counts as
used when another statement of the package names it: a call, an
import or an annotation in another module, or in another top-level
statement of its own module (``__init__.py`` only re-exports, so it
does not count).  A script under ``bench/`` counts too, and in
``bench/spans.py`` so do the names in its strings, because its span
tables name the functions they patch.  The only other public names are
the oracles in ``ORACLES``, each mapped to the route the tests check
with it; that route, the first word of its description, must be a
public top-level ``def`` of the package.  Code that none of these reach
is a third route or a dead one, and should be deleted with its tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORACLES = {
    "hypergraph.reverse_saturate": "is_r_graphical_partition: any r-graph saturates to an r-ideal above it",
    "polytope.face_vertices": "are_adjacent: two vertices span an edge when their common tight face is just them",
    "polytope.fhm_violations": "in_fhm_polytope: the full O(n^2) scan of every constraint",
    "polytope.koren_oracle": "in_koren_polytope: all 3^n choices of disjoint S, T",
    "threshold.ideal_from_partition": "is_threshold_partition: the peel rebuilt as the order ideal of degrees d",
    "threshold.proper_threshold_oracle": "is_r_ideal at r = 2: peel isolated and dominating vertices",
}


def _names(statements, strings: bool = False) -> set[str]:
    """Identifiers the statements read, import or annotate with; with ``strings``, dotted words of str constants."""
    out = set()
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rsplit(".", 1)[-1])
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(node.value.replace(".", " ").split())
    return out


def unused(modules: dict[str, str], bench: dict[str, str]) -> list[str]:
    """``module.name`` of each public top-level def or class that nothing uses, in source order.

    ``modules`` and ``bench`` map a module's stem to its source.
    """
    trees = {stem: ast.parse(text) for stem, text in modules.items() if stem != "__init__"}
    named = set().union(*(_names([ast.parse(text)], strings=stem == "spans") for stem, text in bench.items()))
    found = []
    for stem, tree in trees.items():
        elsewhere = named.union(*(_names(other.body) for key, other in trees.items() if key != stem))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere and node.name not in _names(s for s in tree.body if s is not node):
                found.append(f"{stem}.{node.name}")
    return found


def test_every_public_name_is_used_or_an_oracle():
    modules = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "degpoly").glob("*.py"))}
    bench = {path.stem: path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))}
    found = set(unused(modules, bench))
    assert sorted(found - ORACLES.keys()) == [], "public names that no module, bench script or oracle list uses"
    assert sorted(ORACLES.keys() - found) == [], "ORACLES entries that are gone or that the program now uses"


def test_each_oracle_names_a_route_that_exists():
    # the first word of a description is the fast route the oracle checks; a deleted route leaves a stale entry
    routes = set()
    for path in (ROOT / "src" / "degpoly").glob("*.py"):
        tree = ast.parse(path.read_text())
        routes.update(n.name for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"))
    named = {oracle: text.split(":")[0].split()[0] for oracle, text in ORACLES.items()}
    assert {oracle: route for oracle, route in named.items() if route not in routes} == {}, "ORACLES routes that are gone"


def test_the_claims_scan_catches_unused_names():
    modules = {
        "__init__": "from .a import Loose, dead, route\n",
        "a": (
            "def route(x):\n    return helper(x)\n"
            "def helper(x):\n    return x\n"
            "def dead(x):\n    return dead(x)\n"
            "def traced():\n    pass\n"
            "def _private():\n    pass\n"
            "class Loose:\n    pass\n"
        ),
        "b": "from .a import route\n\ndef caller(x):\n    return route(x)\n",
    }
    bench = {
        "spans": 'SPANNED = {"a": ("traced",)}\n',
        "run": 'from degpoly import b\nb.caller(1)\nprint("Loose")\n',
    }
    # a self-call, an __init__ export or a string outside spans.py is no use
    assert unused(modules, bench) == ["a.dead", "a.Loose"]
