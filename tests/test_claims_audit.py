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
public top-level ``def`` of the package, and some function of
``tests/`` must call the two together.  Code that none of these reach
is a third route or a dead one, and should be deleted with its tests.

Likewise every defaulted parameter of a public top-level ``def`` is
passed by some call of ``src/`` or ``bench/``, or listed in
``UNPASSED_KNOBS`` with the reason it stays: a knob that only the tests
turn is a second behaviour to keep for no caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# imported by a module that never reads it, and why the import stays
UNREAD_IMPORTS = {
    "polytope.enumerate_degree_partitions": "bench/spans.py spans it as a polytope-layer function",
}

ORACLES = {
    "polytope.facet_rank_adjacent": "are_adjacent: two vertices span an edge when the facets tight at both have rank n - 1",
    "polytope.fhm_violations": "in_fhm_polytope: the full O(n^2) scan of every constraint",
    "polytope.koren_oracle": "is_degree_sequence: all 3^n choices of disjoint S, T, on even-sum integer vectors",
    "threshold.ideal_from_partition": "enumerate_r_ideals at r = 2: the shifted shape {(i, j) : i < j <= d_i + 1} of degrees d",
    "threshold.proper_threshold_oracle": "is_r_ideal at r = 2: peel isolated and dominating vertices",
}

# the only functions that build an RGraph with hypergraph._built, which checks nothing, and why their edges are valid
TRUSTED_BUILDERS = {
    "hypergraph.enumerate_r_ideals": "the walk takes its edges from r_subsets, increasing tuples in [n]",
    "hypergraph.realize_r_graph": "relabels by a bijection of [n] and sorts each edge; its degree check stays",
    "hypergraph.havel_hakimi": "appends each pair smaller label first, and no pair twice",
}

# defaulted parameters that no call of the program or the benchmark passes, and why each stays
UNPASSED_KNOBS = {
    "threshold.graph_from_weights.strict": "the min-mode oracle of Certificate.optimizer: the edge-minimal ideal",
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


def _route(description: str) -> str:
    """The fast route an oracle checks: the first word of its ``ORACLES`` description."""
    return description.split(":")[0].split()[0]


def test_each_oracle_names_a_route_that_exists():
    # a deleted route leaves a stale entry
    routes = set()
    for path in (ROOT / "src" / "degpoly").glob("*.py"):
        tree = ast.parse(path.read_text())
        routes.update(n.name for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"))
    named = {oracle: _route(text) for oracle, text in ORACLES.items()}
    assert {oracle: route for oracle, route in named.items() if route not in routes} == {}, "ORACLES routes that are gone"


def unmet_oracles(tests: list[str], oracles: dict[str, str]) -> list[str]:
    """``module.name`` of each oracle that no function of the ``tests`` sources calls together with its route.

    A function counts with every call in its body, nested functions
    included, so a helper that compares the two counts for every test
    that uses it.
    """
    met = set()
    for text in tests:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef):
                called = {
                    call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
                }
                met.update(
                    oracle
                    for oracle, description in oracles.items()
                    if {oracle.rsplit(".", 1)[-1], _route(description)} <= called
                )
    return [oracle for oracle in oracles if oracle not in met]


def test_each_oracle_meets_its_route_in_a_test():
    # an oracle that nothing compares with its route checks nothing: delete it or compare it
    tests = [path.read_text() for path in sorted((ROOT / "tests").glob("*.py"))]
    assert unmet_oracles(tests, ORACLES) == [], "oracles that no test function calls beside their route"


def test_the_oracle_scan_wants_both_calls_in_one_function():
    oracles = {"a.scan": "sweep: the full scan", "a.walk": "peel: every subset", "a.spare": "peel: unused"}
    tests = [
        (
            "def _check(x):\n    assert a.sweep(x) == scan(x)\n"
            "def test_sweep():\n    _check(1)\n"
            "def test_peel():\n    assert peel(2)\n"
            "def test_walk():\n    assert walk(2) == 'peel(2)'\n"
        ),
        "def test_spare():\n    spare(1)\n",
    ]
    # the helper meets its route; calls in different functions, or a route named only in a string, do not
    assert unmet_oracles(tests, oracles) == ["a.walk", "a.spare"]


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


def private_imports(modules: dict[str, str]) -> list[str]:
    """``module: from .x import _name`` for each private name a package module imports from a sibling.

    Reading an attribute such as ``runs._pava_blocks`` is allowed: one
    binding, in its defining module, is what a test can patch.
    """
    found = []
    for stem, text in modules.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.extend(
                    f"{stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "degpoly").glob("*.py"))}
    assert private_imports(modules) == [], "a private name belongs to its module: move it beside its caller"


def test_the_private_import_scan_catches_from_imports_only():
    modules = {
        "a": "from .b import _sweep, route\nfrom . import runs\n\ndef f(x):\n    return runs._pava_blocks(x)\n",
        "b": "from __future__ import annotations\nfrom .c import (\n    public,\n    _hidden as shown,\n)\n",
    }
    assert private_imports(modules) == ["a: from .b import _sweep", "b: from .c import _hidden"]


def unread_imports(modules: dict[str, str]) -> list[str]:
    """``module.name`` for each name a package module imports and never reads, in source order.

    ``__init__`` only re-exports, so it is skipped, and so is the
    ``annotations`` future import.
    """
    found = []
    for stem, text in modules.items():
        if stem == "__init__":
            continue
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.extend(
            f"{stem}.{name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if name != "annotations" and name not in read
        )
    return found


def test_no_module_imports_a_name_it_never_reads():
    modules = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "degpoly").glob("*.py"))}
    assert unread_imports(modules) == list(UNREAD_IMPORTS), "an import nothing reads is left over: delete it"


def test_the_unread_import_scan_catches_a_leftover_import():
    modules = {
        "__init__": "from .a import route, shown\n",
        "a": (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from .b import (\n    Typed,\n    called,\n    left as over,\n)\n\n"
            "def route(x: Typed) -> str:\n    return os.path.join(called(x))\n"
        ),
    }
    assert unread_imports(modules) == ["a.over"]


def unpassed_knobs(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function.parameter`` of each defaulted parameter of a public top-level def that no call passes.

    ``modules`` maps a package module's stem to its source; the calls
    counted are those in the ``callers`` sources, matched by the called
    name.  A call passes a parameter by position or by keyword, and a
    starred call (``*args`` or ``**kwargs``) passes every one.
    """
    defs = {}
    for stem, text in modules.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults) :]
                defaulted += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                if defaulted:
                    defs[node.name] = (stem, positional, defaulted)
    passed = {name: set() for name in defs}
    for text in callers:
        for call in ast.walk(ast.parse(text)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in defs:
                continue
            _, positional, defaulted = defs[name]
            if any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg is None for k in call.keywords):
                passed[name].update(defaulted)
            passed[name].update(positional[: len(call.args)])
            passed[name].update(k.arg for k in call.keywords)
    return [
        f"{stem}.{name}.{param}"
        for name, (stem, _, defaulted) in defs.items()
        for param in defaulted
        if param not in passed[name]
    ]


def test_every_knob_is_passed_by_the_program_or_listed():
    modules = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "degpoly").glob("*.py"))}
    callers = [*modules.values(), *(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))]
    assert unpassed_knobs(modules, callers) == list(UNPASSED_KNOBS), "a knob only the tests turn: delete it or list why"


def test_the_knob_scan_counts_positional_keyword_and_starred_calls():
    modules = {
        "a": (
            "def route(x, scale=1, *, strict=False):\n    return x\n"
            "def loose(x, mode='max'):\n    return x\n"
            "def spread(x, y=0, z=0):\n    return x\n"
            "def _private(x, k=1):\n    return x\n"
            "def plain(x):\n    return x\n"
        ),
    }
    callers = [
        "from .a import route\n\ndef f(x):\n    return route(x, 2) + _private(x)\n",
        "from degpoly import a\na.loose(1, mode='min')\na.spread(*(1,))\nprint('route(1, strict=True)')\n",
    ]
    # strict is passed only inside a string, and _private is not public
    assert unpassed_knobs(modules, callers) == ["a.route.strict"]


def trusted_builders(modules: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level statement that names ``_built``, its own def aside, in source order.

    A name counts read or called, as an attribute too, nested
    functions included, so an alias of the constructor is caught.
    """
    found = []
    for stem, text in modules.items():
        for node in ast.parse(text).body:
            if getattr(node, "name", None) != "_built" and "_built" in _names([node]):
                found.append(f"{stem}.{getattr(node, 'name', node.lineno)}")
    return found


def test_only_the_listed_routes_build_without_checks():
    modules = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "degpoly").glob("*.py"))}
    assert sorted(trusted_builders(modules)) == sorted(TRUSTED_BUILDERS), "a new caller of _built: list why its edges are valid"


def test_the_trusted_builder_scan_catches_nested_calls_and_aliases():
    modules = {
        "a": (
            "def _built(n, r, edges):\n    return edges\n"
            "def walk(n):\n    def step(t):\n        return _built(n, 2, t)\n    return step\n"
            "def checked(n):\n    return RGraph(n, 2, ())\n"
            "make = _built\n"
        ),
        "b": "from . import a\n\ndef loose(n):\n    return a._built(n, 2, ())\n",
    }
    assert trusted_builders(modules) == ["a.walk", "a.9", "b.loose"]
