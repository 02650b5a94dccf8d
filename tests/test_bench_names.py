"""The names the benchmark uses still exist in the library.

``bench/spans.py`` patches functions by name and reads ``cache_info`` of
cached ones, and ``bench/selftest.py`` and ``bench/sweep.py`` import
degpoly names and call module attributes; a renamed or deleted function
would otherwise surface only when those scripts run.  The files are
read, not imported, so nothing is written next to them.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def test_traced_names_resolve():
    spans = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    for table in (spans["SPANNED"], spans["COUNTED"]):
        for layer, names in table.items():
            module = importlib.import_module(f"degpoly.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"degpoly.{layer}.{name}"
    for key in spans["CACHED"]:
        layer, name = key.split(".")
        function = getattr(importlib.import_module(f"degpoly.{layer}"), name, None)
        assert hasattr(function, "cache_info"), f"degpoly.{key}"


def _imported(module: str, name: str):
    """``from module import name``: a submodule, else an attribute (None when missing)."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def _unresolved(source: str) -> list[str]:
    """degpoly names the source imports or reads off a degpoly module that do not exist."""
    tree = ast.parse(source)
    missing, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "degpoly":
            for alias in node.names:
                found = _imported(node.module, alias.name)
                if found is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(found, ModuleType):
                    modules[alias.asname or alias.name] = found
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if module is not None and not hasattr(module, node.attr):
                missing.append(f"{module.__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("script", ["selftest.py", "sweep.py"])
def test_benchmark_imports_resolve(script):
    source = (BENCH / script).read_text()
    assert "degpoly" in source
    assert _unresolved(source) == []


def test_the_import_scan_catches_missing_names():
    source = """
from degpoly import polytope, runs
from degpoly.hypergraph import brute_force_r_graphical, no_such_oracle
runs.pava_oracle(costs)
runs.no_such_pool(costs)
polytope.in_fhm_polytope(d)
"""
    assert _unresolved(source) == ["degpoly.hypergraph.no_such_oracle", "degpoly.runs.no_such_pool"]
