"""The names the benchmark uses still exist in the library.

``bench/spans.py`` patches functions by name and reads ``cache_info`` of
cached ones, ``bench/selftest.py`` and ``bench/sweep.py`` import
degpoly names and call module attributes, and ``bench/workloads.py``
checks every workload's reports by their check names and result fields; a
renamed or deleted function, check or field would otherwise surface
only when those scripts run.  The files are read, not imported, so
nothing is written next to them; the one script run whole is
``bench/selftest.py``, in a subprocess that writes no bytecode.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

from degpoly.cli import main

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


def _bench_module(name: str, monkeypatch) -> ModuleType:
    """``bench/<name>.py`` run from its source text, registered as ``name`` for this test only."""
    path = BENCH / f"{name}.py"
    module = ModuleType(name)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


@pytest.mark.parametrize("name", ["optimize", "recognize-graphs", "recognize-small", "verify"])
def test_reports_carry_what_the_benchmark_checks(name, monkeypatch, capsys):
    # the first op of each shape goes through cli.main and then the workload's own check
    _bench_module("oracles", monkeypatch)
    workloads = _bench_module("workloads", monkeypatch)
    # fewer Monte Carlo samples keep the volume3 op short; the check reads the same constant
    workloads.VOLUME_SAMPLES = 100
    workload = workloads.WORKLOADS[name]
    first_of_shape = {}
    for op in workloads.ops_for(workload, 1):
        first_of_shape.setdefault(op.shape, op)
    if name == "verify":
        suites = {op.data for op in first_of_shape.values() if op.argv[0] == "verify"}
        assert suites == set(workloads.VERIFY_SUITES) | {("volume3", 1)}
    for op in first_of_shape.values():
        main(list(op.argv))
        report = json.loads(capsys.readouterr().out)
        assert workload.check(op, report) is None, op.argv


def test_bench_selftest_passes():
    # run from the checkout root, as the benchmark's own docs say
    done = subprocess.run(
        [sys.executable, "-B", "bench/selftest.py"], cwd=BENCH.parent, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
