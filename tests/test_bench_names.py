"""The names the benchmark's tracer looks up still exist in the library.

``bench/spans.py`` patches functions by name and reads ``cache_info`` of
cached ones; a renamed or deleted function would otherwise surface only
when ``bench/run.py --trace 1`` runs.  The file is read, not imported,
so nothing is written next to it.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
