"""Spans around each layer's public functions, and the per-layer metrics read from them.

Nothing under ``src/`` is instrumented.  ``Tracer.enable`` replaces each
listed function by a wrapper at every call site: a name imported with
``from .x import f`` is a separate binding in the importing module (for
example ``degpoly.optimize.pool``), so every ``degpoly`` module binding
the original object is patched, and ``disable`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent, op, note]``.  ``parent`` is
the index of the enclosing span (-1 for the root ``cli.main``), ``op``
the id of the ``cli.main`` call it belongs to, and ``note`` a count read
from the function's return value.  Self time is a span's duration minus
its children's.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

# Timed as spans, grouped by the layer (module) that defines them.
SPANNED = {
    "cli": ("cmd_optimize", "cmd_verify", "cmd_recognize", "jsonify"),
    "runs": ("pool",),
    "threshold": ("graph_from_weights", "degree_partition_of_ideal", "enumerate_threshold_partitions"),
    "optimize": ("optimal_threshold_partition", "optimality_certificate", "brute_force_optimal_partition"),
    "polytope": (
        "in_fhm_polytope",
        "count_edges",
        "irredundancy_witness",
        "affine_rank",
        "enumerate_degree_partitions",
        "ds3_volume_estimate",
        "facet_inequalities",
    ),
    "hypergraph": (
        "is_r_graphical_partition",
        "realize_r_graph",
        "enumerate_r_ideals",
        "muirhead_chain",
        "brute_force_r_graphical",
    ),
}
# Called thousands of times per op: counted only, their time stays in the caller's span.
COUNTED = {"core": ("majorizes",), "polytope": ("are_adjacent",)}
CACHED = ("polytope.facet_inequalities", "hypergraph.enumerate_r_ideals")
LAYERS = tuple(SPANNED)

# Counts read from return values: PoolResult.rounds, OrderIdeal.edges,
# FhmMembership.violations (None for members), ideals listed, chain steps.
NOTES: dict[str, Callable[[Any], Any]] = {
    "runs.pool": lambda res: res.rounds,
    "threshold.graph_from_weights": lambda res: len(res.edges) / res.n,
    "polytope.in_fhm_polytope": lambda res: None if res.member else len(res.violations),
    "hypergraph.enumerate_r_ideals": len,
    "hypergraph.muirhead_chain": len,
}

# name -> (unit, better); every name here is printed by a traced run.
PER_LAYER = {
    "cli.self_ms_per_op": ("ms", "lower"),
    "cli.report_bytes_per_op": ("bytes", "lower"),
    "runs.pool.self_ms_per_op": ("ms", "lower"),
    "runs.pool.rounds_per_call": ("count", "lower"),
    "threshold.graph_from_weights.self_ms_per_op": ("ms", "lower"),
    "threshold.degree_partition_of_ideal.self_ms_per_op": ("ms", "lower"),
    "threshold.edges_per_degree": ("ratio", "lower"),
    "optimize.optimality_certificate.self_ms_per_op": ("ms", "lower"),
    "optimize.optimal_threshold_partition.self_ms_per_op": ("ms", "lower"),
    "polytope.in_fhm_polytope.self_ms_per_call": ("ms", "lower"),
    "polytope.in_fhm_polytope.calls_per_op": ("count", "lower"),
    "polytope.in_fhm_polytope.violations_per_nonmember": ("count", "lower"),
    "hypergraph.is_r_graphical_partition.self_ms_per_op": ("ms", "lower"),
    "hypergraph.realize_r_graph.self_ms_per_op": ("ms", "lower"),
    "hypergraph.ideals_scanned_per_op": ("count", "lower"),
    "hypergraph.enumerate_r_ideals.cache_hit_ratio": ("ratio", "higher"),
    "hypergraph.muirhead_chain.steps_per_call": ("count", "lower"),
    "core.majorizes.calls_per_op": ("count", "lower"),
    "polytope.are_adjacent.calls_per_op": ("count", "lower"),
    "polytope.count_edges.self_ms_per_op": ("ms", "lower"),
    "polytope.irredundancy_witness.self_ms_per_op": ("ms", "lower"),
    "polytope.affine_rank.self_ms_per_op": ("ms", "lower"),
    "polytope.enumerate_degree_partitions.self_ms_per_op": ("ms", "lower"),
    "polytope.ds3_volume_estimate.self_ms_per_op": ("ms", "lower"),
    "polytope.facet_inequalities.cache_hit_ratio": ("ratio", "higher"),
    "threshold.enumerate_threshold_partitions.self_ms_per_op": ("ms", "lower"),
    "optimize.brute_force_optimal_partition.self_ms_per_op": ("ms", "lower"),
    "hypergraph.brute_force_r_graphical.self_ms_per_op": ("ms", "lower"),
    **{f"layer.{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", "higher"),
    "runs.pool.growth_exp": ("exponent", "lower"),
    "threshold.graph_from_weights.growth_exp": ("exponent", "lower"),
    "optimize.optimality_certificate.growth_exp": ("exponent", "lower"),
    "polytope.in_fhm_polytope.growth_exp": ("exponent", "lower"),
}


class Tracer:
    """Spans and counts of one traced run; construct it after degpoly is imported."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.calls: Counter[str] = Counter()
        self._patches = self._find_patches()
        self._caches = {key: getattr(sys.modules[f"degpoly.{key.split('.')[0]}"], key.split(".")[1]) for key in CACHED}
        self._cache_start: dict[str, Any] = {}
        self.cache_delta = {key: [0, 0] for key in CACHED}

    def span(self, name: str, fn: Callable, root: bool = False) -> Callable:
        spans, stack, note = self.spans, self.stack, NOTES.get(name)

        def wrapper(*args, **kwargs):
            # depth guard: a recursive call (cli.jsonify) stays inside its outer span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if root:
                self.op += 1
            rec = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if note is not None:
                rec[5] = note(result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _find_patches(self) -> list[tuple[Any, str, Any, Callable]]:
        """(module, attribute, original, wrapper) for every binding to patch."""
        wrappers = {}
        for table, make in ((SPANNED, self.span), (COUNTED, self.counter)):
            for layer, names in table.items():
                module = sys.modules[f"degpoly.{layer}"]
                for fname in names:
                    original = getattr(module, fname)
                    wrappers[id(original)] = (original, make(f"{layer}.{fname}", original))
        return [
            (module, attr, value, wrappers[id(value)][1])
            for mod_name, module in list(sys.modules.items())
            if mod_name == "degpoly" or mod_name.startswith("degpoly.")
            for attr, value in vars(module).items()
            if id(value) in wrappers and wrappers[id(value)][0] is value
        ]

    def enable(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._cache_start = {key: fn.cache_info() for key, fn in self._caches.items()}

    def disable(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        for key, fn in self._caches.items():
            end, start = fn.cache_info(), self._cache_start[key]
            self.cache_delta[key][0] += end.hits - start.hits
            self.cache_delta[key][1] += end.misses - start.misses

    def metrics(self, ops: int, report_bytes: int) -> dict[str, float]:
        """Per-layer metrics over ``ops`` traced ``cli.main`` calls."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        total_ns: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        notes: defaultdict[str, list] = defaultdict(list)
        for i, rec in enumerate(spans):
            name, dur = rec[0], rec[2] - rec[1]
            total_ns[name] += dur
            self_ns[name] += dur - child_ns[i]
            calls[name] += 1
            if rec[5] is not None:
                notes[name].append(rec[5])

        def per_op_ms(ns: float) -> float:
            return ns / 1e6 / ops

        def mean(values: list) -> float:
            return sum(values) / len(values) if values else 0.0

        out: dict[str, float] = {}
        cmd_ns = sum(total_ns[f"cli.{f}"] for f in SPANNED["cli"] if f.startswith("cmd_"))
        out["cli.self_ms_per_op"] = per_op_ms(total_ns["cli.main"] - cmd_ns)
        out["cli.report_bytes_per_op"] = report_bytes / ops
        for name in PER_LAYER:
            if name.endswith(".self_ms_per_op") and name not in out:
                out[name] = per_op_ms(self_ns[name.removesuffix(".self_ms_per_op")])
        fhm = "polytope.in_fhm_polytope"
        out[f"{fhm}.self_ms_per_call"] = self_ns[fhm] / 1e6 / calls[fhm] if calls[fhm] else 0.0
        out[f"{fhm}.calls_per_op"] = calls[fhm] / ops
        out[f"{fhm}.violations_per_nonmember"] = mean(notes[fhm])
        out["runs.pool.rounds_per_call"] = mean(notes["runs.pool"])
        out["threshold.edges_per_degree"] = mean(notes["threshold.graph_from_weights"])
        out["hypergraph.ideals_scanned_per_op"] = sum(notes["hypergraph.enumerate_r_ideals"]) / ops
        out["hypergraph.muirhead_chain.steps_per_call"] = mean(notes["hypergraph.muirhead_chain"])
        out["core.majorizes.calls_per_op"] = self.calls["core.majorizes"] / ops
        out["polytope.are_adjacent.calls_per_op"] = self.calls["polytope.are_adjacent"] / ops
        for key, (hits, misses) in self.cache_delta.items():
            out[f"{key}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        root_ns = total_ns["cli.main"]
        layer_ns = Counter()
        for name, ns in self_ns.items():
            layer_ns[name.split(".")[0]] += ns
        for layer in LAYERS:
            out[f"layer.{layer}.self_share"] = layer_ns[layer] / root_ns if root_ns else 0.0
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_ns", "end_ns", "parent", "op", "note"]
        with path.open("w") as fh:
            json.dump({**header, "span_fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
