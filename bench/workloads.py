"""Seeded op sequences for each workload, and the checks on their reports.

An op is one ``degpoly.cli.main(argv)`` call.  A workload turns a seed
into a fixed pool of ops; the timed loop cycles through the pool in
order, so the same seed always gives the same argv sequence.  Values go
in as ``--costs=...`` / ``--seq=...`` because argparse would read a
leading negative token such as ``-3/2,...`` as an option.

``check`` returns None when a report is right and a one-line reason when
it is not; it runs outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

import oracles


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    shape: tuple  # ops of one shape share caches; setup warms one op per shape
    data: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, int], list[Op]]
    check: Callable[[Op, Any], str | None]
    # layer expected to hold the largest self-time share, or None
    expected_top_layer: str | None
    # the op mix repeats every ``period`` ops; a timed run covers whole periods
    period: int


def ops_for(workload: Workload, seed: int) -> list[Op]:
    return workload.build(random.Random(f"{workload.name}/{seed}"), seed)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# --- optimize ---------------------------------------------------------------

OPTIMIZE_N = 256
OPTIMIZE_POOL = 128


def random_costs(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-100, 100), rng.randint(1, 10)) for _ in range(n))


def _optimize_op(costs: tuple[Fraction, ...], mode: str, oracle: bool = False) -> Op:
    argv = ("optimize", "--costs=" + _csv(costs), "--mode", mode)
    if oracle:
        argv += ("--oracle",)
    return Op(argv, ("optimize", len(costs), mode, oracle), (costs, mode))


def build_optimize(rng: random.Random, seed: int) -> list[Op]:
    return [
        _optimize_op(random_costs(rng, OPTIMIZE_N), "max" if i % 2 == 0 else "min")
        for i in range(OPTIMIZE_POOL)
    ]


def check_optimize(op: Op, report: dict) -> str | None:
    costs, mode = op.data
    b = oracles.pava_decreasing(costs)
    degrees = oracles.threshold_degrees(b, strict=(mode == "min"))
    result = report["result"]
    if result["partition"] != degrees:
        return "partition differs from the PAVA degree count"
    value = sum((c * d for c, d in zip(costs, degrees)), Fraction(0))
    if Fraction(result["value"]) != value:
        return "objective value differs from sum(c_i * d_i)"
    cert = result["certificate"]
    if [Fraction(v) for v in cert["base"]] != b:
        return "certificate base differs from the PAVA projection"
    if [Fraction(v) for v in cert["coefficients"]] != oracles.certificate_coefficients(costs, b):
        return "certificate coefficients differ from the prefix sums of b - c"
    return None


# --- recognize, r = 2 at n = 200 ----------------------------------------------

GRAPHS_N = 200
GRAPHS_POOL = 128


def gnp(rng: random.Random, n: int, p: float) -> list[set[int]]:
    """Neighbour sets of a G(n, p) random graph."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                nbrs[i].add(j)
                nbrs[j].add(i)
    return nbrs


def build_recognize_graphs(rng: random.Random, seed: int) -> list[Op]:
    """Half G(n, p) degree sequences, a quarter far misses, a quarter near misses.

    Far miss: n/6 vertices of degree in [7n/8, n-1] and the rest in
    [0, n/5], even sum; each violates about 6000 prefix-suffix
    inequalities, within a few percent.  (Uniform values in [0, n-1] are
    graphical about one time in seven and violate anywhere from 0 to 6000,
    which moves the p90 from seed to seed.)  Near miss: a G(n, p) graph
    whose max-degree vertex is joined to every other vertex, with 2 added
    to that vertex's degree, so it fails the k = 1 inequality and few
    others.
    """
    n = GRAPHS_N
    ops = []
    for i in range(GRAPHS_POOL):
        kind = ("member", "far", "member", "near")[i % 4]
        if kind == "far":
            seq = [rng.randint(n - n // 8, n - 1) if v < n // 6 else rng.randint(0, n // 5) for v in range(n)]
            seq[-1] += sum(seq) % 2
            rng.shuffle(seq)
        else:
            nbrs = gnp(rng, n, rng.uniform(0.2, 0.8))
            if kind == "near":
                top = max(range(n), key=lambda v: len(nbrs[v]))
                for v in range(n):
                    if v != top:
                        nbrs[v].add(top)
                        nbrs[top].add(v)
            seq = [len(s) for s in nbrs]
            if kind == "near":
                seq[top] += 2
            rng.shuffle(seq)
        ops.append(Op(("recognize", "--seq=" + _csv(seq), "--r=2"), ("recognize", n, 2), tuple(seq)))
    return ops


def check_recognize_graphs(op: Op, report: dict) -> str | None:
    if report["result"]["graphical"] != oracles.erdos_gallai(op.data):
        return "verdict differs from Erdős–Gallai"
    return None


# --- recognize, small r-graphs on the realization path ----------------------

SMALL_SHAPES = ((6, 3), (5, 3), (6, 2), (5, 2))
SMALL_POOL = 1200  # a run of ~17000 ops sees every input about 14 times


@cache
def truth_set(n: int, r: int) -> frozenset[tuple[int, ...]]:
    return oracles.realizable_partitions(n, r)


def build_recognize_small(rng: random.Random, seed: int) -> list[Op]:
    """Degree sequences of random r-graphs; every third op per shape adds r to one vertex."""
    ops = []
    for i in range(SMALL_POOL):
        n, r = SMALL_SHAPES[i % len(SMALL_SHAPES)]
        q = rng.uniform(0.2, 0.8)
        seq = [0] * n
        for edge in combinations(range(n), r):
            if rng.random() < q:
                for v in edge:
                    seq[v] += 1
        if (i // len(SMALL_SHAPES)) % 3 == 2:
            seq[rng.randrange(n)] += r
        argv = ("recognize", "--seq=" + _csv(seq), f"--r={r}")
        ops.append(Op(argv, ("recognize", n, r), (n, r, tuple(seq))))
    return ops


def check_recognize_small(op: Op, report: dict) -> str | None:
    n, r, seq = op.data
    result = report["result"]
    expected = tuple(sorted(seq, reverse=True)) in truth_set(n, r)
    if result["graphical"] != expected:
        return "verdict differs from the exhaustive truth set"
    witness = result["witness_edges"]
    if not expected:
        return None if witness is None else "non-realizable input came with a witness"
    edges = {tuple(e) for e in witness}
    if len(edges) != len(witness) or any(
        len(e) != r or list(e) != sorted(set(e)) or not 1 <= e[0] <= e[-1] <= n for e in edges
    ):
        return "witness is not a set of r-subsets of [n]"
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v - 1] += 1
    return None if tuple(deg) == seq else "witness degrees differ from the input"


# --- verify suites and the brute-force optimize oracle ----------------------

VERIFY_SUITES = (
    ("counts", 8),
    ("edges", 8),
    ("facets", 6),
    ("lattice-points", 6),
    ("hypergraph", 5),
)
VERIFY_ORACLE_N = 11
VOLUME_SAMPLES = 200_000
VERIFY_ROUNDS = 8  # rounds of the suites per volume3 op, which alone costs about 1.2 s
VERIFY_CYCLES = 4
VERIFY_PERIOD = VERIFY_ROUNDS * (len(VERIFY_SUITES) + 1) + 1


def build_verify(rng: random.Random, seed: int) -> list[Op]:
    """Each cycle: the suites and an ``optimize --oracle``, VERIFY_ROUNDS times, then volume3 once."""
    volume = ("verify", "--n", "3", "--suite", "volume3", "--samples", str(VOLUME_SAMPLES), "--seed", str(seed))
    ops = []
    for _ in range(VERIFY_CYCLES):
        for _ in range(VERIFY_ROUNDS):
            for suite, n in VERIFY_SUITES:
                ops.append(Op(("verify", "--n", str(n), "--suite", suite), ("verify", suite, n), (suite, n)))
            ops.append(_optimize_op(random_costs(rng, VERIFY_ORACLE_N), "max", oracle=True))
        ops.append(Op(volume, ("verify", "volume3", 3), ("volume3", seed)))
    return ops


def decreasing_tuples(n: int, max_total: int, cap: int):
    """Weakly decreasing nonnegative n-tuples with entries <= cap and sum <= max_total."""
    if n == 0:
        yield ()
        return
    for v in range(min(cap, max_total), -1, -1):
        for rest in decreasing_tuples(n - 1, max_total - v, v):
            yield (v,) + rest


def _count(n: int, max_total: int) -> int:
    return sum(1 for _ in decreasing_tuples(n, max_total, max_total))


def expected_actuals(suite: str, n: int) -> dict[str, Any]:
    """The reported ``actual`` of each check, from closed forms and the oracles."""
    vertices, edges, facets = 2 ** (n - 1), 2 ** (n - 2) * (2 * n - 3), (n * n - 3 * n + 12) // 2
    if suite == "counts":
        return {"vertex-count": vertices, "edge-count": edges, "facet-count": facets,
                "dominating-sum-identity": vertices}
    if suite == "edges":
        return {"edge-count": edges, "edge-recurrence": edges}
    if suite == "facets":
        return {"facet-count": facets, "facet-validity-violations": 0,
                "min-tight-affine-rank": None, "facet-irredundancy-witnesses": facets}
    if suite == "lattice-points":
        graphical = sum(
            1 for d in decreasing_tuples(n, n * (n - 1), n - 1) if oracles.erdos_gallai(d)
        )
        return {"lattice-point-count": graphical, "lattice-point-symmetric-difference": 0}
    if suite == "hypergraph":
        return {"r3-recognition-agreement": _count(n, 12), "r2-recognition-agreement": _count(n, 10),
                "r2-matches-graph-membership": _count(n, 10)}
    raise ValueError(f"no closed forms for suite {suite!r}")


def check_verify(op: Op, report: dict) -> str | None:
    if op.argv[0] == "optimize":
        return check_optimize(op, report)
    suite, arg = op.data
    if suite == "volume3":
        result = report["result"]
        if (result["exact_volume"], result["seed"], result["samples"]) != ("1/3", arg, VOLUME_SAMPLES):
            return "volume3 result differs from the exact volume, seed or sample count"
        return None
    want = expected_actuals(suite, arg)
    got = {c["name"]: c["actual"] for c in report["checks"]}
    if set(got) != set(want):
        return f"suite reported checks {sorted(got)}, expected {sorted(want)}"
    wrong = [name for name, value in want.items() if value is not None and got[name] != value]
    return f"checks {wrong} differ from their closed forms" if wrong else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("optimize", build_optimize, check_optimize, "threshold", 2),
        Workload("recognize-graphs", build_recognize_graphs, check_recognize_graphs, "polytope", 4),
        Workload("recognize-small", build_recognize_small, check_recognize_small, "cli", 3 * len(SMALL_SHAPES)),
        Workload("verify", build_verify, check_verify, None, VERIFY_PERIOD),
    )
}
