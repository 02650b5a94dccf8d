"""Degree sequences of r-uniform hypergraphs via majorization.

Order the r-element subsets of [n] coordinatewise, each subset written in
increasing order.  Edge sets that are downward closed ("r-ideals") have
weakly decreasing degree sequences, and a partition with total divisible
by r is the degree sequence of some r-graph exactly when an r-ideal
partition with the same total majorizes it.

The "if" direction is built: a Muirhead chain of unit transfers, each
from a vertex at least two above another, walks any majorizing partition
to the target on the sorted degrees, one edge swap per transfer, and the
result takes the caller's vertex labels, rank for rank.

Graphs are the case r = 2: the pairs ordered componentwise form the same
poset, its ideals are the proper threshold graphs of
:mod:`degpoly.threshold`, and that module builds them as ``RGraph(n, 2,
edges)``, as :func:`enumerate_r_ideals` does at every r, and tests
closure with :func:`is_r_ideal`.

One brute-force walk is the independent oracle of both directions, at any r:
:func:`enumerate_degree_partitions` visits all 2^C(n, r) edge sets in
Gray-code order and refuses C(n, r) > 21 before it starts, and
:func:`brute_force_r_graphical` is membership in its result.

At r = 2 the Havel-Hakimi greedy construction, :func:`havel_hakimi`,
builds a witness graph for any n, or shows that none exists; the
lattice-points suite of :mod:`degpoly.cli` holds the polytope's
even-sum lattice points to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import (
    IntSequence,
    Partition,
    check_partition,
    is_int_vector,
    is_weakly_decreasing,
    majorizes,
    sort_decreasing,
)

RSubset = tuple[int, ...]

# Poset-wide enumerations stay tractable while C(n, r) is small.
POSET_SIZE_BOUND = 20
# The brute-force walk visits all 2^C(n, r) edge sets; C(7, 2) = 21 keeps
# every graph on up to seven vertices.
BRUTE_FORCE_EDGES = 21


def _check_size(n: int, r: int) -> None:
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")


def r_subsets(n: int, r: int) -> tuple[RSubset, ...]:
    """All r-element subsets of [n] as increasing tuples, lexicographic.

    Empty when r > n.
    """
    _check_size(n, r)
    return tuple(combinations(range(1, n + 1), r))


def subset_lower_covers(subset: RSubset) -> Iterator[RSubset]:
    """Decrement one coordinate, keeping the tuple strictly increasing."""
    for p, v in enumerate(subset):
        floor = subset[p - 1] if p else 0
        if v - 1 > floor:
            yield subset[:p] + (v - 1,) + subset[p + 1 :]


@dataclass(frozen=True)
class RGraph:
    """An r-uniform hypergraph on [n]; edges stored sorted.

    Each edge is r distinct exact-``int`` labels in [n], given in any
    order.  When r > n only the empty edge set exists.
    """

    n: int
    r: int
    edges: frozenset[RSubset]

    def __post_init__(self) -> None:
        _check_size(self.n, self.r)
        edges = tuple(self.edges)
        # one pass over all labels keeps construction cheap on the recognize path
        if not is_int_vector(chain.from_iterable(edges)):
            bad = next(e for e in edges if not is_int_vector(e))
            raise ValueError(f"edge labels must be integers: {bad!r}")
        normalized = frozenset(map(tuple, map(sorted, edges)))
        for e in normalized:
            if len(e) != self.r or len(set(e)) != self.r:
                raise ValueError(f"not an {self.r}-subset: {e!r}")
            if not (1 <= e[0] and e[-1] <= self.n):
                raise ValueError(f"edge {e!r} leaves [{self.n}]")
        object.__setattr__(self, "edges", normalized)


def degree_sequence(graph: RGraph) -> IntSequence:
    """Vertex degrees in label order 1..n (not sorted)."""
    deg = [0] * graph.n
    for edge in graph.edges:
        for v in edge:
            deg[v - 1] += 1
    return tuple(deg)


def is_r_ideal(graph: RGraph) -> bool:
    """Is the edge set downward closed in the coordinatewise order?

    Single-coordinate decrements generate the order, so checking lower
    covers of every edge suffices.
    """
    return all(
        cover in graph.edges
        for edge in graph.edges
        for cover in subset_lower_covers(edge)
    )


def muirhead_chain(a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Unit transfers (source, target), 1-based, carrying ``a`` to a rearrangement of ``b``.

    Requires ``a`` to majorize ``b``.  Each step views the current
    sequence in sorted order (ties broken by position), takes the first
    sorted position where the prefix sums strictly exceed those of the
    sorted target as the source and the first valuewise deficit as the
    target; majorization makes the source at least two larger, and a
    step that is not raises ``AssertionError``, also under ``python -O``.
    """
    if not majorizes(a, b):
        raise ValueError("chain construction needs the start to majorize the goal")
    cur = list(a)
    goal = sort_decreasing(b)
    goal_prefix = tuple(accumulate(goal))
    chain: list[tuple[int, int]] = []
    while sort_decreasing(cur) != goal:
        order = sorted(range(len(cur)), key=lambda p: (-cur[p], p))
        vals = [cur[p] for p in order]
        val_prefix = tuple(accumulate(vals))
        src = order[next(t for t in range(len(cur)) if val_prefix[t] > goal_prefix[t])]
        tgt = order[next(t for t in range(len(cur)) if vals[t] < goal[t])]
        if cur[src] < cur[tgt] + 2:
            raise AssertionError(f"transfer {src + 1} -> {tgt + 1} lacks a surplus of two in {cur!r}")
        chain.append((src + 1, tgt + 1))
        cur[src] -= 1
        cur[tgt] += 1
    return tuple(chain)


def _edge_swap(edges: set[RSubset], n: int, r: int, src: int, tgt: int) -> tuple[RSubset, RSubset] | None:
    """The first (X + {src}, X + {tgt}) with the first an edge and the second not.

    X runs lazily, in lexicographic order, over the (r-1)-subsets of [n]
    that avoid both vertices; None when no X qualifies.
    """
    others = [v for v in range(1, n + 1) if v != src and v != tgt]
    for ctx in combinations(others, r - 1):
        with_src = tuple(sorted(ctx + (src,)))
        if with_src in edges:
            with_tgt = tuple(sorted(ctx + (tgt,)))
            if with_tgt not in edges:
                return with_src, with_tgt
    return None


@lru_cache(maxsize=None)
def enumerate_r_ideals(n: int, r: int) -> tuple[RGraph, ...]:
    """Every r-ideal on [n]: the r-graphs whose edge sets are downward closed.

    Lexicographic order on subsets extends the coordinatewise order, so a
    depth-first include/exclude scan along it, where a subset may be
    included only once all its lower covers are in, visits each ideal
    exactly once.  Capped at C(n, r) <= 20 poset elements.
    """
    if comb(n, r) > POSET_SIZE_BOUND:
        raise ValueError(
            f"ideal enumeration needs C(n, r) <= {POSET_SIZE_BOUND}, got {comb(n, r)}"
        )
    elems = r_subsets(n, r)
    index = {e: t for t, e in enumerate(elems)}
    cover_ids = [
        tuple(index[c] for c in subset_lower_covers(e))
        for e in elems
    ]
    out: list[RGraph] = []
    chosen = [False] * len(elems)

    def walk(t: int) -> None:
        if t == len(elems):
            out.append(RGraph(n, r, frozenset(e for e, c in zip(elems, chosen) if c)))
            return
        chosen[t] = False
        walk(t + 1)
        if all(chosen[c] for c in cover_ids[t]):
            chosen[t] = True
            walk(t + 1)
            chosen[t] = False

    walk(0)
    return tuple(out)


def _majorizing_ideal(vec: Partition, n: int, r: int) -> tuple[Partition, RGraph] | None:
    """The lexicographically least r-ideal partition with the total of ``vec`` that majorizes it.

    Returned with the first enumerated ideal of that partition, or None
    when no r-ideal partition majorizes ``vec``.
    """
    total = sum(vec)
    picks: dict[Partition, RGraph] = {}
    for ideal in enumerate_r_ideals(n, r):
        if len(ideal.edges) * r != total:
            continue
        part = degree_sequence(ideal)
        if not is_weakly_decreasing(part):
            raise AssertionError(f"ideal degrees must weakly decrease, got {part!r}")
        picks.setdefault(part, ideal)
    return next(((part, ideal) for part, ideal in sorted(picks.items()) if majorizes(part, vec)), None)


def _degree_query(d: Sequence[int], n: int, r: int) -> Partition | None:
    """``d`` as a length-n partition, or None when r does not divide its total; else ``ValueError``."""
    _check_size(n, r)
    vec = check_partition(d, "degree partition")
    if len(vec) != n:
        raise ValueError(f"partition length {len(vec)} differs from n={n}")
    return None if sum(vec) % r else vec


def _unsorted_degree_query(d: Sequence[int], n: int, r: int) -> Partition | None:
    """:func:`_degree_query` of ``d`` in any vertex order, sorted."""
    # unsorted, an entry that is not an int meets check_partition's ValueError, not a sort's TypeError
    return _degree_query(sort_decreasing(d) if is_int_vector(d) else d, n, r)


def is_r_graphical_partition(d: Sequence[int], n: int, r: int) -> bool:
    """Is ``d`` the degree partition of some r-graph on [n]?

    True exactly when the total is divisible by r and some r-ideal
    partition with the same total majorizes ``d``.
    """
    vec = _degree_query(d, n, r)
    return vec is not None and _majorizing_ideal(vec, n, r) is not None


def realize_r_graph(d: Sequence[int], n: int, r: int) -> RGraph | None:
    """Build an r-graph whose vertex k has degree ``d[k-1]``, or None.

    ``d`` may come in any order.  The walk starts from the
    lexicographically least r-ideal partition that majorizes the sorted
    ``d``, realized by its ideal, whose degrees weakly decrease in label
    order, and follows the Muirhead chain down to it.  Each unit
    transfer from vertex i to vertex j is realized by swapping one edge
    X + {i} (present) for X + {j} (absent), and moves one unit of the
    walk's degrees; a counting argument on the degrees guarantees such an
    X exists, and the first one in lexicographic order is taken.  The one
    ``RGraph`` built gives the walked vertex of each degree rank (ties by
    label) the label of d's vertex of that rank.
    """
    vec = _unsorted_degree_query(d, n, r)
    start = None if vec is None else _majorizing_ideal(vec, n, r)
    if start is None:
        return None
    part, ideal = start
    edges = set(ideal.edges)
    deg = list(part)
    for src, tgt in muirhead_chain(part, vec):
        swap = _edge_swap(edges, n, r, src, tgt)
        if swap is None:
            raise AssertionError(f"degree surplus guarantees a swappable edge for {src} -> {tgt}")
        edges.remove(swap[0])
        edges.add(swap[1])
        deg[src - 1] -= 1
        deg[tgt - 1] += 1
    by_rank_walked = sorted(range(1, n + 1), key=lambda v: -deg[v - 1])
    by_rank_input = sorted(range(1, n + 1), key=lambda v: -d[v - 1])
    label = dict(zip(by_rank_walked, by_rank_input))
    result = RGraph(n, r, frozenset(tuple(map(label.__getitem__, edge)) for edge in edges))
    if degree_sequence(result) != tuple(d):
        raise AssertionError(f"realization has degrees {degree_sequence(result)!r}, not {tuple(d)!r}")
    return result


def havel_hakimi(d: Sequence[int]) -> RGraph | None:
    """A simple graph on [n] whose vertex k has degree ``d[k-1]``, or None; n = len(d).

    ``d`` may come in any order.  Each step joins a vertex of the
    largest remaining degree (ties by label) to the vertices of the
    next largest remaining degrees, and None comes back when too few of
    them remain.  Some simple graph has degrees d exactly when every
    step succeeds (Havel 1955; Hakimi 1962), so None means no graph.
    The greedy steps never meet majorization or the polytope, which
    makes the witness an independent check on both.
    """
    n = len(d)
    if _unsorted_degree_query(d, n, 2) is None:
        return None
    residual = list(d)
    edges = []
    while True:
        # 0-based; a stable sort keeps equal degrees in label order, reversed or not
        order = sorted(range(n), key=residual.__getitem__, reverse=True)
        hub, need = order[0], residual[order[0]]
        if need == 0:
            return RGraph(n, 2, frozenset(edges))
        targets = order[1 : need + 1]
        if len(targets) < need or residual[targets[-1]] == 0:
            return None
        residual[hub] = 0
        for v in targets:
            residual[v] -= 1
            edges.append((hub + 1, v + 1))


def enumerate_degree_partitions(n: int, r: int) -> frozenset[Partition]:
    """Degree partitions of all 2^C(n, r) r-graphs on [n], by brute force.

    Walks the edge sets of :func:`r_subsets` in Gray-code order, so each
    step flips one edge and updates its r degrees; the distinct labelled
    degree tuples are sorted once at the end.  Refuses C(n, r) >
    BRUTE_FORCE_EDGES before any work.
    """
    _check_size(n, r)
    if comb(n, r) > BRUTE_FORCE_EDGES:
        raise ValueError(
            f"brute-force enumeration needs C(n, r) <= {BRUTE_FORCE_EDGES}, got {comb(n, r)}"
        )
    edges = r_subsets(n, r)
    deg = [0] * n
    seen = {tuple(deg)}
    present = 0
    for t in range(1, 1 << len(edges)):
        bit = (t & -t).bit_length() - 1
        present ^= 1 << bit
        delta = 1 if present >> bit & 1 else -1
        for v in edges[bit]:
            deg[v - 1] += delta
        seen.add(tuple(deg))
    return frozenset(map(sort_decreasing, seen))


def brute_force_r_graphical(d: Sequence[int], n: int, r: int) -> bool:
    """Is ``d`` among the degree partitions of all r-graphs on [n]?  The slow exact oracle.

    A total not divisible by r gives no partition, which no set holds.
    """
    return _degree_query(d, n, r) in enumerate_degree_partitions(n, r)


def format_hypergraph(edges: Iterable[RSubset]) -> str:
    """Edges sorted, one per line, labels separated by spaces."""
    return "\n".join(" ".join(str(v) for v in edge) for edge in sorted(edges))
