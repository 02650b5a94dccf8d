"""Degree sequences of r-uniform hypergraphs via majorization.

Order the r-element subsets of [n] coordinatewise, each subset written in
increasing order.  Edge sets that are downward closed ("r-ideals") have
weakly decreasing degree sequences, and a partition with total divisible
by r is the degree sequence of some r-graph exactly when an r-ideal
partition with the same total majorizes it.

Both directions of that test are constructive here.  Downward: a
Muirhead chain of unit transfers (move one unit from a vertex whose
degree exceeds another's by at least two) walks any majorizing partition
to the target, and each transfer is realized on the hypergraph by a
single edge swap.  Upward: reverse saturation greedily applies the
opposite transfers until none applies, after which relabeling by weakly
decreasing degree leaves an r-ideal.

Graphs are the case r = 2: the pairs ordered componentwise form the same
poset, its ideals are the proper threshold graphs of
:mod:`degpoly.threshold`, and that module builds them as ``RGraph(n, 2,
edges)`` and tests closure with :func:`is_r_ideal`.

The independent oracle is one brute-force walk for every r:
:func:`enumerate_degree_partitions` visits all 2^C(n, r) edge sets in
Gray-code order and refuses C(n, r) > 21 before it starts.  At r = 2 its
result is the lattice-point set of :mod:`degpoly.polytope`, and
:func:`brute_force_r_graphical` is membership in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import (
    IntSequence,
    Partition,
    check_partition,
    is_int_vector,
    is_weakly_decreasing,
    majorizes,
    prefix_sums,
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
    goal_prefix = prefix_sums(goal)
    chain: list[tuple[int, int]] = []
    while sort_decreasing(cur) != goal:
        order = sorted(range(len(cur)), key=lambda p: (-cur[p], p))
        vals = [cur[p] for p in order]
        val_prefix = prefix_sums(vals)
        src = order[next(t for t in range(len(cur)) if val_prefix[t] > goal_prefix[t])]
        tgt = order[next(t for t in range(len(cur)) if vals[t] < goal[t])]
        if cur[src] < cur[tgt] + 2:
            raise AssertionError(f"transfer {src + 1} -> {tgt + 1} lacks a surplus of two in {cur!r}")
        chain.append((src + 1, tgt + 1))
        cur[src] -= 1
        cur[tgt] += 1
    return tuple(chain)


def _edge_swap(
    edges: set[RSubset], contexts: Sequence[tuple[int, ...]], src: int, tgt: int
) -> tuple[RSubset, RSubset] | None:
    """The first (X + {src}, X + {tgt}) with the first an edge and the second not.

    X runs over the (r-1)-sets in ``contexts`` that avoid both vertices,
    in the order given; None when no X qualifies.
    """
    for ctx in contexts:
        if src in ctx or tgt in ctx:
            continue
        with_src = tuple(sorted(ctx + (src,)))
        if with_src in edges:
            with_tgt = tuple(sorted(ctx + (tgt,)))
            if with_tgt not in edges:
                return with_src, with_tgt
    return None


def reverse_saturate(graph: RGraph) -> tuple[RGraph, tuple[int, ...]]:
    """Push degree upward in majorization until no reverse transfer applies.

    A reverse transfer takes vertices i != j with deg(i) >= deg(j) and an
    (r-1)-subset X avoiding both such that X + {i} is a non-edge while
    X + {j} is an edge, then swaps the two; the degree sequence strictly
    rises in majorization.  Moves are applied first-in-lexicographic
    (i, j, X) order.  Returns the stable graph in the original labels
    together with the vertices listed in weakly decreasing degree order
    (ties by label); relabeling along that order yields an r-ideal.
    """
    n, r = graph.n, graph.r
    edges = set(graph.edges)
    contexts = tuple(combinations(range(1, n + 1), r - 1))
    deg = list(degree_sequence(graph))
    budget = sum(deg) * n * comb(n, r) + 1
    vertices = range(1, n + 1)
    for _ in range(budget):
        move = next(
            (
                (i, j, swap)
                for i in vertices
                for j in vertices
                if i != j
                and deg[i - 1] >= deg[j - 1]
                and (swap := _edge_swap(edges, contexts, j, i))
            ),
            None,
        )
        if move is None:
            order = tuple(sorted(vertices, key=lambda v: (-deg[v - 1], v)))
            return RGraph(n, r, frozenset(edges)), order
        i, j, (with_j, with_i) = move
        edges.remove(with_j)
        edges.add(with_i)
        deg[i - 1] += 1
        deg[j - 1] -= 1
    raise AssertionError(f"saturation exceeded its move budget of {budget}")


def relabel_rgraph(graph: RGraph, order: Sequence[int]) -> RGraph:
    """Give the vertex ``order[k]`` the new label k+1."""
    if sorted(order) != list(range(1, graph.n + 1)):
        raise ValueError(f"not a permutation of [{graph.n}]: {order!r}")
    new_label = {v: k + 1 for k, v in enumerate(order)}
    return RGraph(
        graph.n,
        graph.r,
        frozenset(tuple(sorted(new_label[v] for v in edge)) for edge in graph.edges),
    )


@lru_cache(maxsize=None)
def enumerate_r_ideals(n: int, r: int) -> tuple[frozenset[RSubset], ...]:
    """Every downward-closed edge set of the r-subset poset.

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
    out: list[frozenset[RSubset]] = []
    chosen = [False] * len(elems)

    def walk(t: int) -> None:
        if t == len(elems):
            out.append(frozenset(e for e, c in zip(elems, chosen) if c))
            return
        chosen[t] = False
        walk(t + 1)
        if all(chosen[c] for c in cover_ids[t]):
            chosen[t] = True
            walk(t + 1)
            chosen[t] = False

    walk(0)
    return tuple(out)


def _majorizing_ideal(vec: Partition, n: int, r: int) -> tuple[Partition, frozenset[RSubset]] | None:
    """The lexicographically least r-ideal partition with the total of ``vec`` that majorizes it.

    Returned with the first enumerated ideal of that partition, or None
    when no r-ideal partition majorizes ``vec``.
    """
    total = sum(vec)
    picks: dict[Partition, frozenset[RSubset]] = {}
    for ideal in enumerate_r_ideals(n, r):
        if len(ideal) * r != total:
            continue
        deg = [0] * n
        for edge in ideal:
            for v in edge:
                deg[v - 1] += 1
        part = tuple(deg)
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


def is_r_graphical_partition(d: Sequence[int], n: int, r: int) -> bool:
    """Is ``d`` the degree partition of some r-graph on [n]?

    True exactly when the total is divisible by r and some r-ideal
    partition with the same total majorizes ``d``.
    """
    vec = _degree_query(d, n, r)
    return vec is not None and _majorizing_ideal(vec, n, r) is not None


def realize_r_graph(d: Sequence[int], n: int, r: int) -> RGraph | None:
    """Build an r-graph whose degree partition is ``d``, or None.

    Starts from the lexicographically least majorizing r-ideal partition,
    realized by its ideal, and walks the Muirhead chain down to ``d``.
    Each unit transfer from vertex i to vertex j is realized by swapping
    one edge X + {i} (present) for X + {j} (absent); a counting argument
    on the degrees guarantees such an X exists, and the first one in
    lexicographic order is taken.
    """
    vec = _degree_query(d, n, r)
    start = None if vec is None else _majorizing_ideal(vec, n, r)
    if start is None:
        return None
    part, ideal = start
    edges = set(ideal)
    contexts = tuple(combinations(range(1, n + 1), r - 1))
    for src, tgt in muirhead_chain(part, vec):
        swap = _edge_swap(edges, contexts, src, tgt)
        if swap is None:
            raise AssertionError(f"degree surplus guarantees a swappable edge for {src} -> {tgt}")
        edges.remove(swap[0])
        edges.add(swap[1])
    result = RGraph(n, r, frozenset(edges))
    realized = sort_decreasing(degree_sequence(result))
    if realized != vec:
        raise AssertionError(f"realization has degree partition {realized!r}, not {vec!r}")
    return result


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
