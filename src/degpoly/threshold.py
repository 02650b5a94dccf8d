"""Proper threshold graphs as order ideals of the pair poset.

Order the C(n,2) vertex pairs componentwise: (a,b) <= (c,d) when a <= c
and b <= d, every pair written smaller endpoint first.  This is the
r = 2 case of the r-subset poset of :mod:`degpoly.hypergraph`, so a
graph here is an ``RGraph(n, 2, edges)`` and closure is tested by
:func:`degpoly.hypergraph.is_r_ideal`.  The edge sets that are downward
closed are exactly the threshold graphs whose degree labels weakly
decrease ("proper" threshold graphs), and their degree sequences - the
threshold partitions - are the vertices of the degree-partition
polytope handled in :mod:`degpoly.polytope`.

There are exactly 2^(n-1) such graphs on [n]: vertex n is isolated or
vertex 1 dominates, and either choice reduces to the same structure on
n-1 vertices (Chvatal and Hammer, 1977).  Componentwise max and min of
their degree vectors stay threshold partitions, so they form a lattice;
no function spells that out, because the one reader, ``optimize
--oracle``, takes the column max or min of its argmax set directly.

The recursion is written out twice: forwards in
:func:`enumerate_threshold_partitions`, which builds every partition,
and backwards in one O(n) peel that decodes a given partition into its
dominating steps.  Recognition and :func:`ideal_from_partition` both
read that one decode, so the degree map is a bijection from ideals to
partitions by construction; the tests hold the ideals it builds to the
walk over all r-ideals of :mod:`degpoly.hypergraph` at r = 2.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import (
    Partition,
    Rational,
    as_ratios,
    as_rational_vector,
    is_partition,
    is_weakly_decreasing,
)
from .hypergraph import RGraph, degree_sequence, is_r_ideal, r_subsets

Pair = tuple[int, int]

# Enumerations double per vertex; past ~20 vertices they stop being useful.
ENUMERATION_BOUND = 20


def _pair_ideal(n: int, edges: Iterable[Pair]) -> RGraph:
    """``RGraph(n, 2, edges)`` for edges that a producer built downward closed.

    Raises ``AssertionError``, also under ``python -O``, when they are not.
    """
    graph = RGraph(n, 2, frozenset(edges))
    if not is_r_ideal(graph):
        raise AssertionError(f"edge set is not downward closed on [{n}]")
    return graph


def degree_partition_of_ideal(ideal: RGraph) -> Partition:
    """Vertex degrees of the ideal, which come out weakly decreasing."""
    deg = degree_sequence(ideal)
    if not is_weakly_decreasing(deg):
        raise AssertionError(f"ideal degrees must weakly decrease, got {deg!r}")
    return deg


def _peel(d: Sequence[int]) -> list[tuple[int, int]] | None:
    """The dominating steps of the threshold recursion on a partition ``d``.

    The part still to peel is d[lo..hi] (0-based, inclusive) minus
    ``offset``, the number of dominating vertices removed so far.  Its last
    vertex is isolated when d[hi] == offset; otherwise its first
    dominates when d[lo] - offset == hi - lo, and the step (lo, hi)
    records that vertex lo+1 is adjacent to lo+2..hi+1.  Returns None
    when neither applies.  Isolated is tested first, so the values left
    never go negative.
    """
    steps = []
    lo, hi, offset = 0, len(d) - 1, 0
    while lo <= hi:
        if d[hi] == offset:
            hi -= 1
        elif d[lo] - offset == hi - lo:
            steps.append((lo, hi))
            lo += 1
            offset += 1
        else:
            return None
    return steps


def _step_edges(steps: list[tuple[int, int]]) -> frozenset[Pair]:
    return frozenset((lo + 1, v) for lo, hi in steps for v in range(lo + 2, hi + 2))


def is_threshold_partition(d: Sequence[int]) -> bool:
    """Is ``d`` the degree sequence of a proper threshold graph on len(d) vertices?

    A partition (see :func:`degpoly.core.is_partition`) whose peel
    empties it: the last vertex is isolated (d_n = 0) or the first
    dominates (d_1 = n-1), and the rest must again be a threshold
    partition.  O(n).
    """
    return is_partition(d) and _peel(d) is not None


def ideal_from_partition(d: Sequence[int]) -> RGraph:
    """The unique order ideal whose degree sequence is ``d``.

    Its edges are the dominating steps of the peel.  Raises
    ``ValueError`` for non-threshold input.
    """
    steps = _peel(d) if is_partition(d) else None
    if steps is None:
        raise ValueError(f"not a threshold partition: {d!r}")
    ideal = _pair_ideal(len(d), _step_edges(steps))
    if degree_partition_of_ideal(ideal) != tuple(d):
        raise AssertionError(f"the ideal rebuilt from {tuple(d)!r} has other degrees")
    return ideal


def enumerate_threshold_partitions(n: int) -> tuple[Partition, ...]:
    """All 2^(n-1) threshold partitions on [n], in recursion order.

    The isolated branch (append a 0) precedes the dominating branch
    (prepend n-1 and shift the rest up by one), recursively.
    """
    if not 1 <= n <= ENUMERATION_BOUND:
        raise ValueError(f"n={n} outside the enumeration bound 1..{ENUMERATION_BOUND}")
    tps: list[Partition] = [(0,)]
    for m in range(2, n + 1):
        tps = [t + (0,) for t in tps] + [(m - 1,) + tuple(v + 1 for v in t) for t in tps]
    return tuple(tps)


def graph_from_weights(b: Sequence[Rational], strict: bool = False) -> RGraph:
    """The ideal {(i,j) : b_i + b_j >= 0} of a weakly decreasing weight vector.

    With ``strict=True`` only strictly positive pair sums become edges,
    which selects the edge-minimal rather than edge-maximal version when
    zero pair sums occur.  Every pair sum is formed in ``Fraction``: this
    is the oracle of :func:`threshold_degrees`.
    """
    vec = as_rational_vector(b)
    if not vec:
        raise ValueError("need at least one weight")
    if not is_weakly_decreasing(vec):
        raise ValueError(f"weights must be weakly decreasing, got {b!r}")
    n = len(vec)
    if strict:
        edges = {(i, j) for i, j in r_subsets(n, 2) if vec[i - 1] + vec[j - 1] > 0}
    else:
        edges = {(i, j) for i, j in r_subsets(n, 2) if vec[i - 1] + vec[j - 1] >= 0}
    # decreasing weights make the pair-sum condition downward closed
    return _pair_ideal(n, edges)


def threshold_degrees(b: Sequence[Rational], strict: bool = False) -> Partition:
    """The degrees of :func:`graph_from_weights`, without building its edges.

    ``b`` weakly decreases, so the partners j of vertex i (b_i + b_j >= 0,
    or > 0 when ``strict``) form a prefix 1..hi of [n], and hi only
    shrinks as i grows: one two-pointer sweep counts every d_i, and the
    nested prefixes are the downward closure of the edge set.

    With b_i = p_i/q_i, q_i > 0, b_i + b_j has the sign of p_i q_j + p_j q_i:
    the sweep and its input check run in ``int``, with no common denominator.
    """
    ratios = as_ratios(b)
    if not ratios:
        raise ValueError("need at least one weight")
    if any(p * s < r * q for (p, q), (r, s) in zip(ratios, ratios[1:])):
        raise ValueError(f"weights must be weakly decreasing, got {b!r}")
    # a pair is dropped when its integer cross sum is below 0, or below 1 when strict
    floor = 1 if strict else 0
    deg = []
    hi = len(ratios)
    for i, (p, q) in enumerate(ratios, start=1):
        while hi and p * ratios[hi - 1][1] + ratios[hi - 1][0] * q < floor:
            hi -= 1
        deg.append(hi - 1 if i <= hi else hi)
    if not is_weakly_decreasing(deg):
        raise AssertionError(f"threshold degrees must weakly decrease, got {tuple(deg)!r}")
    return tuple(deg)


def proper_threshold_oracle(n: int, edges: Iterable[Sequence[int]]) -> bool:
    """Independent route: peel dominating/isolated vertices, check labels.

    A graph is threshold exactly when repeatedly deleting a vertex that is
    isolated or adjacent to everything else empties it; properness is the
    degree labels weakly decreasing on top of that.  The edges are
    validated as an ``RGraph(n, 2, edges)``, which raises ``ValueError``
    on a label that is not an ``int`` in [n].
    """
    graph = RGraph(n, 2, edges)
    if not is_weakly_decreasing(degree_sequence(graph)):
        return False
    alive = set(range(1, n + 1))
    adj = {v: set() for v in alive}
    for i, j in graph.edges:
        adj[i].add(j)
        adj[j].add(i)
    while len(alive) > 1:
        pick = None
        for v in alive:
            k = len(adj[v] & alive)
            if k == 0 or k == len(alive) - 1:
                pick = v
                break
        if pick is None:
            return False
        alive.remove(pick)
    return True
