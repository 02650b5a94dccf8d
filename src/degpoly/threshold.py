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
and backwards in one O(n) peel that decodes a partition into its
creation word, read by recognition.  :func:`ideal_from_partition` takes
the shifted shape {(i, j) : i < j <= d_i + 1} (Merris and Roby, 2005);
the tests hold its ideals to the r = 2 walk of :mod:`degpoly.hypergraph`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import (
    Partition,
    Rational,
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


def _creation_word(d: Sequence[int]) -> int | None:
    """Bit m - 2 set when vertex m dominates, clear when isolated; None off threshold.

    That is the order of :func:`enumerate_threshold_partitions`.  Word 0,
    the empty graph, is falsy, so callers test ``is None``.  The peel
    reads vertices from the last one added: the k = hi - lo + 1 still to
    peel are d[lo..hi] (0-based) minus ``offset``, the dominating ones
    removed so far.  The last is isolated when d[hi] == offset, else the
    first dominates when d[lo] - offset == hi - lo and sets bit k - 2.
    Isolated is tested first, so the values left never go negative.
    """
    if not is_partition(d):
        return None
    word = 0
    lo, hi, offset = 0, len(d) - 1, 0
    while lo <= hi:
        if d[hi] == offset:
            hi -= 1
        elif d[lo] - offset == hi - lo:
            word |= 1 << (hi - lo - 1)
            lo += 1
            offset += 1
        else:
            return None
    return word


def is_threshold_partition(d: Sequence[int]) -> bool:
    """Is ``d`` the degree sequence of a proper threshold graph on len(d) vertices?

    A partition (see :func:`degpoly.core.is_partition`) whose peel
    empties it: the last vertex is isolated (d_n = 0) or the first
    dominates (d_1 = n-1), and the rest must again be a threshold
    partition.  O(n).
    """
    return _creation_word(d) is not None


def ideal_from_partition(d: Sequence[int]) -> RGraph:
    """The unique order ideal whose degree sequence is ``d``.

    Its edges are the shifted shape {(i, j) : i < j <= d_i + 1}.
    Raises ``ValueError`` for non-threshold input.
    """
    if _creation_word(d) is None:
        raise ValueError(f"not a threshold partition: {d!r}")
    n = len(d)
    ideal = _pair_ideal(n, ((i, j) for i in range(1, n + 1) for j in range(i + 1, d[i - 1] + 2)))
    if degree_partition_of_ideal(ideal) != tuple(d):
        raise AssertionError(f"the ideal rebuilt from {tuple(d)!r} has other degrees")
    return ideal


def enumerate_threshold_partitions(n: int) -> tuple[Partition, ...]:
    """All 2^(n-1) threshold partitions on [n], in recursion order.

    The isolated branch (append a 0) precedes the dominating branch
    (prepend n-1 and shift the rest up by one), recursively, so entry w
    has creation word w: vertex m dominates when bit m - 2 of w is set.
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
    is the oracle of the optimizer's degree sweep,
    :meth:`degpoly.optimize.Certificate.optimizer`.
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
