"""Proper threshold graphs as order ideals of the pair poset.

Order the C(n,2) vertex pairs componentwise: (a,b) <= (c,d) when a <= c
and b <= d, every pair written smaller endpoint first.  The edge sets
that are downward closed in this order are exactly the threshold graphs
whose degree labels weakly decrease ("proper" threshold graphs), and
their degree sequences - the threshold partitions - are the vertices of
the degree-partition polytope handled in :mod:`degpoly.polytope`.

There are exactly 2^(n-1) such graphs on [n]: vertex n is isolated or
vertex 1 dominates, and either choice reduces to the same structure on
n-1 vertices.  Componentwise max and min of their degree vectors stay
threshold partitions, so they form a lattice; the degree map is a
bijection from ideals to partitions, and both enumerations below walk
the recursion in the same branch order (isolated branch first) so that
corresponding positions match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import (
    IntSequence,
    Partition,
    Rational,
    as_rational_vector,
    is_weakly_decreasing,
)

Pair = tuple[int, int]

# Enumerations double per vertex; past ~20 vertices they stop being useful.
ENUMERATION_BOUND = 20
# Ideal enumeration materializes edge sets, which is heavier than tuples.
IDEAL_ENUMERATION_BOUND = 12


def pair_poset(n: int) -> tuple[Pair, ...]:
    """All pairs (i, j) with 1 <= i < j <= n, in lexicographic order."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def pair_lower_covers(pair: Pair) -> Iterator[Pair]:
    """The at most two pairs covered by ``pair`` in componentwise order."""
    i, j = pair
    if i >= 2:
        yield (i - 1, j)
    if j - 1 > i:
        yield (i, j - 1)


def _check_pairs(n: int, edges: Iterable[Sequence[int]]) -> frozenset[Pair]:
    out = set()
    for edge in edges:
        pair = tuple(edge)
        if len(pair) != 2 or not all(isinstance(v, int) for v in pair):
            raise ValueError(f"not a vertex pair: {edge!r}")
        i, j = pair
        if not (1 <= i < j <= n):
            raise ValueError(f"pair {pair!r} is not 1 <= i < j <= {n}")
        out.add((i, j))
    return frozenset(out)


def is_order_ideal(n: int, edges: Iterable[Sequence[int]]) -> bool:
    """Is the edge set downward closed in the pair poset on [n]?

    Checking the one or two lower covers of each member suffices: any
    smaller pair is reachable by single-coordinate decrements.
    """
    members = _check_pairs(n, edges)
    return all(cover in members for pair in members for cover in pair_lower_covers(pair))


@dataclass(frozen=True)
class OrderIdeal:
    """A downward-closed set of pairs; construction validates closure."""

    n: int
    edges: frozenset[Pair]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", _check_pairs(self.n, self.edges))
        if not is_order_ideal(self.n, self.edges):
            raise ValueError(f"edge set is not downward closed on [{self.n}]")


def degree_partition_of_ideal(ideal: OrderIdeal) -> Partition:
    """Vertex degrees of the ideal, which come out weakly decreasing."""
    deg = [0] * ideal.n
    for i, j in ideal.edges:
        deg[i - 1] += 1
        deg[j - 1] += 1
    if not is_weakly_decreasing(deg):
        raise AssertionError(f"ideal degrees must weakly decrease, got {tuple(deg)!r}")
    return tuple(deg)


def is_threshold_partition(d: Sequence[int]) -> bool:
    """Is ``d`` the degree sequence of a proper threshold graph on len(d) vertices?

    Peels the defining recursion: the last vertex is isolated (d_n = 0)
    or the first dominates (d_1 = n-1), and the remainder must again be
    a threshold partition.
    """
    if len(d) == 0 or not all(isinstance(v, int) and not isinstance(v, bool) for v in d):
        return False
    if not is_weakly_decreasing(d) or d[-1] < 0:
        return False
    cur = tuple(d)
    while cur:
        if cur[-1] == 0:
            cur = cur[:-1]
        elif cur[0] == len(cur) - 1:
            cur = tuple(v - 1 for v in cur[1:])
        else:
            return False
    return True


def ideal_from_partition(d: Sequence[int]) -> OrderIdeal:
    """The unique order ideal whose degree sequence is ``d``.

    Runs the same recursion as :func:`is_threshold_partition` but records
    the edges of each dominating step.  Raises for non-threshold input.
    """
    if not is_threshold_partition(d):
        raise ValueError(f"not a threshold partition: {d!r}")
    n = len(d)
    edges: set[Pair] = set()
    vertices = list(range(1, n + 1))
    cur = list(d)
    while cur:
        # for two or more vertices the branches cannot both apply
        assert len(cur) == 1 or not (cur[-1] == 0 and cur[0] == len(cur) - 1)
        if cur[-1] == 0:
            vertices.pop()
            cur.pop()
        else:
            head = vertices[0]
            edges.update((head, v) for v in vertices[1:])
            vertices = vertices[1:]
            cur = [v - 1 for v in cur[1:]]
    return OrderIdeal(n, frozenset(edges))


def enumerate_threshold_partitions(n: int, bound: int = ENUMERATION_BOUND) -> tuple[Partition, ...]:
    """All 2^(n-1) threshold partitions on [n], in recursion order.

    The isolated branch (append a 0) precedes the dominating branch
    (prepend n-1 and shift the rest up by one), recursively.
    """
    if not 1 <= n <= bound:
        raise ValueError(f"n={n} outside the enumeration bound 1..{bound}")
    tps: list[Partition] = [(0,)]
    for m in range(2, n + 1):
        tps = [t + (0,) for t in tps] + [(m - 1,) + tuple(v + 1 for v in t) for t in tps]
    return tuple(tps)


def enumerate_order_ideals(n: int, bound: int = IDEAL_ENUMERATION_BOUND) -> tuple[frozenset[Pair], ...]:
    """All order ideals of the pair poset, same branch order as partitions.

    Position k here is the ideal of the k-th partition from
    :func:`enumerate_threshold_partitions`.
    """
    if not 1 <= n <= bound:
        raise ValueError(f"n={n} outside the ideal enumeration bound 1..{bound}")
    ideals: list[frozenset[Pair]] = [frozenset()]
    for m in range(2, n + 1):
        star = frozenset((1, j) for j in range(2, m + 1))
        shifted = [frozenset((i + 1, j + 1) for i, j in ideal) for ideal in ideals]
        ideals = list(ideals) + [star | ideal for ideal in shifted]
    return tuple(ideals)


def _check_tp(d: Sequence[int], what: str) -> Partition:
    if not is_threshold_partition(d):
        raise ValueError(f"{what} must be a threshold partition, got {tuple(d)!r}")
    return tuple(d)


def tp_join(d: Sequence[int], e: Sequence[int]) -> Partition:
    """Componentwise max of two threshold partitions (their lattice join)."""
    a, b = _check_tp(d, "join argument"), _check_tp(e, "join argument")
    if len(a) != len(b):
        raise ValueError("join needs partitions of the same length")
    out = tuple(max(x, y) for x, y in zip(a, b))
    assert is_threshold_partition(out)
    return out


def tp_meet(d: Sequence[int], e: Sequence[int]) -> Partition:
    """Componentwise min of two threshold partitions (their lattice meet)."""
    a, b = _check_tp(d, "meet argument"), _check_tp(e, "meet argument")
    if len(a) != len(b):
        raise ValueError("meet needs partitions of the same length")
    out = tuple(min(x, y) for x, y in zip(a, b))
    assert is_threshold_partition(out)
    return out


def graph_from_weights(b: Sequence[Rational], strict: bool = False) -> OrderIdeal:
    """The ideal {(i,j) : b_i + b_j >= 0} of a weakly decreasing weight vector.

    With ``strict=True`` only strictly positive pair sums become edges,
    which selects the edge-minimal rather than edge-maximal version when
    zero pair sums occur.
    """
    vec = as_rational_vector(b)
    if not vec:
        raise ValueError("need at least one weight")
    if not is_weakly_decreasing(vec):
        raise ValueError(f"weights must be weakly decreasing, got {b!r}")
    n = len(vec)
    if strict:
        edges = {(i, j) for i, j in pair_poset(n) if vec[i - 1] + vec[j - 1] > 0}
    else:
        edges = {(i, j) for i, j in pair_poset(n) if vec[i - 1] + vec[j - 1] >= 0}
    # decreasing weights make the pair-sum condition downward closed
    return OrderIdeal(n, frozenset(edges))


def proper_threshold_oracle(n: int, edges: Iterable[Sequence[int]]) -> bool:
    """Independent route: peel dominating/isolated vertices, check labels.

    A graph is threshold exactly when repeatedly deleting a vertex that is
    isolated or adjacent to everything else empties it; properness is the
    degree labels weakly decreasing on top of that.
    """
    members = _check_pairs(n, edges)
    deg = [0] * n
    for i, j in members:
        deg[i - 1] += 1
        deg[j - 1] += 1
    if not is_weakly_decreasing(deg):
        return False
    alive = set(range(1, n + 1))
    adj = {v: set() for v in alive}
    for i, j in members:
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
