"""The degree-partition polytope: membership, facets, edges, lattice points.

A weakly decreasing integer vector is the degree sequence of some simple
graph exactly when it satisfies every prefix-suffix inequality

    x_1 + ... + x_k - (x_{n-l+1} + ... + x_n) <= k (n - 1 - l)

for k, l >= 0 with 1 <= k + l <= n, and has even sum.  The rational
solution set of those inequalities together with x_1 >= ... >= x_n is a
polytope whose vertices are precisely the threshold partitions of
:mod:`degpoly.threshold`; dropping the ordering constraints instead and
ranging over all index pairs of disjoint subsets S, T gives the
unordered (Koren) version, the polytope's symmetrization: x lies in it
exactly when its decreasing rearrangement lies in the polytope, so its
membership is ``in_fhm_polytope(sort_decreasing(x)).member``.

Membership takes O(n) after the sort: for each k only one l can give
the largest excess, and one pointer finds it for every k.  That sweep,
:func:`_fhm_witness`, runs once, over integers and their one
denominator, and names the parameters of one witness: the first
violated monotone constraint, or else the most violated prefix-suffix
inequality.  :func:`in_fhm_polytope` builds that row.  The one graph
degree test, :func:`is_degree_sequence`, sorts its integers and only
asks the sweep whether it names a row, so it builds none and takes
sorted input as it takes any; the volume cross-check does the same
over the denominator 2^30.  :func:`fhm_violations` keeps the full
O(n^2) scan as the oracle, and :func:`koren_oracle` the 3^n
enumeration of disjoint S, T for the unordered version.

This module keeps every test exact and makes it in integers where it
can: integer input is decided in integers, rational input is cleared
to one common denominator and then decided in integers too, a
constraint evaluated at an integer point stays an integer, and affine
ranks come from fraction-free integer elimination.  It knows
the irredundant facet list for n >= 4, decides vertex adjacency from
the block shape of the difference of two threshold partitions
(recognized by the one peel of :mod:`degpoly.threshold`; the rank of
the facets tight at both vertices is the oracle), counts edges
by validating each enumerated vertex once and then looking up each
pair's difference among the differences that rule accepts, and spot-checks the
n = 3 volume: the polytope is a tetrahedron of volume 1/3, and the
unordered region in [0,2]^3 has volume 2, estimated by Monte Carlo
with exact membership per sample.
The even-sum lattice points are compared one candidate at a time with
the degree partitions of graphs: :func:`degpoly.hypergraph.havel_hakimi`
builds a witness graph for each "yes", and a "no" from
:func:`in_fhm_polytope` stands on the inequality it names.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, groupby, product, starmap
from operator import sub
from typing import Sequence

from .core import (
    Partition,
    Rational,
    RationalVector,
    as_rational_vector,
    check_rational_vector,
    clear_denominators,
    is_int_vector,
)
# not called here: bench/spans.py times the brute-force walk under this layer,
# and tests/test_bench_names.py::test_traced_names_resolve needs the attribute
from .hypergraph import enumerate_degree_partitions
from .threshold import enumerate_threshold_partitions, is_threshold_partition


@dataclass(frozen=True, slots=True)
class FacetInequality:
    """One linear constraint a . x <= rhs over integer coefficients.

    ``kind`` is "monotone" (x_i >= x_{i+1}, parameter i) or "fhm"
    (prefix-suffix inequality, parameters k and l).
    """

    kind: str
    coefficients: tuple[int, ...]
    rhs: int
    i: int | None = None
    k: int | None = None
    l: int | None = None

    def value(self, x: Sequence[Rational]) -> Rational:
        """a . x by the row's shape, x_{i+1} - x_i or the first k less the last l: an ``int`` on ints."""
        if self.kind == "monotone":
            return x[self.i] - x[self.i - 1]
        n = len(self.coefficients)
        return sum(x[: self.k]) - sum(x[n - self.l : n])

    def satisfied(self, x: Sequence[Rational]) -> bool:
        return self.value(x) <= self.rhs

    def tight(self, x: Sequence[Rational]) -> bool:
        return self.value(x) == self.rhs


def monotone_inequality(n: int, i: int) -> FacetInequality:
    """x_i >= x_{i+1}, encoded as -x_i + x_{i+1} <= 0."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"monotone index must satisfy 1 <= i <= {n - 1}, got {i}")
    coeff = (0,) * (i - 1) + (-1, 1) + (0,) * (n - 1 - i)
    return FacetInequality("monotone", coeff, 0, i=i)


def fhm_inequality(n: int, k: int, l: int) -> FacetInequality:
    """Prefix sum of k minus suffix sum of l, bounded by k (n - 1 - l)."""
    if k < 0 or l < 0 or not 1 <= k + l <= n:
        raise ValueError(f"need k, l >= 0 and 1 <= k + l <= {n}, got ({k}, {l})")
    coeff = (1,) * k + (0,) * (n - k - l) + (-1,) * l
    return FacetInequality("fhm", coeff, k * (n - 1 - l), k=k, l=l)


@dataclass(frozen=True, slots=True)
class FhmMembership:
    """Verdict of :func:`in_fhm_polytope` and the constraints behind it.

    For a member ``violations`` is empty.  Otherwise it holds exactly
    one witness: the first violated monotone constraint x_i >= x_{i+1}
    (smallest i) when there is one, and else the most violated
    prefix-suffix inequality, the smallest (k, l) among equally violated
    ones.
    """

    member: bool
    violations: tuple[FacetInequality, ...]


_MEMBER = FhmMembership(True, ())  # frozen, so every member shares it


def in_fhm_polytope(x: Sequence[Rational]) -> FhmMembership:
    """Check x against x_1 >= ... >= x_n and every prefix-suffix inequality, in O(n).

    The sweep runs in integers: integer input as it is, rational input
    after clearing one common denominator D, with every bound scaled by
    D.  A positive D keeps each excess's sign and their order, so the
    verdict and the witness are those of x itself.  The one row that the
    sweep names becomes the witness; see :func:`_fhm_witness` for the
    sweep and :class:`FhmMembership` for what ``violations`` holds.
    Unordered membership, in the symmetrization of the polytope, is
    this verdict on ``sort_decreasing(x)``.  At n = 125,000..10^6 its time
    fits n^1.13..1.24, as a bare loop over the same ints does: the host's memory, not the sweep.
    """
    vec, scale = clear_denominators(x)
    witness = _fhm_witness(vec, scale)
    if witness is None:
        return _MEMBER
    n = len(vec)
    row = monotone_inequality(n, *witness) if len(witness) == 1 else fhm_inequality(n, *witness)
    return FhmMembership(False, (row,))


def _fhm_witness(vec: Sequence[int], scale: int) -> tuple[int, ...] | None:
    """The parameters of the witness against integers ``vec`` / ``scale``: ``(i,)``, ``(k, l)`` or None.

    ``(i,)`` is the first ascent vec_i < vec_{i+1}; else ``(k, l)`` is
    the most violated prefix-suffix inequality, the smallest on ties;
    None means no constraint is violated.  Once vec is weakly
    decreasing, the excess of (k, l),

        pre_k - suf_l - k (n - 1 - l)
            = pre_k - k (n - 1) + sum of (k - x_t) over the last l entries,

    grows with l while the next entry from the back is below k and
    shrinks after that, so for each k the best l is the number of
    entries below k, capped at n - k.  That count only grows with k,
    so one pointer from the back finds the best l for every k (Erdos
    and Gallai, 1960).  Every bound is multiplied by ``scale``, since
    vec is ``scale`` times the point decided.  With s = ``scale``, that
    best excess is

        f(k) = pre_k - k (k - 1) s - sum over t > k of min(x_t, k s),

    and f(k) - f(k - 1) <= 0 once x_k <= (k - 1) s, which then holds for
    every later k too (x falls, the bound rises).  So the sweep stops at
    the first such k >= 1: no later k exceeds the best so far, and the
    smallest-k tie rule keeps the same witness (Erdos and Gallai's index
    bound).  The sweep keeps three running sums in place of prefix and
    suffix lists: ``pre``, the first k entries; ``low``, the ``below``
    smallest entries, those under the bound; and ``total``, so that the
    last n - k entries, where the best l is capped, sum to total - pre.
    """
    n = len(vec)
    for i in range(1, n):
        if vec[i - 1] < vec[i]:
            return (i,)
    total = sum(vec)
    # (0, 0) is no constraint, but its excess 0 is never a violation
    best, best_k, best_l = 0, 0, 0
    k = pre = low = below = bound = 0  # below: entries under bound = k * scale, a suffix of vec
    last = n - 1
    while True:
        while below < n and vec[last - below] < bound:
            low += vec[last - below]
            below += 1
        if below < n - k:
            excess, l = pre - low - bound * (last - below), below
        else:
            excess, l = 2 * pre - total - bound * (k - 1), n - k
        if excess > best:
            best, best_k, best_l = excess, k, l
        if k == n or vec[k] <= bound:
            break
        pre += vec[k]
        k += 1
        bound += scale
    return (best_k, best_l) if best > 0 else None


def fhm_violations(x: Sequence[Rational]) -> tuple[FacetInequality, ...]:
    """Every violated monotone and prefix-suffix constraint, by a full O(n^2) scan.

    The oracle for :func:`in_fhm_polytope`: x is a member exactly when
    this is empty.
    """
    vec = as_rational_vector(x)
    n = len(vec)
    violations: list[FacetInequality] = []
    for i in range(1, n):
        if vec[i - 1] < vec[i]:
            violations.append(monotone_inequality(n, i))
    pre = list(accumulate(vec, initial=0))
    suf = list(accumulate(reversed(vec), initial=0))
    for k in range(0, n + 1):
        for l in range(max(1 - k, 0), n - k + 1):
            if pre[k] - suf[l] > k * (n - 1 - l):
                violations.append(fhm_inequality(n, k, l))
    return tuple(violations)


def koren_oracle(x: Sequence[Rational]) -> bool:
    """Unordered membership by enumerating every disjoint S, T (n <= 12).

    The oracle for unordered membership, which :func:`is_degree_sequence`
    decides on even-sum integer vectors and ``in_fhm_polytope`` on
    sorted rationals: each of the 3^n assignments puts every index in
    S, in T, or in neither.
    """
    vec = as_rational_vector(x)
    n = len(vec)
    if n > 12:
        raise ValueError(f"direct enumeration is capped at n <= 12, got n={n}")
    for assign in product((0, 1, 2), repeat=n):
        lhs = Fraction(0)
        ns = nt = 0
        for role, v in zip(assign, vec):
            if role == 1:
                lhs += v
                ns += 1
            elif role == 2:
                lhs -= v
                nt += 1
        if ns + nt and lhs > ns * (n - 1 - nt):
            return False
    return True


def is_degree_sequence(x: Sequence[int]) -> bool:
    """Degree sequence of a simple graph, any vertex order.

    ``False`` unless every entry is exactly an ``int``.  Otherwise an
    even sum and unordered membership: the sweep on the decreasing
    rearrangement names no row, and none is built.
    """
    return bool(x) and is_int_vector(x) and sum(x) % 2 == 0 and _fhm_witness(sorted(x, reverse=True), 1) is None


@lru_cache(maxsize=None)
def facet_inequalities(n: int) -> tuple[FacetInequality, ...]:
    """The irredundant defining constraints for n >= 4.

    n - 1 monotone constraints, then the prefix-suffix inequalities with
    (k, l) = (1, 0), (0, 1), or both positive with k + l in
    {2, ..., n-3} or k + l = n.  That is (n^2 - 3n + 12) / 2 in total.
    At n = 3 the polytope is a simplex and this list is not defined.
    """
    if n < 4:
        raise ValueError(f"the facet list needs n >= 4, got n={n}")
    facets = [monotone_inequality(n, i) for i in range(1, n)]
    params = [(1, 0), (0, 1)]
    params += [(k, s - k) for s in range(2, n - 2) for k in range(1, s)]
    params += [(k, n - k) for k in range(1, n)]
    facets.extend(fhm_inequality(n, k, l) for k, l in params)
    return tuple(facets)


def are_adjacent(d: Sequence[int], e: Sequence[int]) -> bool:
    """Do two distinct threshold partitions span an edge of the polytope?

    They do exactly when one dominates the other componentwise and the
    nonzero part of the difference, read as maximal blocks of one value
    on consecutive positions, is either one block of length L and value
    v with v = L - 1 or 2v = L, or two blocks whose values are each the
    other block's length.
    """
    n = len(d)
    if len(e) != n or n < 3:
        raise ValueError("adjacency needs two partitions of equal length n >= 3")
    a, b = tuple(d), tuple(e)
    if not (is_threshold_partition(a) and is_threshold_partition(b)):
        raise ValueError("adjacency is defined between threshold partitions")
    if a == b:
        raise ValueError("adjacency needs two distinct partitions")
    return _adjacent(a, b)


def _adjacent(a: Partition, b: Partition) -> bool:
    """The rule of :func:`are_adjacent` on two distinct threshold partitions, unchecked."""
    diff = [x - y for x, y in zip(a, b)]
    if min(diff) < 0 < max(diff):
        return False
    # (value, length) of each block
    blocks = [(v, len(list(run))) for v, run in groupby(map(abs, diff)) if v]
    if len(blocks) == 1:
        ((v, length),) = blocks
        return v == length - 1 or 2 * v == length
    if len(blocks) == 2:
        (v, p), (w, q) = blocks
        return v == q and w == p
    return False


def _edge_moves(n: int) -> list[Partition]:
    """Every difference a - b that the adjacency rule accepts for a dominating a, at length n.

    One block of value v on L consecutive positions with v = L - 1 or
    2v = L, or value q on p consecutive positions followed, after a gap
    of any length, by value p on q consecutive positions.  Two touching
    blocks with p = q are one block of value p and length 2p, so they
    are listed once, as that block.
    """

    def place(*blocks: tuple[int, int, int]) -> Partition:
        diff = [0] * n
        for start, length, value in blocks:
            diff[start : start + length] = [value] * length
        return tuple(diff)

    moves = []
    for length in range(2, n + 1):
        for v in sorted({length - 1, length // 2} if length % 2 == 0 else {length - 1}):
            moves.extend(place((s, length, v)) for s in range(n - length + 1))
    for p in range(1, n):
        for q in range(1, n - p + 1):
            for s in range(n - p - q + 1):
                # t = s + p would touch; with p = q that is the block above
                for t in range(s + p + (p == q), n - q + 1):
                    moves.append(place((s, p, q), (t, q, p)))
    return moves


def _base_n_key(d: Sequence[int], n: int) -> int:
    """d read as a base-n numeral, d_1 leading; injective on {0, ..., n-1}^n."""
    key = 0
    for x in d:
        key = key * n + x
    return key


def count_edges(n: int) -> int:
    """Edge count of the polytope, each edge found once, over vertex pairs (3 <= n <= 12).

    Adjacent vertices a, b have a >= b componentwise for one of the two
    orders, and a - b is one of the :func:`_edge_moves` differences.  So
    a pair of base-n keys, sorted descending, is an edge when their
    difference is a move key, since key(a) - key(b) = key(a - b) whenever
    a >= b.  A hit with a >= b failing somewhere would be a borrow reading
    as a move; the tests check every n this function accepts and find
    none, so no hit is tested again.  The C(2^(n-1), 2) lookups run in C:
    8,128, 130,816 and 2,096,128 at n = 8, 10, 12 take 1.4 ms, 11 ms and
    0.18 s, against 3.5 ms, 17 ms and 0.14 s for the 29,568, 271,872 and
    2,162,688 lookups of vertices x moves: at n = 12 fewer, yet slower
    (min of 3, Python 3.11 on a 2-vCPU Xeon).

    Each enumerated vertex is validated once, before the count; a
    repeated vertex, or one that is not a threshold partition on [n],
    raises ``AssertionError``, also under ``python -O``.
    """
    if n < 3:
        raise ValueError(f"the edge count needs n >= 3, got n={n}")
    if n > 12:
        raise ValueError(f"edge enumeration is capped at n <= 12, got n={n}")
    tps = enumerate_threshold_partitions(n)
    bad = [d for d in tps if len(d) != n or not is_threshold_partition(d)]
    if bad or len(set(tps)) != len(tps):
        raise AssertionError(f"the enumeration at n={n} holds repeated or non-threshold vertices {bad!r}")
    keys = sorted((_base_n_key(d, n) for d in tps), reverse=True)
    move_keys = {_base_n_key(m, n) for m in _edge_moves(n)}
    return sum(map(move_keys.__contains__, starmap(sub, combinations(keys, 2))))


def dominating_sum_identity(n: int) -> int:
    """The entries equal to n - 1, counted over every threshold partition on [n].

    Those entries lead their partition, and a partition with d_1 < n - 1
    has none, so this sums the dominating counts of the dominating-vertex
    partitions.  The paper's identity makes it 2^(n-1); the caller
    compares the two, so the identity stays checkable rather than assumed.
    """
    return sum(d.count(n - 1) for d in enumerate_threshold_partitions(n))


def affine_rank(points: Sequence[Sequence[Rational]]) -> int:
    """Size of a largest affinely independent subset, exactly.

    The affine rank is the rank of the differences from the first point,
    plus one.  Each difference row is cleared of its denominators, which
    keeps the rank, and fraction-free (Bareiss) elimination finds that
    rank in ``int``: each update (h * a - f * b) // prev divides exactly
    by the previous pivot.  Points that break the rational rule of
    :mod:`degpoly.core`, or differ in length, raise ``ValueError``.
    """
    if not points:
        return 0
    base, *rest = map(check_rational_vector, points)
    for j, p in enumerate(rest, 2):
        if len(p) != len(base):
            raise ValueError(f"affine rank needs points of one length, got {len(base)} at point 1 and {len(p)} at point {j}")
    rows = [clear_denominators([v - b for v, b in zip(p, base)])[0] for p in rest]
    rank, prev = 0, 1
    for col in range(len(base)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        h = head[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            rows[r] = [(h * a - f * b) // prev for a, b in zip(rows[r], head)]
        prev = h
        rank += 1
    return rank + 1


def facet_rank_adjacent(d: Sequence[int], e: Sequence[int]) -> bool:
    """Do two distinct vertices span an edge (n >= 4)?  The oracle for :func:`are_adjacent`.

    They do exactly when the facets tight at both have coefficient rows
    of rank n - 1, one less than the dimension (Fukuda and Prodon, 1996);
    that rank is the affine rank of the rows and the origin, less one.
    It trusts :func:`facet_inequalities` to list every facet.
    """
    n = len(d)
    if len(e) != n:
        raise ValueError("adjacency needs two vertices of equal length")
    rows = [f.coefficients for f in facet_inequalities(n) if f.tight(d) and f.tight(e)]
    return affine_rank([(0,) * n, *rows]) - 1 == n - 1


def irredundancy_witness(
    n: int, facet: FacetInequality, tight: Sequence[Partition]
) -> RationalVector:
    """A rational point violating only the given facet.

    ``tight`` is the facet's set of tight vertices, which the caller has
    already found.  Starts at their barycenter, which lies strictly
    inside every other facet because distinct facets have distinct
    hyperplanes, then steps outward along the facet normal by half the
    largest exactly-safe amount.  It works on the integer column sums, m
    times the barycenter of m vertices: each slack there is an ``int``,
    and each step limit one ``Fraction``.  Raises ``ValueError`` when ``tight``
    holds a point off the facet, and ``AssertionError`` when it is empty.
    The point is not re-tested here: that it violates exactly this facet
    is what the facets suite's ``facet-irredundancy-witnesses`` reports.
    """
    facets = facet_inequalities(n)
    if facet not in facets:
        raise ValueError("witness requested for a constraint outside the facet list")
    if not all(facet.tight(d) for d in tight):
        raise ValueError(f"every given point must be tight at {facet!r}")
    if not tight:
        raise AssertionError(f"facet {facet!r} is tight at no vertex")
    m = len(tight)
    sums = tuple(map(sum, zip(*tight)))
    normal = facet.coefficients
    limits = []
    for g in facets:
        if g == facet:
            continue
        rate = g.value(normal)
        if rate > 0:
            slack = g.rhs * m - g.value(sums)
            if slack <= 0:
                raise AssertionError(f"barycenter of {facet!r} is not strictly inside {g!r}")
            limits.append(Fraction(slack, m * rate))
    eps = min(limits) / 2 if limits else Fraction(1)
    return tuple(Fraction(s, m) + eps * c for s, c in zip(sums, normal))


def dp3_volume() -> Fraction:
    """Exact volume of the n = 3 polytope, a tetrahedron on 4 vertices."""
    v0, v1, v2, v3 = enumerate_threshold_partitions(3)
    rows = [
        [a - b for a, b in zip(v, v0)]
        for v in (v1, v2, v3)
    ]
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    return Fraction(abs(det), 6)


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo result; ``estimate`` is exact given the sampled points."""

    samples: int
    hits: int
    estimate: Fraction


# Samples are dyadic rationals k / 2^30 in [0, 2), kept as the integers k, each the top
# 31 bits of one 32-bit generator word: membership compares integers over one denominator.
_SCALE_BITS = 30
_SCALE = 1 << _SCALE_BITS
# Samples per draw; sample i is the three words in bits 96i to 96i + 95.
_LANES = 1024
# The leading samples are also decided one at a time by the sweep, sorted, to pin the lanes.
_CROSS_CHECK_SAMPLES = 10_000


def _in_every_lane(value: int) -> int:
    return int.from_bytes(value.to_bytes(12, "little") * _LANES, "little")


_EVEN = _in_every_lane(0xFFFF_FFFE)
_GUARD = _in_every_lane(1 << 40)
_GUARD_AND_BOUND = _in_every_lane((1 << 40) + (2 << _SCALE_BITS))


def _koren3_lanes(words: int, m: int) -> int:
    """Bit 40 of lane i is set exactly when sample i of ``m`` <= 1,024 is a member.

    Sample i is the top 31 bits (a, b, c) of the three words in lane i.
    Sorted, the region is the tetrahedron on (0,0,0), (1,1,0), (2,1,1)
    and (2,2,2), so with s = a + b + c it holds 0 <= s - 2x <= 2^31 for
    each coordinate x.  A word less its low bit is 2x.  Each bound is one
    lane-wise sum, G + s - 2x or G + 2^31 - s + 2x with G = 2^40, which
    stays in [0, 2^41), so no lane borrows from the next, and has bit 40
    set exactly when the bound holds.
    """
    two_a = words & _EVEN
    two_b = (words >> 32) & _EVEN
    two_c = (words >> 64) & _EVEN
    s = (two_a + two_b + two_c) >> 1
    low, high = _GUARD + s, _GUARD_AND_BOUND - s
    return (
        (low - two_a) & (low - two_b) & (low - two_c)
        & (high + two_a) & (high + two_b) & (high + two_c)
        & (_GUARD >> 96 * (_LANES - m))
    )


def ds3_volume_estimate(samples: int, seed: int) -> VolumeEstimate:
    """Monte Carlo volume of the unordered degree region inside [0,2]^3.

    Every membership decision is exact, in integers over the one
    denominator 2^30.  Each chunk of m <= ``_LANES`` samples is one
    ``getrandbits(96 * m)``: CPython fills it, least significant first,
    with the 32-bit words that 3m calls of ``getrandbits(31)`` would take
    the top 31 bits of, so the stream is three such draws per sample, and
    :func:`_koren3_lanes` decides the chunk.  The first
    ``_CROSS_CHECK_SAMPLES`` samples are also decided in order by
    :func:`_fhm_witness`, each sorted decreasingly, with 2^30 as its
    scale, and a disagreement with their lane raises ``AssertionError``,
    also under ``python -O``.  ``samples`` other than a positive
    ``int`` raises ``ValueError`` before any draw.  The estimate is the
    exact rational 8 * hits / samples.
    """
    if not is_int_vector((samples,)) or samples < 1:
        raise ValueError(f"need a positive int number of samples, got {samples!r}")
    draw = random.Random(seed).getrandbits
    hits = 0
    for start in range(0, samples, _LANES):
        m = min(_LANES, samples - start)
        words = draw(96 * m)
        members = _koren3_lanes(words, m)
        hits += members.bit_count()
        checked = min(m, _CROSS_CHECK_SAMPLES - start)
        if checked > 0:
            member_bytes = members.to_bytes(12 * m, "little")
            triples = struct.iter_unpack("<3I", words.to_bytes(12 * m, "little"))
            for idx, (wa, wb, wc) in zip(range(checked), triples):
                point = (wa >> 1, wb >> 1, wc >> 1)
                member = bool(member_bytes[12 * idx + 5] & 1)
                reference = _fhm_witness(sorted(point, reverse=True), _SCALE) is None
                if member != reference:
                    raise AssertionError(
                        f"integer lanes say {member} but the sorted sweep says {reference} "
                        f"at sample {start + idx}: {point!r} / 2^{_SCALE_BITS}"
                    )
    return VolumeEstimate(samples, hits, Fraction(8 * hits, samples))
