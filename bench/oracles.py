"""Independent oracles the benchmark checks every report against.

Nothing here imports degpoly: each oracle recomputes its answer from the
definition, so a report that agrees with it was not merely agreeing with
itself.  All arithmetic is exact (``int`` and ``Fraction``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, accumulate
from typing import Sequence


def pava_decreasing(c: Sequence[Fraction]) -> list[Fraction]:
    """Euclidean projection onto weakly decreasing vectors (pool adjacent violators).

    Keeps a stack of blocks as [mean, size]; a new block whose mean exceeds
    the previous block's mean merges into it until the means decrease.
    """
    blocks: list[list] = []
    for value in c:
        mean, size = Fraction(value), 1
        while blocks and blocks[-1][0] < mean:
            prev_mean, prev_size = blocks.pop()
            mean = (prev_mean * prev_size + mean * size) / (prev_size + size)
            size += prev_size
        blocks.append([mean, size])
    return [mean for mean, size in blocks for _ in range(size)]


def threshold_degrees(b: Sequence[Fraction], strict: bool) -> list[int]:
    """d_i = #{j != i : b_i + b_j >= 0} (> 0 when ``strict``), by a two-pointer sweep.

    ``b`` is weakly decreasing, so the partners of vertex i form a prefix
    of the index range whose length shrinks as i grows.
    """
    n = len(b)
    degrees = []
    hi = n  # number of j (0-based prefix) with b_i + b_j passing the test
    for i in range(n):
        while hi > 0 and not (b[i] + b[hi - 1] > 0 if strict else b[i] + b[hi - 1] >= 0):
            hi -= 1
        degrees.append(hi - (1 if i < hi else 0))
    return degrees


def certificate_coefficients(c: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """alpha_i = sum_{t <= i} (b_t - c_t) for i = 1..n-1, the closed-form certificate."""
    return list(accumulate(bt - ct for bt, ct in zip(b[:-1], c[:-1])))


def erdos_gallai(seq: Sequence[int]) -> bool:
    """Is ``seq`` (any order) the degree sequence of a simple graph?

    Erdős–Gallai (1960): even sum and, for the decreasing rearrangement d,
    sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k) for every k.
    """
    d = sorted(seq, reverse=True)
    n = len(d)
    if n == 0 or d[-1] < 0 or sum(d) % 2:
        return False
    head = 0
    for k in range(1, n + 1):
        head += d[k - 1]
        if head > k * (k - 1) + sum(min(v, k) for v in d[k:]):
            return False
    return True


def realizable_partitions(n: int, r: int) -> frozenset[tuple[int, ...]]:
    """Decreasing degree sequences of every r-uniform hypergraph on [n].

    Walks all 2^C(n, r) edge sets in Gray-code order, so each step toggles
    one edge and touches r degrees.  Meant for C(n, r) <= 20.
    """
    edges = list(combinations(range(n), r))
    deg = [0] * n
    seen = {tuple(deg)}
    present = 0
    for t in range(1, 1 << len(edges)):
        bit = (t & -t).bit_length() - 1
        present ^= 1 << bit
        delta = 1 if present >> bit & 1 else -1
        for v in edges[bit]:
            deg[v] += delta
        seen.add(tuple(deg))
    return frozenset(tuple(sorted(d, reverse=True)) for d in seen)
