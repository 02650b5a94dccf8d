"""Run averaging and projection onto decreasing vectors.

A rational vector c splits where c_i > c_{i+1} into maximal weakly
ascending runs.  Replacing every entry by the average of its run is a
sum-preserving contraction; iterating it stabilizes after at most n-1
rounds at the Euclidean projection of c onto the cone of weakly
decreasing vectors.  That projection is what turns a vertex cost
vector into an optimizing threshold graph in :mod:`degpoly.optimize`.

The same projection is classical isotonic (here antitonic) regression,
so the module carries two independent implementations.  A
pool-adjacent-violators kernel merges adjacent violating blocks of the
integer numerators C of c = C/D in one linear pass, as (total T, size
S) blocks.  This module owns their format: a block stands for the mean
T/(S*D) repeated S times, and ``pava_oracle`` and the certificate base
of :mod:`degpoly.optimize` both expand it with one helper.  ``pool``
iterates run averaging, the paper's operator, and serves as their
oracle.  The test suite holds them bit-for-bit equal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import Rational, RationalVector, as_rational_vector, clear_denominators, is_weakly_decreasing


def average_runs(c: Sequence[Rational]) -> RationalVector:
    """Replace every entry by the mean of its ascending run.

    The runs are the maximal weakly ascending blocks: one pass splits
    where c_i > c_{i+1}, and ties do not split.
    """
    vec = as_rational_vector(c)
    if not vec:
        raise ValueError("cannot average an empty vector")
    out: list[Fraction] = []
    start = 0
    for end in range(1, len(vec) + 1):
        if end == len(vec) or vec[end - 1] > vec[end]:
            mean = Fraction(sum(vec[start:end]), end - start)
            out.extend([mean] * (end - start))
            start = end
    return tuple(out)


class PoolResult(NamedTuple):
    vector: RationalVector
    rounds: int


def pool(c: Sequence[Rational]) -> PoolResult:
    """Iterate run averaging until the vector is weakly decreasing.

    Returns the stable vector together with the number of averaging
    rounds actually used.  Stabilization within n-1 rounds is a theorem;
    the loop enforces it rather than trusting it.
    """
    cur = as_rational_vector(c)
    if not cur:
        raise ValueError("cannot pool an empty vector")
    limit = max(1, len(cur) - 1)
    for rounds in range(limit + 1):
        if is_weakly_decreasing(cur):
            return PoolResult(cur, rounds)
        cur = average_runs(cur)
    raise AssertionError(f"averaging failed to stabilize within {limit} rounds: {c!r}")


def _pava_blocks(numerators: Sequence[int]) -> list[tuple[int, int]]:
    """Antitonic regression of C by pool-adjacent-violators, as (total, size) blocks.

    Scans left to right keeping a stack of blocks, each an ``int`` total
    of numerators and its size, whose means total/size must stay weakly
    decreasing; a violation merges blocks.  Means compare as cross
    products, so the pass runs in ``int``.  Each entry is pushed once and
    merged at most once, so it is linear in n.
    """
    blocks: list[tuple[int, int]] = []
    for total in numerators:
        size = 1
        while blocks and blocks[-1][0] * size < total * blocks[-1][1]:
            prev_total, prev_size = blocks.pop()
            total += prev_total
            size += prev_size
        blocks.append((total, size))
    return blocks


def _block_means(blocks: Sequence[tuple[int, int]], scale: int) -> RationalVector:
    """Each block of total T and size S as one ``Fraction(T, S*D)``, repeated S times; D = ``scale``."""
    out: list[Fraction] = []
    for total, size in blocks:
        out.extend([Fraction(total, size * scale)] * size)
    return tuple(out)


def pava_oracle(c: Sequence[Rational]) -> RationalVector:
    """The projection of c = C/D onto the weakly decreasing vectors: the kernel's block means.

    Kept textually independent of :func:`pool`, its oracle, so the two
    can cross-check each other.
    """
    numerators, scale = clear_denominators(c)
    if not numerators:
        raise ValueError("cannot project an empty vector")
    return _block_means(_pava_blocks(numerators), scale)
