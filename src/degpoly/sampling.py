"""Seeded random generation of small rationals, cost vectors, and partitions.

Tests and the command line both draw from here so that runs are
bit-reproducible.  Rationals use numerators in [-100, 100] and
denominators in [1, 10]; the narrow ranges make ties, zero pair sums,
and boundary cases show up at useful rates.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import RationalVector

# Fixed default seed; on the command line, verify --seed overrides it.
DEFAULT_SEED = 1729


def make_rng(seed: int | None = None) -> random.Random:
    return random.Random(DEFAULT_SEED if seed is None else seed)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-100, 100), rng.randint(1, 10))


def random_rational_vector(rng: random.Random, n: int) -> RationalVector:
    return tuple(random_rational(rng) for _ in range(n))


def random_pair_costs(rng: random.Random, n: int) -> dict[tuple[int, int], Fraction]:
    """A full cost dictionary over the pairs (i, j), 1 <= i < j <= n."""
    return {
        (i, j): random_rational(rng)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
