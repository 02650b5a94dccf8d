"""Seeded small rationals for the tests.

Numerators lie in [-100, 100] and denominators in [1, 10]; the narrow
ranges make ties, zero pair sums and boundary cases show up at useful
rates.
"""

import random
from fractions import Fraction


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-100, 100), rng.randint(1, 10))


def random_rational_vector(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(random_rational(rng) for _ in range(n))
