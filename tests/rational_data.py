"""Seeded small rationals for the tests.

Numerators lie in [-100, 100] and denominators in [1, 10].  Ties and
zero pair sums are rare in these draws, so a test that must separate
the max and min optimizers needs tie-heavy costs of its own, such as
small halves.
"""

import random
from fractions import Fraction


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-100, 100), rng.randint(1, 10))


def random_rational_vector(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(random_rational(rng) for _ in range(n))
