"""The seeded generator behind the one randomized command.

``verify --suite volume3`` draws its Monte Carlo samples from
:func:`make_rng`, so identical flags and seed give bit-identical
reports.
"""

from __future__ import annotations

import random

# Fixed default seed; on the command line, verify --seed overrides it.
DEFAULT_SEED = 1729


def make_rng(seed: int | None = None) -> random.Random:
    return random.Random(DEFAULT_SEED if seed is None else seed)
