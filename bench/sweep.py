"""Scaling sweep: log-log growth exponents of the optimize and membership layers.

Each function is timed on its own at n = 64, 128, 256, 512 (median of a
few calls) and the exponent is the least-squares slope of log time over
log n.  An O(n log n) layer reads a little above 1, a quadratic one 2.
"""

from __future__ import annotations

import random
from math import log
from statistics import median
from time import perf_counter

import oracles
from workloads import gnp, random_costs

SWEEP_N = (64, 128, 256, 512)
REPEATS = 3


def slope(xs, ys) -> float:
    lx, ly = [log(x) for x in xs], [log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def growth_exponents(seed: int) -> dict[str, float]:
    from degpoly import optimize, polytope, runs, threshold

    rng = random.Random(f"sweep/{seed}")
    times: dict[str, list[float]] = {}
    for n in SWEEP_N:
        costs = random_costs(rng, n)
        b = oracles.pava_decreasing(costs)
        degrees = sorted((len(s) for s in gnp(rng, n, 0.5)), reverse=True)
        calls = {
            "runs.pool": lambda: runs.pool(costs),
            "threshold.graph_from_weights": lambda: threshold.graph_from_weights(b),
            "optimize.optimality_certificate": lambda: optimize.optimality_certificate(costs),
            "polytope.in_fhm_polytope": lambda: polytope.in_fhm_polytope(degrees),
        }
        for name, call in calls.items():
            samples = []
            for _ in range(REPEATS):
                t0 = perf_counter()
                call()
                samples.append(perf_counter() - t0)
            times.setdefault(name, []).append(median(samples))
    return {f"{name}.growth_exp": slope(SWEEP_N, ts) for name, ts in times.items()}
