"""Acceptance gate: one pass/fail line per criterion.

Each criterion prints its verdict to the real stdout (suspending
pytest's capture for the one line) so the per-criterion lines are
visible in any run:

    criterion 03 PASS optimization exactness on seeded cost vectors [1.9s]

A criterion fails loudly: the helper prints FAIL and re-raises, and any
stated time bound is asserted after the work completes.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from degpoly.cli import DEFAULT_SEED
from degpoly.core import bounded_partitions, majorizes, sort_decreasing
from degpoly.hypergraph import (
    brute_force_r_graphical,
    degree_sequence,
    enumerate_degree_partitions,
    is_r_graphical_partition,
    muirhead_chain,
    realize_r_graph,
)
from degpoly.optimize import (
    brute_force_optimal_partition,
    optimal_threshold_partition,
    optimality_certificate,
)
from degpoly.polytope import (
    affine_rank,
    are_adjacent,
    count_edges,
    dominating_sum_identity,
    dp3_volume,
    ds3_volume_estimate,
    facet_inequalities,
    facet_rank_adjacent,
    in_fhm_polytope,
    irredundancy_witness,
    is_degree_sequence,
)
from degpoly.runs import average_runs, pava_oracle, pool
from degpoly.threshold import enumerate_threshold_partitions
from rational_data import random_rational_vector

F = Fraction


@pytest.fixture(name="criterion")
def criterion_fixture(capfd):
    """A context manager printing one PASS/FAIL line per criterion."""

    def announce(line: str) -> None:
        with capfd.disabled():
            print(line, file=sys.stdout, flush=True)

    @contextmanager
    def criterion(num: int, description: str, time_limit: float | None = None):
        start = time.monotonic()
        try:
            yield
        except BaseException:
            elapsed = time.monotonic() - start
            announce(f"criterion {num:02d} FAIL {description} [{elapsed:.2f}s]")
            raise
        elapsed = time.monotonic() - start
        if time_limit is not None and elapsed > time_limit:
            announce(
                f"criterion {num:02d} FAIL {description} [{elapsed:.2f}s > {time_limit}s]"
            )
            raise AssertionError(
                f"criterion {num} exceeded its {time_limit}s bound: {elapsed:.2f}s"
            )
        announce(f"criterion {num:02d} PASS {description} [{elapsed:.2f}s]")

    return criterion


def test_criterion_01_vertex_count(criterion):
    with criterion(1, "vertex counts 2^(n-1) for n = 1..16", time_limit=1.0):
        for n in range(1, 17):
            tps = enumerate_threshold_partitions(n)
            assert len(tps) == 2 ** (n - 1)
            assert len(set(tps)) == len(tps)


def test_criterion_02_lattice_point_equality(criterion):
    with criterion(
        2, "even-sum lattice points = graph degree partitions, n = 3..6", time_limit=300.0
    ):
        for n in range(3, 7):
            from_polytope = frozenset(
                d
                for d in bounded_partitions(n, n * (n - 1), max_entry=n - 1)
                if sum(d) % 2 == 0 and in_fhm_polytope(d).member
            )
            assert from_polytope == enumerate_degree_partitions(n, 2)


def test_criterion_03_optimization_exactness(criterion):
    with criterion(
        3, "optimization exactness on 500 seeded cost vectors per n = 3..6",
        time_limit=120.0,
    ):
        rng = random.Random(DEFAULT_SEED)
        for n in range(3, 7):
            lattice = enumerate_degree_partitions(n, 2)
            for _ in range(500):
                c = random_rational_vector(rng, n)
                d = optimal_threshold_partition(c, "max")
                value = optimality_certificate(c).value(d)
                best, argmax = brute_force_optimal_partition(c)
                assert value == best
                assert d in argmax
                assert d == tuple(max(col) for col in zip(*argmax))
                for x in lattice:
                    assert value >= sum(ci * xi for ci, xi in zip(c, x))


def test_criterion_04_certificate_soundness(criterion):
    with criterion(4, "certificates reconstruct costs with support on plateaus"):
        rng = random.Random(DEFAULT_SEED)
        for n in range(3, 7):
            for _ in range(500):
                c = random_rational_vector(rng, n)
                cert = optimality_certificate(c)
                assert cert.reconstruct() == c
                assert all(a >= 0 for a in cert.coefficients)
                d = optimal_threshold_partition(c, "max")
                assert all(d[i - 1] == d[i] for i in cert.support)


def test_criterion_05_averaging_operator(criterion):
    with criterion(5, "pooling = isotonic oracle; worked example; projection bound"):
        worked = tuple(map(F, (1, 3, 2, 7, 2, 3, 1, 1, 5)))
        once = average_runs(worked)
        assert once == tuple(
            map(F, (2, 2, F(9, 2), F(9, 2), F(5, 2), F(5, 2), F(7, 3), F(7, 3), F(7, 3)))
        )
        twice = average_runs(once)
        assert twice == tuple(
            map(
                F,
                (
                    F(13, 4), F(13, 4), F(13, 4), F(13, 4),
                    F(5, 2), F(5, 2), F(7, 3), F(7, 3), F(7, 3),
                ),
            )
        )
        assert pool(worked).vector == twice
        rng = random.Random(DEFAULT_SEED)
        for _ in range(1000):
            n = rng.randint(1, 12)
            c = random_rational_vector(rng, n)
            projected = pool(c).vector
            assert projected == pava_oracle(c)
            nearest = sum((a - b) ** 2 for a, b in zip(c, projected))
            for _ in range(100):
                z = tuple(sorted(random_rational_vector(rng, n), reverse=True))
                assert nearest <= sum((a - b) ** 2 for a, b in zip(c, z))


def test_criterion_06_edge_counts(criterion):
    with criterion(6, "edge counts 6, 20, 56, 144 for n = 3..6", time_limit=60.0):
        for n, expected in ((3, 6), (4, 20), (5, 56), (6, 144)):
            enumerated = count_edges(n)
            assert enumerated == expected
            assert enumerated == 2 ** (n - 2) * (2 * n - 3)
            if n >= 4:
                assert enumerated == 2 * count_edges(n - 1) + 2 ** (n - 1)


def test_criterion_07_facets(criterion):
    with criterion(7, "facet counts 8, 11, 15; validity, rank, irredundancy"):
        tight_sets = {}
        for n, expected in ((4, 8), (5, 11), (6, 15)):
            facets = facet_inequalities(n)
            assert len(facets) == expected == (n * n - 3 * n + 12) // 2
            vertices = enumerate_threshold_partitions(n)
            for f in facets:
                assert all(f.satisfied(d) for d in vertices)
                tight = tight_sets[f] = [d for d in vertices if f.tight(d)]
                assert affine_rank(tight) >= n
        for n in (4, 5):
            facets = facet_inequalities(n)
            for f in facets:
                witness = irredundancy_witness(n, f, tight_sets[f])
                assert not f.satisfied(witness)
                assert all(g.satisfied(witness) for g in facets if g != f)


def test_criterion_08_dominating_sum_identity(criterion):
    with criterion(8, "dominating-count sum = 2^(n-1) for n = 2..16", time_limit=1.0):
        for n in range(2, 17):
            assert dominating_sum_identity(n) == 2 ** (n - 1)


def test_criterion_09_adjacency_oracle_agreement(criterion):
    with criterion(9, "block-shape adjacency = rank of the shared tight facets, n = 4..8"):
        for n in range(4, 9):
            for d, e in combinations(enumerate_threshold_partitions(n), 2):
                assert are_adjacent(d, e) == facet_rank_adjacent(d, e)


def test_criterion_10_hypergraph_recognition(criterion):
    with criterion(
        10, "majorization recognition = brute force, (5,3) and (5,2)", time_limit=600.0
    ):
        for d in bounded_partitions(5, 12):
            assert is_r_graphical_partition(d, 5, 3) == brute_force_r_graphical(d, 5, 3)
        for d in bounded_partitions(5, 10):
            fast = is_r_graphical_partition(d, 5, 2)
            assert fast == brute_force_r_graphical(d, 5, 2)
            assert fast == is_degree_sequence(d)


def test_criterion_11_muirhead_and_realization(criterion):
    with criterion(11, "500 Muirhead chains valid; realization matches the oracle"):
        rng = random.Random(DEFAULT_SEED)
        built = 0
        while built < 500:
            n = rng.randint(2, 8)
            b = sorted((rng.randint(0, 9) for _ in range(n)), reverse=True)
            a = list(b)
            for _ in range(rng.randint(1, 8)):
                lo = rng.randrange(n)
                hi = rng.randrange(n)
                lo, hi = min(lo, hi), max(lo, hi)
                if lo != hi:
                    a[lo] += 1
                    a[hi] -= 1
                    if a[hi] < 0:
                        a[lo] -= 1
                        a[hi] += 1
            a = sorted(a, reverse=True)
            if not majorizes(a, b):
                continue
            built += 1
            cur = tuple(a)
            for src, tgt in muirhead_chain(a, b):
                assert cur[src - 1] >= cur[tgt - 1] + 2
                nxt = list(cur)
                nxt[src - 1] -= 1
                nxt[tgt - 1] += 1
                nxt = tuple(nxt)
                assert majorizes(cur, nxt) and sorted(cur) != sorted(nxt)
                assert majorizes(nxt, b)
                cur = nxt
            assert sorted(cur) == sorted(b)
        for n, r, max_total in ((4, 2, 8), (4, 3, 9), (5, 3, 10)):
            for d in bounded_partitions(n, max_total):
                realized = realize_r_graph(d, n, r)
                if brute_force_r_graphical(d, n, r):
                    assert realized is not None
                    assert sort_decreasing(degree_sequence(realized)) == d
                else:
                    assert realized is None


def test_criterion_12_volume_spot_check(criterion):
    with criterion(
        12, "vol = 1/3 exactly; Monte Carlo in [0,2]^3 within 2.00 +/- 0.04",
        time_limit=30.0,
    ):
        assert dp3_volume() == F(1, 3)
        assert 6 * dp3_volume() == 2
        estimate = ds3_volume_estimate(samples=1_000_000, seed=DEFAULT_SEED)
        assert estimate.samples == 1_000_000
        assert abs(estimate.estimate - 2) <= F(1, 25)
