"""Linear optimization over threshold partitions and its certificates."""

import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degpoly.core import as_rational_vector, clear_denominators, is_weakly_decreasing
from degpoly.hypergraph import RGraph, degree_sequence, enumerate_r_ideals
from degpoly.optimize import (
    Certificate,
    _ratio_text,
    brute_force_optimal_partition,
    optimal_threshold_partition,
    optimality_certificate,
)
from degpoly.runs import pava_oracle, pool
from degpoly.threshold import (
    degree_partition_of_ideal,
    enumerate_threshold_partitions,
    graph_from_weights,
    is_threshold_partition,
)
from rational_data import random_rational_vector

F = Fraction


def test_objective_value():
    assert optimality_certificate(as_rational_vector((1, -1, 2))).value((2, 2, 2)) == F(4)
    assert optimality_certificate(as_rational_vector((1, -1))).value((0, 0)) == F(0)
    with pytest.raises(ValueError):
        optimality_certificate(as_rational_vector((1,))).value((0, 0))


def test_optimal_threshold_partition_frozen_examples():
    c = as_rational_vector((1, -1, 2))
    assert optimal_threshold_partition(c) == (2, 2, 2)
    assert optimal_threshold_partition(c, "min") == (2, 2, 2)
    two = as_rational_vector((1, -1))
    assert optimal_threshold_partition(two, "max") == (1, 1)
    assert optimal_threshold_partition(two, "min") == (0, 0)


def _tied_costs(rng, n):
    # small halves, so zero pair sums and so both extremes differ often
    return tuple(F(rng.randint(-3, 3), 2) for _ in range(n))


def test_optimal_threshold_partition_against_brute_force_seeded():
    # every other draw is tie-heavy: without zero pair sums the max and min
    # optimizers coincide, and a mode mix-up would pass unseen
    rng = random.Random(13)
    for k in range(120):
        n = rng.randint(1, 6)
        c = _tied_costs(rng, n) if k % 2 else random_rational_vector(rng, n)
        best, argmax = brute_force_optimal_partition(c)
        for mode in ("max", "min"):
            d = optimal_threshold_partition(c, mode)
            assert optimality_certificate(c).value(d) == best
            assert d in argmax
        # the extremes of the argmax set are its column max and column min
        assert optimal_threshold_partition(c, "max") == tuple(max(col) for col in zip(*argmax))
        assert optimal_threshold_partition(c, "min") == tuple(min(col) for col in zip(*argmax))


def test_optimizer_agrees_with_pooled_weights():
    # the graph that the pooled costs cut out has the optimizer's degrees
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 6)
        c = _tied_costs(rng, n)
        pooled = pool(c).vector
        assert degree_partition_of_ideal(graph_from_weights(pooled)) == optimal_threshold_partition(c, "max")
        assert degree_partition_of_ideal(graph_from_weights(pooled, strict=True)) == optimal_threshold_partition(
            c, "min"
        )


def test_brute_force_argmax_closed_under_union_and_intersection():
    # integer cost grid, exhaustive: the maximizers always form a sublattice
    for n in (3, 4, 5):
        for c in product((-1, 0, 1), repeat=n):
            _, argmax = brute_force_optimal_partition(c)
            for d in argmax:
                for e in argmax:
                    join = tuple(max(col) for col in zip(d, e))
                    meet = tuple(min(col) for col in zip(d, e))
                    assert is_threshold_partition(join) and is_threshold_partition(meet)
                    assert all(j >= x >= m for j, x, m in zip(join, d, meet))
                    assert all(j >= y >= m for j, y, m in zip(join, e, meet))
                    assert join in argmax
                    assert meet in argmax


def test_objective_is_the_lifted_pair_weight_of_its_ideal():
    # sum c_i d_i over the degrees of an ideal is the sum of c_i + c_j over its edges
    rng = random.Random(11)
    for n in range(1, 7):
        c = random_rational_vector(rng, n)
        cert = optimality_certificate(c)
        for edges in (ideal.edges for ideal in enumerate_r_ideals(n, 2)):
            degrees = degree_sequence(RGraph(n, 2, edges))
            assert cert.value(degrees) == sum((c[i - 1] + c[j - 1] for i, j in edges), F(0))


def test_optimizer_matches_the_best_ideal_of_the_r_ideal_walk():
    # a second oracle: score every order ideal of the pair poset by its lifted weight;
    # the union and intersection of the best ideals are the two extreme optimizers
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 6)
        c = _tied_costs(rng, n)
        weights = {
            ideal.edges: sum((c[i - 1] + c[j - 1] for i, j in ideal.edges), F(0)) for ideal in enumerate_r_ideals(n, 2)
        }
        best = max(weights.values())
        argmax = [edges for edges, w in weights.items() if w == best]
        union = frozenset().union(*argmax)
        intersection = reduce(frozenset.intersection, argmax)
        assert union in argmax and intersection in argmax
        assert degree_sequence(RGraph(n, 2, union)) == optimal_threshold_partition(c, "max")
        assert degree_sequence(RGraph(n, 2, intersection)) == optimal_threshold_partition(c, "min")


def test_optimal_threshold_partition_scales_to_20000_vertices():
    n = 20_000
    # costs 1, -1, 1, -1, ... project to b = (1, 0, ..., 0, -1)
    alternating = as_rational_vector((1, -1) * (n // 2))
    a_max = optimal_threshold_partition(alternating, "max")
    a_min = optimal_threshold_partition(alternating, "min")
    assert a_max == (n - 1,) + (n - 2,) * (n - 2) + (1,)
    assert a_min == (n - 2,) + (1,) * (n - 2) + (0,)
    c = random_rational_vector(random.Random(18), n)
    d_max, d_min = optimal_threshold_partition(c, "max"), optimal_threshold_partition(c, "min")
    assert all(is_threshold_partition(d) for d in (a_max, a_min, d_max, d_min))
    assert all(hi >= lo for hi, lo in zip(d_max, d_min))
    cert = optimality_certificate(c)
    assert cert.value(d_max) == cert.value(d_min)
    assert all(d_max[i - 1] == d_max[i] and d_min[i - 1] == d_min[i] for i in cert.support)


def test_ascending_costs_force_plateaus():
    # wherever c_i <= c_{i+1}, every reported optimizer has d_i = d_{i+1}
    rng = random.Random(14)
    for _ in range(80):
        n = rng.randint(2, 6)
        c = random_rational_vector(rng, n)
        for mode in ("max", "min"):
            d = optimal_threshold_partition(c, mode)
            for i in range(n - 1):
                if c[i] <= c[i + 1]:
                    assert d[i] == d[i + 1]


def test_strictly_increasing_costs_make_unique_optimum_ties():
    c = as_rational_vector((1, 2, 3, 4))
    _, argmax = brute_force_optimal_partition(c)
    for d in argmax:
        assert len(set(d)) == 1


def test_optimality_certificate_frozen_example():
    cert = optimality_certificate(as_rational_vector((1, -1, 2)))
    assert cert.base == (F(1), F(1, 2), F(1, 2))
    assert cert.coefficients == (F(0), F(3, 2))
    assert cert.support == frozenset({2})
    assert cert.reconstruct() == (F(1), F(-1), F(2))
    cert = optimality_certificate(as_rational_vector((1, 3)))
    assert cert.base == (F(2), F(2))
    assert cert.coefficients == (F(1),)
    assert cert.support == frozenset({1})


# small values make ties and multi-round pooling frequent; the rationals
# mix denominators 1, 2, 3 and 6, so blocks pool entries over unequal denominators
_tied_mixed_costs = st.lists(st.integers(-3, 3), min_size=1, max_size=20) | st.lists(
    st.integers(-3, 3) | st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 6))), min_size=1, max_size=20
)


@given(_tied_mixed_costs)
def test_closed_form_certificate_matches_pava(c):
    cert = optimality_certificate(c)
    b = pool(c).vector
    assert cert.base == b == pava_oracle(c)
    # alpha_i = sum_{t <= i} (b_t - c_t), written out in Fraction
    alpha, running = [], F(0)
    for bt, ct in zip(b[:-1], c):
        running += bt - ct
        alpha.append(running)
    assert cert.coefficients == tuple(alpha)
    # a zero coefficient is Fraction(0), which a report prints as "0", not 0
    assert all(type(a) is Fraction for a in cert.base + cert.coefficients)
    assert cert.reconstruct() == as_rational_vector(c)
    assert all(a >= 0 for a in cert.coefficients)
    d = optimal_threshold_partition(c)
    assert all(d[i - 1] == d[i] for i in cert.support)
    assert type(cert.value(d)) is Fraction


def test_pairwise_coprime_denominators_frozen_example():
    # the first 12 primes as denominators: pooling takes 4 rounds, and the
    # middle block's mean has a denominator of 35 bits
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    c = tuple(F(p, q) for p, q in zip((1, -2, 4, -3, 9, -1, 5, -7, 11, 13, -17, 2), primes))
    pooled = pool(c)
    assert pooled.rounds == 4
    middle = F(4199652467, 29113619535)
    assert pooled.vector == (F(1, 2),) + (middle,) * 9 + (F(-567, 2294),) * 2
    cert = optimality_certificate(c)
    assert cert.base == pooled.vector == pava_oracle(c)
    assert cert.reconstruct() == c
    assert sorted(cert.support) == [2, 3, 4, 5, 6, 7, 8, 9, 11]
    optimum = (11,) + (9,) * 9 + (1, 1)
    for mode, strict in (("max", False), ("min", True)):
        assert optimal_threshold_partition(c, mode) == optimum
        assert degree_partition_of_ideal(graph_from_weights(pooled.vector, strict)) == optimum
    best, argmax = brute_force_optimal_partition(c)
    assert argmax == {optimum}
    assert cert.value(optimum) == best == F(41283922837909, 2473579378270)


def _complement(d):
    """phi(d) = (n - 1) - reverse(d): the degrees of the complement graph, relabelled to decrease."""
    return tuple(len(d) - 1 - v for v in reversed(d))


@given(_tied_mixed_costs)
def test_complementation_swaps_the_extreme_optimizers(c):
    # c . phi(e) = (n - 1) sum(c) + (-reverse(c)) . e, and phi reverses the componentwise order
    mirrored = tuple(-v for v in reversed(c))
    for mode, other in (("max", "min"), ("min", "max")):
        assert optimal_threshold_partition(c, mode) == _complement(optimal_threshold_partition(mirrored, other))


# a palette of at most 3 costs makes ties common; denominators up to 1000 make the lcm large
_mixed_costs = st.lists(
    st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=1000), min_size=1, max_size=3, unique=True
).flatmap(lambda palette: st.lists(st.sampled_from(palette), min_size=1, max_size=8))


@given(_mixed_costs)
def test_brute_force_optimal_partition_matches_objective_value_scan(c):
    cert = optimality_certificate(c)
    values = {d: cert.value(d) for d in enumerate_threshold_partitions(len(c))}
    top = max(values.values())
    best, argmax = brute_force_optimal_partition(c)
    assert type(best) is Fraction and best == top
    assert argmax == frozenset(d for d, v in values.items() if v == top)


def test_certificate_soundness_seeded():
    rng = random.Random(16)
    for _ in range(150):
        n = rng.randint(1, 8)
        c = random_rational_vector(rng, n)
        cert = optimality_certificate(c)
        assert cert.reconstruct() == c
        assert all(a >= 0 for a in cert.coefficients)
        assert cert.base == pool(c).vector == pava_oracle(c)
        assert is_weakly_decreasing(cert.base)
        d = optimal_threshold_partition(c)
        assert all(d[i - 1] == d[i] for i in cert.support)


def test_certificate_proves_optimality_exhaustively():
    # value of the base functional dominates c on every vertex: for any
    # threshold partition d, c . d <= base . d because the correction
    # terms alpha_i (d_{i+1} - d_i) are <= 0 on decreasing d
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 6)
        c = random_rational_vector(rng, n)
        cert = optimality_certificate(c)
        best, _ = brute_force_optimal_partition(c)
        for d in enumerate_threshold_partitions(n):
            lhs = sum(ci * di for ci, di in zip(c, d))
            rhs = sum(bi * di for bi, di in zip(cert.base, d))
            assert lhs <= rhs
        d_star = optimal_threshold_partition(c)
        assert cert.value(d_star) == best


@given(
    st.integers(-(10**300), 10**300) | st.sampled_from((0, -1, 1)),
    st.integers(1, 10**300) | st.integers(1, 12),
)
def test_ratio_text_is_str_of_fraction(p, q):
    assert _ratio_text(p, q) == str(Fraction(p, q))


def test_certificate_dataclass_validation():
    # c = (1, -1, 2) is C = (2, -2, 4) over D = 2; base (1, 1/2, 1/2) is blocks (2, 1) and (2, 2);
    # alpha = (0, 3/2) is A = (0, 6) over S*D = 4
    cert = Certificate(costs=(2, -2, 4), scale=2, blocks=((2, 1), (2, 2)), numerators=(0, 6))
    assert cert.base == (F(1), F(1, 2), F(1, 2))
    assert cert.coefficients == (F(0), F(3, 2))
    assert cert.misfits() == []
    with pytest.raises(ValueError, match="one cost per base entry"):
        replace(cert, costs=(2, -2))
    with pytest.raises(ValueError, match="one coefficient per adjacent pair"):
        replace(cert, numerators=(0, 6, 0))  # wrong length: must be n-1
    with pytest.raises(ValueError, match="must be weakly decreasing"):
        Certificate(costs=(0, 0, 0), scale=2, blocks=((1, 2), (1, 1)), numerators=(0, 0))  # means 1/4 then 1/2
    with pytest.raises(ValueError, match="must be nonnegative"):
        Certificate(costs=(0, 1), scale=1, blocks=((1, 1), (0, 1)), numerators=(-1,))
    for scale, blocks in ((0, ((1, 1),)), (1, ((1, 1), (0, 0)))):
        with pytest.raises(ValueError, match="must be positive"):
            Certificate(costs=(1,), scale=scale, blocks=blocks, numerators=())
    # the support is read off the coefficients, so it cannot disagree with them
    assert replace(cert, scale=1, numerators=(0, 3)).support == frozenset({2})


def test_misfits_catch_a_wrong_total_at_either_end():
    # costs (1, 3, 2, 0): blocks (4, 2), (2, 1), (0, 1) and A = (2, 0, 0)
    c = (1, 3, 2, 0)
    cert = optimality_certificate(c)
    assert (cert.costs, cert.blocks, cert.numerators) == (c, ((4, 2), (2, 1), (0, 1)), (2, 0, 0))
    assert cert.misfits() == []
    # a first block whose total is one too large ends on A_2 = 2, not 0: the next
    # block's first entry must read that A_2, not a fresh 0
    first = replace(cert, blocks=((5, 2), (2, 1), (0, 1)), numerators=(3, 2, 0))
    assert first.misfits() == [3]
    # a last block one too small: entry n reads alpha_n = 0, not the A_4 = -1 the blocks would give
    last = replace(cert, blocks=((4, 2), (2, 1), (-1, 1)), numerators=(2, 0, 0))
    assert last.misfits() == [4]
    with pytest.raises(ValueError):
        replace(first, costs=c[:-1])


@given(_tied_mixed_costs, st.data())
def test_misfits_are_the_entries_reconstruct_gets_wrong(c, data):
    # the integer identity per entry against the Fraction reconstruction, on costs
    # with some numerators moved: misfits lists exactly the entries that differ
    numerators, scale = clear_denominators(c)
    cert = optimality_certificate(c)
    assert (cert.costs, cert.scale) == (numerators, scale) and cert.misfits() == []
    moved = data.draw(st.lists(st.integers(-2, 2), min_size=len(c), max_size=len(c)))
    other = tuple(v + m for v, m in zip(numerators, moved))
    rebuilt = cert.reconstruct()
    assert replace(cert, costs=other).misfits() == [
        t for t, (v, r) in enumerate(zip(other, rebuilt), start=1) if F(v, scale) != r
    ]


def test_mode_validation():
    with pytest.raises(ValueError):
        optimal_threshold_partition(as_rational_vector((1,)), "median")
