"""Threshold partitions, the pair poset, and its order ideals."""

from fractions import Fraction
from itertools import combinations

import pytest

from degpoly.threshold import (
    OrderIdeal,
    degree_partition_of_ideal,
    enumerate_order_ideals,
    enumerate_threshold_partitions,
    graph_from_weights,
    ideal_from_partition,
    is_order_ideal,
    is_threshold_partition,
    pair_lower_covers,
    pair_poset,
    proper_threshold_oracle,
    tp_join,
    tp_meet,
)

F = Fraction

TP3 = ((0, 0, 0), (1, 1, 0), (2, 1, 1), (2, 2, 2))
TP4 = (
    (0, 0, 0, 0),
    (1, 1, 0, 0),
    (2, 1, 1, 0),
    (2, 2, 2, 0),
    (3, 1, 1, 1),
    (3, 2, 2, 1),
    (3, 3, 2, 2),
    (3, 3, 3, 3),
)


def test_pair_poset_lex_order():
    assert pair_poset(3) == ((1, 2), (1, 3), (2, 3))
    assert len(pair_poset(6)) == 15


def test_pair_lower_covers():
    assert set(pair_lower_covers((1, 2))) == set()
    assert set(pair_lower_covers((2, 4))) == {(1, 4), (2, 3)}
    assert set(pair_lower_covers((1, 3))) == {(1, 2)}


def test_is_order_ideal():
    assert is_order_ideal(4, set())
    assert is_order_ideal(4, {(1, 2)})
    assert is_order_ideal(4, {(1, 2), (1, 3), (1, 4), (2, 3)})
    assert not is_order_ideal(4, {(1, 3)})  # missing (1,2) below it
    assert not is_order_ideal(4, {(3, 4)})
    assert not is_order_ideal(4, {(1, 2), (3, 4)})
    assert is_order_ideal(2, set())
    with pytest.raises(ValueError):
        is_order_ideal(3, {(2, 1)})
    with pytest.raises(ValueError):
        is_order_ideal(3, {(1, 4)})


def test_order_ideal_validates_on_construction():
    OrderIdeal(4, frozenset({(1, 2), (1, 3)}))
    with pytest.raises(ValueError):
        OrderIdeal(4, frozenset({(2, 3)}))


def test_degree_partition_of_ideal():
    ideal = OrderIdeal(4, frozenset({(1, 2), (1, 3), (1, 4), (2, 3)}))
    assert degree_partition_of_ideal(ideal) == (3, 2, 2, 1)
    assert degree_partition_of_ideal(OrderIdeal(3, frozenset())) == (0, 0, 0)


def test_is_threshold_partition_frozen_cases():
    for d in TP4:
        assert is_threshold_partition(d)
    assert not is_threshold_partition((2, 2, 1, 1))
    assert not is_threshold_partition((1, 2))  # not decreasing
    assert not is_threshold_partition((2, 1))  # degree 2 exceeds n-1 = 1
    assert not is_threshold_partition(())  # no vertices
    assert is_threshold_partition((0,))


def test_ideal_from_partition_roundtrip():
    ideal = ideal_from_partition((3, 2, 2, 1))
    assert ideal.edges == frozenset({(1, 2), (1, 3), (1, 4), (2, 3)})
    for n in (1, 2, 3, 4, 5, 6):
        for d in enumerate_threshold_partitions(n):
            assert degree_partition_of_ideal(ideal_from_partition(d)) == d
    with pytest.raises(ValueError):
        ideal_from_partition((2, 2, 1, 1))


def test_enumerate_threshold_partitions_small():
    assert enumerate_threshold_partitions(1) == ((0,),)
    assert enumerate_threshold_partitions(2) == ((0, 0), (1, 1))
    assert enumerate_threshold_partitions(3) == TP3
    assert enumerate_threshold_partitions(4) == TP4


def test_enumerate_threshold_partitions_counts_and_validity():
    for n in range(1, 11):
        tps = enumerate_threshold_partitions(n)
        assert len(tps) == 2 ** (n - 1)
        assert len(set(tps)) == len(tps)
        assert all(is_threshold_partition(d) for d in tps)


def test_enumeration_bound_enforced():
    with pytest.raises(ValueError):
        enumerate_threshold_partitions(21)
    with pytest.raises(ValueError):
        enumerate_order_ideals(13)


def test_enumerate_order_ideals_matches_partitions():
    for n in range(1, 7):
        ideals = enumerate_order_ideals(n)
        tps = enumerate_threshold_partitions(n)
        assert len(ideals) == len(tps)
        # the two enumerations walk the same recursion, position by position
        for edges, d in zip(ideals, tps):
            assert degree_partition_of_ideal(OrderIdeal(n, edges)) == d


def test_enumerate_order_ideals_against_subset_filter():
    for n in range(1, 6):
        poset = pair_poset(n)
        expected = set()
        for size in range(len(poset) + 1):
            for subset in combinations(poset, size):
                if is_order_ideal(n, set(subset)):
                    expected.add(frozenset(subset))
        assert set(enumerate_order_ideals(n)) == expected


def test_lattice_operations():
    assert tp_join((3, 2, 2, 1), (2, 2, 2, 0)) == (3, 2, 2, 1)
    assert tp_meet((3, 2, 2, 1), (2, 2, 2, 0)) == (2, 2, 2, 0)
    assert tp_join((2, 1, 1, 0), (1, 1, 0, 0)) == (2, 1, 1, 0)
    with pytest.raises(ValueError):
        tp_join((2, 2, 1, 1), (0, 0, 0, 0))


def test_lattice_closure_exhaustive_n4():
    tps = enumerate_threshold_partitions(4)
    for a in tps:
        for b in tps:
            j, m = tp_join(a, b), tp_meet(a, b)
            assert is_threshold_partition(j)
            assert is_threshold_partition(m)
            # join dominates both coordinatewise, meet is below both
            assert all(x >= y for x, y in zip(j, a))
            assert all(x >= y for x, y in zip(j, b))
            assert all(x <= y for x, y in zip(m, a))
            assert all(x <= y for x, y in zip(m, b))


def test_graph_from_weights():
    assert graph_from_weights((F(1), F(1, 2), F(1, 2))).edges == frozenset(
        {(1, 2), (1, 3), (2, 3)}
    )
    assert graph_from_weights((F(1), F(-1))).edges == frozenset({(1, 2)})
    assert graph_from_weights((F(1), F(-1)), strict=True).edges == frozenset()
    with pytest.raises(ValueError):
        graph_from_weights((F(0), F(1)))


def test_proper_threshold_oracle_agrees_exhaustively():
    for n in range(1, 6):
        pairs = pair_poset(n)
        for size in range(len(pairs) + 1):
            for subset in combinations(pairs, size):
                edges = set(subset)
                assert proper_threshold_oracle(n, edges) == is_order_ideal(n, edges)
