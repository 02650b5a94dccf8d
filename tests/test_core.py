"""Shared vector/partition helpers."""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degpoly.core import (
    as_rational_vector,
    bounded_partitions,
    check_partition,
    clear_denominators,
    clear_ratios,
    is_partition,
    is_weakly_decreasing,
    majorizes,
    sort_decreasing,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def test_as_rational_vector_mixes_ints_and_fractions():
    vec = as_rational_vector([1, Fraction(1, 2), -3])
    assert vec == (Fraction(1), Fraction(1, 2), Fraction(-3))
    assert all(isinstance(x, Fraction) for x in vec)


@given(st.lists(st.tuples(st.integers(-(10**30), 10**30), st.integers(1, 10**6) | st.integers(1, 12)), min_size=1, max_size=10))
def test_clear_ratios_gives_each_pair_over_the_lcm(pairs):
    numerators, scale = clear_ratios(pairs)
    assert [Fraction(c, scale) for c in numerators] == [Fraction(p, q) for p, q in pairs]
    assert scale == lcm(*(q for _, q in pairs)) and all(type(c) is int for c in numerators)
    # Fractions clear to the same integers over the same D as their reduced pairs
    fractions = [Fraction(p, q) for p, q in pairs]
    expected = clear_ratios((f.numerator, f.denominator) for f in fractions)
    assert clear_denominators(fractions) == expected
    # whole values as ints among the Fractions clear the same way; a bool among either is refused
    mixed = [int(f) if f.denominator == 1 else f for f in fractions]
    assert clear_denominators(mixed) == expected
    for vec in ([*mixed, True], [*fractions, False]):
        with pytest.raises(ValueError, match="exactly an int or a Fraction, got an entry of type bool"):
            clear_denominators(vec)
    # over a scale the numerators stay and the denominator grows by it
    assert clear_denominators(fractions, 7) == (expected[0], expected[1] * 7)


@pytest.mark.parametrize("scale", [0, -1, Fraction(3, 2), Fraction(2), 2.0, True])
def test_a_clearing_scale_must_be_a_positive_int(scale):
    # the one place a caller's denominator is checked; int and Fraction input alike
    for values in ((2, 1, 1), (Fraction(1, 2), 2, Fraction(3, 2))):
        with pytest.raises(ValueError, match="scale must be a positive int"):
            clear_denominators(values, scale)


def test_is_weakly_decreasing():
    assert is_weakly_decreasing(())
    assert is_weakly_decreasing((5,))
    assert is_weakly_decreasing((3, 3, 1, 0))
    assert not is_weakly_decreasing((1, 2))
    assert is_weakly_decreasing((Fraction(1, 2), Fraction(1, 3)))


def test_sort_decreasing_frozen_example():
    assert sort_decreasing((1, 3, 2, 7, 2, 3, 1, 1, 5)) == (7, 5, 3, 3, 2, 2, 1, 1, 1)


@given(st.lists(rationals, max_size=12))
def test_sort_decreasing_is_decreasing_permutation(values):
    out = sort_decreasing(values)
    assert is_weakly_decreasing(out)
    assert sorted(out) == sorted(values)



def test_majorizes_basic():
    assert majorizes((4, 2, 0), (2, 2, 2))
    assert majorizes((2, 2, 2), (2, 2, 2))
    assert not majorizes((2, 2, 2), (4, 2, 0))
    # different totals are incomparable
    assert not majorizes((3, 1), (2, 1))
    assert not majorizes((2, 1), (3, 1))


def test_majorizes_sorts_its_inputs():
    assert majorizes((0, 2, 4), (2, 2, 2))
    assert majorizes((1, 3), (3, 1)) and majorizes((3, 1), (1, 3))


def test_majorizes_length_mismatch():
    with pytest.raises(ValueError):
        majorizes((1, 1), (2,))


@given(st.lists(st.integers(0, 20), min_size=1, max_size=8),
       st.lists(st.integers(0, 20), min_size=1, max_size=8),
       st.lists(st.integers(0, 20), min_size=1, max_size=8))
def test_majorizes_is_transitive_and_reflexive(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n], b[:n], c[:n]
    assert majorizes(a, a)
    if majorizes(a, b) and majorizes(b, c):
        assert majorizes(a, c)


def test_is_partition():
    assert is_partition((3, 2, 2, 1))
    assert not is_partition(())  # the whole subject assumes n >= 1
    assert is_partition((0, 0))
    assert not is_partition((2, 3))
    assert not is_partition((2, -1))
    assert not is_partition((Fraction(3, 2), 1))
    assert not is_partition((True, False))  # bools are not degree values


def test_check_partition_raises_with_context():
    check_partition((2, 1, 1), "degrees")
    with pytest.raises(ValueError, match="degrees"):
        check_partition((1, 2), "degrees")


def test_an_unbinding_total_gives_the_recursive_walks_list_in_its_order():
    # n * cap <= max_total takes combinations_with_replacement; one below it the total binds and
    # the recursive walk runs, which lacks only the first tuple, every entry at the cap
    for n in range(1, 8):
        for cap in range(1, 7):
            fast = bounded_partitions(n, n * cap, max_entry=cap)
            assert fast[0] == (cap,) * n
            assert fast[1:] == bounded_partitions(n, n * cap - 1, max_entry=cap), (n, cap)
            assert bounded_partitions(n, n * cap + 3, max_entry=cap) == fast


def test_bounded_partitions_match_a_filter_of_every_tuple():
    # reverse lexicographic order is the descending sort, with caps that do and do not bind
    for n in range(0, 6):
        for cap in range(0, 4):
            for total in range(-1, n * cap + 2):
                every = product(range(cap + 1), repeat=n)
                expected = sorted((d for d in every if is_weakly_decreasing(d) and sum(d) <= total), reverse=True)
                assert bounded_partitions(n, total, max_entry=cap) == expected, (n, cap, total)
    assert bounded_partitions(0, 5) == [()]
