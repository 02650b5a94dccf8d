"""Shared vector/partition helpers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degpoly.core import (
    as_rational_vector,
    check_partition,
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
