"""Descents, run averaging, and the pooling projection."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpoly.core import as_rational_vector, is_weakly_decreasing
from degpoly.runs import (
    ascending_runs,
    average_runs,
    descent_set,
    pava_oracle,
    pool,
)
from degpoly.sampling import make_rng
from rational_data import random_rational_vector

F = Fraction
WORKED = (1, 2, 4, 5, 2, 3, 1, 2, 3)

rational_vectors = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    min_size=1,
    max_size=12,
).map(tuple)


def test_descent_set_worked_example():
    assert descent_set(WORKED) == frozenset({4, 6})
    # ties are not descents
    assert descent_set((2, 2, 1)) == frozenset({2})
    assert descent_set((1, 1, 1)) == frozenset()


def test_ascending_runs_worked_example():
    dec = ascending_runs(WORKED)
    assert dec.runs == ((1, 2, 3, 4), (5, 6), (7, 8, 9))
    assert dec.descents == frozenset({4, 6})


def test_ascending_runs_rejects_empty():
    with pytest.raises(ValueError):
        ascending_runs(())


def test_average_runs_worked_example():
    once = average_runs(WORKED)
    assert once == as_rational_vector((3, 3, 3, 3, F(5, 2), F(5, 2), 2, 2, 2))
    twice = average_runs(once)
    assert is_weakly_decreasing(twice)
    assert twice == once  # already decreasing after one round here


def test_average_runs_preserves_sum():
    vec = as_rational_vector((1, -1, 2, 0))
    assert sum(average_runs(vec)) == sum(vec)


def test_pool_two_rounds():
    # first round averages each run to (5/2, 5/2, 9/2, 9/2), creating a
    # new ascent, and the second round flattens everything
    c = as_rational_vector((2, 3, 0, 9))
    result = pool(c)
    assert result.vector == (F(7, 2), F(7, 2), F(7, 2), F(7, 2))
    assert result.rounds == 2


def test_pool_frozen_examples():
    assert pool(as_rational_vector((1, -1, 2))).vector == (F(1), F(1, 2), F(1, 2))
    assert pool(as_rational_vector((1, -1, 2))).rounds == 1
    done = pool(as_rational_vector((3, 2, 1)))
    assert done.vector == (F(3), F(2), F(1))
    assert done.rounds == 0


def test_pava_oracle_frozen_examples():
    assert pava_oracle(as_rational_vector((1, 3))) == (F(2), F(2))
    assert pava_oracle(as_rational_vector((3, 1))) == (F(3), F(1))
    assert pava_oracle(as_rational_vector((1, -1, 2))) == (F(1), F(1, 2), F(1, 2))


@given(rational_vectors)
@settings(max_examples=300)
def test_pool_matches_pava(vec):
    assert pool(vec).vector == pava_oracle(vec)


@given(rational_vectors)
def test_pool_output_is_decreasing_and_sum_preserving(vec):
    out = pool(vec).vector
    assert is_weakly_decreasing(out)
    assert sum(out) == sum(vec)


def test_pool_matches_pava_on_seeded_vectors():
    rng = make_rng(99)
    for _ in range(300):
        n = rng.randint(1, 12)
        vec = random_rational_vector(rng, n)
        assert pool(vec).vector == pava_oracle(vec)


def test_pool_is_nearest_decreasing_point():
    # squared distance from c to pool(c) never exceeds distance to any
    # other weakly decreasing vector
    rng = make_rng(7)
    for _ in range(50):
        n = rng.randint(1, 8)
        c = random_rational_vector(rng, n)
        best = sum((a - b) ** 2 for a, b in zip(c, pool(c).vector))
        for _ in range(20):
            z = tuple(sorted(random_rational_vector(rng, n), reverse=True))
            other = sum((a - b) ** 2 for a, b in zip(c, z))
            assert best <= other
