"""Run averaging and the pooling projection."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpoly.core import as_rational_vector, is_weakly_decreasing
from degpoly.runs import average_runs, pava_oracle, pool
from rational_data import random_rational_vector

F = Fraction
WORKED = (1, 2, 4, 5, 2, 3, 1, 2, 3)

rational_vectors = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    min_size=1,
    max_size=12,
).map(tuple)


def test_average_runs_worked_example():
    once = average_runs(WORKED)
    assert once == as_rational_vector((3, 3, 3, 3, F(5, 2), F(5, 2), 2, 2, 2))
    twice = average_runs(once)
    assert is_weakly_decreasing(twice)
    assert twice == once  # already decreasing after one round here


def test_average_runs_splits_only_at_strict_descents():
    # ties do not end a run: 1, 1, 2 is one run
    assert average_runs((1, 1, 2, 0)) == (F(4, 3), F(4, 3), F(4, 3), F(0))
    assert average_runs((2, 2, 1)) == (F(2), F(2), F(1))
    assert average_runs((1, 1, 1)) == (F(1), F(1), F(1))


def test_average_runs_rejects_empty():
    with pytest.raises(ValueError):
        average_runs(())


@pytest.mark.parametrize("refuse", [pool, pava_oracle])
def test_pool_and_pava_oracle_refuse_empty(refuse):
    with pytest.raises(ValueError, match="empty vector"):
        refuse(())


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
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 12)
        vec = random_rational_vector(rng, n)
        assert pool(vec).vector == pava_oracle(vec)


def test_pool_is_nearest_decreasing_point():
    # squared distance from c to pool(c) never exceeds distance to any
    # other weakly decreasing vector
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 8)
        c = random_rational_vector(rng, n)
        best = sum((a - b) ** 2 for a, b in zip(c, pool(c).vector))
        for _ in range(20):
            z = tuple(sorted(random_rational_vector(rng, n), reverse=True))
            other = sum((a - b) ** 2 for a, b in zip(c, z))
            assert best <= other
