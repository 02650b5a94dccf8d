"""Threshold partitions and the order ideals of the pair poset (r = 2)."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degpoly.core import bounded_partitions
from degpoly.hypergraph import (
    RGraph,
    degree_sequence,
    enumerate_r_ideals,
    is_r_ideal,
    r_subsets,
    subset_lower_covers,
)
from degpoly.optimize import MODES, _degree_sweep, optimal_threshold_partition
from degpoly.threshold import (
    _creation_word,
    degree_partition_of_ideal,
    enumerate_threshold_partitions,
    graph_from_weights,
    ideal_from_partition,
    is_threshold_partition,
    proper_threshold_oracle,
)
from python_o import run_under_python_O

F = Fraction


def join(*ds):
    """Column max: the lattice join of threshold partitions."""
    return tuple(max(col) for col in zip(*ds))


def meet(*ds):
    """Column min: the lattice meet of threshold partitions."""
    return tuple(min(col) for col in zip(*ds))


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
    # the pair poset is the r = 2 subset poset
    assert r_subsets(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert len(r_subsets(6, 2)) == 15


def test_pair_lower_covers():
    assert set(subset_lower_covers((1, 2))) == set()
    assert set(subset_lower_covers((2, 4))) == {(1, 4), (2, 3)}
    assert set(subset_lower_covers((1, 3))) == {(1, 2)}


def test_is_order_ideal():
    # the order ideals of the pair poset are the r = 2 ideals
    def is_order_ideal(n, edges):
        return is_r_ideal(RGraph(n, 2, frozenset(edges)))

    assert is_order_ideal(4, set())
    assert is_order_ideal(4, {(1, 2)})
    assert is_order_ideal(4, {(1, 2), (1, 3), (1, 4), (2, 3)})
    assert not is_order_ideal(4, {(1, 3)})  # missing (1, 2) below it
    assert not is_order_ideal(4, {(3, 4)})
    assert not is_order_ideal(4, {(1, 2), (3, 4)})
    assert is_order_ideal(2, set())
    assert is_order_ideal(3, {(2, 1)})  # a reversed pair is sorted, not refused
    with pytest.raises(ValueError):
        is_order_ideal(3, {(1, 4)})


def test_degree_partition_of_ideal():
    ideal = RGraph(4, 2, frozenset({(1, 2), (1, 3), (1, 4), (2, 3)}))
    assert degree_partition_of_ideal(ideal) == (3, 2, 2, 1)
    assert degree_partition_of_ideal(RGraph(3, 2, frozenset())) == (0, 0, 0)


def test_is_threshold_partition_frozen_cases():
    for d in TP4:
        assert is_threshold_partition(d)
    assert not is_threshold_partition((2, 2, 1, 1))
    assert not is_threshold_partition((1, 2))  # not decreasing
    assert not is_threshold_partition((2, 1))  # degree 2 exceeds n-1 = 1
    assert not is_threshold_partition(())  # no vertices
    assert is_threshold_partition((0,))


def test_is_threshold_partition_exhaustive():
    for n in range(1, 9):
        tps = set(enumerate_threshold_partitions(n))
        for d in bounded_partitions(n, n * (n - 1), max_entry=n - 1):
            assert is_threshold_partition(d) == (d in tps)
    for d in ((True,), (True, False), (1, 1, -1), (0, -1), (0, 1), (1, 2, 0), (), [], (1.0, 1.0)):
        assert not is_threshold_partition(d)


def test_ideal_from_partition_roundtrip():
    ideal = ideal_from_partition((3, 2, 2, 1))
    assert ideal.edges == frozenset({(1, 2), (1, 3), (1, 4), (2, 3)})
    # claim (i) at the vertices: the degree map sends the ideal back to d itself
    for n in range(1, 9):
        for d in enumerate_threshold_partitions(n):
            assert degree_sequence(ideal_from_partition(d)) == d
    with pytest.raises(ValueError):
        ideal_from_partition((2, 2, 1, 1))


def test_enumerate_threshold_partitions_small():
    assert enumerate_threshold_partitions(1) == ((0,),)
    assert enumerate_threshold_partitions(2) == ((0, 0), (1, 1))
    assert enumerate_threshold_partitions(3) == TP3
    assert enumerate_threshold_partitions(4) == TP4


def test_enumerate_threshold_partitions_counts_and_validity():
    # entry w decodes to creation word w, so the 2^(n-1) entries are distinct threshold partitions;
    # the shift runs on bytes, which also read as ints, so each entry must come back a tuple
    for n in range(1, 13):
        tps = enumerate_threshold_partitions(n)
        assert [_creation_word(d) for d in tps] == list(range(2 ** (n - 1)))
        assert {type(d) for d in tps} == {tuple}


def test_enumeration_bound_enforced(monkeypatch):
    import degpoly.threshold as threshold

    with pytest.raises(ValueError):
        enumerate_threshold_partitions(21)
    # n equal to the bound is admitted, one past it is not
    monkeypatch.setattr(threshold, "ENUMERATION_BOUND", 5)
    assert len(enumerate_threshold_partitions(5)) == 2**4
    with pytest.raises(ValueError, match="outside the enumeration bound 1..5"):
        enumerate_threshold_partitions(6)


def test_shifted_shape_ideals_match_r_ideal_walk():
    # the shifted shapes, one per threshold partition, are exactly the ideals
    # the include/exclude walk of the r-subset poset finds at r = 2
    for n in range(1, 7):
        tps = enumerate_threshold_partitions(n)
        ideals = {ideal_from_partition(d).edges for d in tps}
        assert len(ideals) == len(tps)
        assert ideals == {ideal.edges for ideal in enumerate_r_ideals(n, 2)}


def test_lattice_operations():
    assert join((3, 2, 2, 1), (2, 2, 2, 0)) == (3, 2, 2, 1)
    assert meet((3, 2, 2, 1), (2, 2, 2, 0)) == (2, 2, 2, 0)
    assert join((2, 1, 1, 0), (1, 1, 0, 0)) == (2, 1, 1, 0)
    # incomparable vertices: neither dominates, yet both extremes are vertices
    assert join((3, 1, 1, 1), (2, 2, 2, 0)) == (3, 2, 2, 1)
    assert meet((3, 1, 1, 1), (2, 2, 2, 0)) == (2, 1, 1, 0)
    assert all(map(is_threshold_partition, ((3, 2, 2, 1), (2, 1, 1, 0))))


def test_lattice_closure_exhaustive_n4():
    tps = enumerate_threshold_partitions(4)
    for a in tps:
        for b in tps:
            j, m = join(a, b), meet(a, b)
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
    with pytest.raises(ValueError, match="weakly decreasing"):
        graph_from_weights((F(0), F(1)))


# few distinct values, symmetric about 0: ties and zero pair sums are common,
# and halves, thirds and sixths put pair sums such as 1/2 - 1/3 one sixth off
# zero, where the sweep's cross products compare unequal denominators
tie_heavy_weights = st.lists(
    st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.sampled_from((F(-3, 2), F(-1, 2), F(1, 2), F(3, 2))),
        st.sampled_from((F(-4, 3), F(-2, 3), F(-1, 3), F(1, 3), F(2, 3), F(4, 3))),
        st.sampled_from((F(-5, 6), F(-1, 6), F(1, 6), F(5, 6))),
    ),
    min_size=1,
    max_size=20,
).map(lambda values: sorted(values, reverse=True))


@given(tie_heavy_weights, st.sampled_from(MODES))
def test_threshold_degrees_match_graph_from_weights(b, mode):
    # PAVA fixes a weakly decreasing b, so the optimizer's sweep reads b itself
    strict = mode == "min"
    assert optimal_threshold_partition(b, mode) == degree_partition_of_ideal(graph_from_weights(b, strict))


@given(tie_heavy_weights, st.booleans(), st.lists(st.integers(1, 7), min_size=20, max_size=20), st.integers(1, 30))
def test_sweep_reads_unreduced_ratios_without_their_common_factor(b, strict, factors, common):
    # the optimizer hands the sweep each block (T, S) as a run of weight T/S, which is b_i
    # times the common denominator D: not in lowest terms, and scaled by a positive factor
    runs = [(F(v).numerator * m * common, F(v).denominator * m, 1) for v, m in zip(b, factors)]
    assert _degree_sweep(runs, strict) == degree_partition_of_ideal(graph_from_weights(b, strict))


@given(tie_heavy_weights, st.booleans(), st.data())
def test_sweep_over_merged_runs_matches_the_sweep_entry_by_entry(b, strict, data):
    # consecutive equal weights merged into runs (p, q, size), each maximal tie cut at drawn
    # places, get the degrees that size-1 runs get: the pointer stops on run boundaries
    cuts = data.draw(st.lists(st.booleans(), min_size=len(b), max_size=len(b)))
    runs: list[list] = []
    for i, v in enumerate(b):
        if i and v == b[i - 1] and not cuts[i]:
            runs[-1][2] += 1
        else:
            runs.append([F(v).numerator, F(v).denominator, 1])
    single = [(F(v).numerator, F(v).denominator, 1) for v in b]
    assert _degree_sweep([tuple(run) for run in runs], strict) == _degree_sweep(single, strict)


def test_threshold_degrees():
    # on weakly decreasing costs the optimizer reads the degrees of their pair-sum ideal
    assert optimal_threshold_partition((F(1), F(0), F(0), F(-1)), "max") == (3, 2, 2, 1)
    assert optimal_threshold_partition((F(1), F(0), F(0), F(-1)), "min") == (2, 1, 1, 0)
    assert optimal_threshold_partition((0,), "max") == (0,)
    with pytest.raises(ValueError):
        optimal_threshold_partition((), "max")


def test_ideal_degree_check_raises_under_python_O():
    # with the rebuilt ideal's degrees stubbed to disagree, the invariant must survive -O
    script = (
        "import sys\n"
        "from degpoly import threshold\n"
        "threshold.degree_partition_of_ideal = lambda ideal: ()\n"
        "try:\n"
        "    threshold.ideal_from_partition((3, 2, 2, 1))\n"
        "except AssertionError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    assert run_under_python_O(script).split() == ["raised", "1"]


def test_sweep_degree_check_raises_under_python_O():
    # with the weak-decrease test stubbed to fail, the run sweep must raise, not an assert that -O strips
    script = (
        "import sys\n"
        "from degpoly import optimize\n"
        "optimize.is_weakly_decreasing = lambda values: False\n"
        "try:\n"
        "    optimize._degree_sweep([(1, 1, 2), (-1, 1, 1)], strict=False)\n"
        "except AssertionError as failure:\n"
        "    print('raised', sys.flags.optimize, 'run by run' in str(failure))\n"
    )
    assert run_under_python_O(script).split() == ["raised", "1", "True"]


def test_producers_check_closure_under_python_O():
    # with the closure test stubbed to fail, every producer of an ideal must
    # raise, not an assert that -O strips
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from degpoly import threshold\n"
        "threshold.is_r_ideal = lambda graph: False\n"
        "calls = (\n"
        "    lambda: threshold.ideal_from_partition((3, 2, 2, 1)),\n"
        "    lambda: threshold.graph_from_weights((Fraction(1), Fraction(-1))),\n"
        ")\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError:\n"
        "        print('raised', sys.flags.optimize)\n"
    )
    assert run_under_python_O(script).split() == ["raised", "1"] * 2


def test_proper_threshold_oracle_agrees_exhaustively():
    for n in range(1, 6):
        pairs = r_subsets(n, 2)
        for size in range(len(pairs) + 1):
            for subset in combinations(pairs, size):
                edges = frozenset(subset)
                assert proper_threshold_oracle(n, edges) == is_r_ideal(RGraph(n, 2, edges))
