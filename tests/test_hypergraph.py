"""r-graph degree sequences: recognition, chains, and realization."""

import os
import random
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from degpoly import hypergraph
from degpoly.core import bounded_partitions, majorizes, sort_decreasing
from degpoly.hypergraph import (
    RGraph,
    brute_force_r_graphical,
    degree_sequence,
    enumerate_degree_partitions,
    enumerate_r_ideals,
    format_hypergraph,
    is_r_graphical_partition,
    is_r_ideal,
    muirhead_chain,
    r_subsets,
    realize_r_graph,
    relabel_rgraph,
    reverse_saturate,
    subset_lower_covers,
)
from degpoly.polytope import is_degree_sequence
from degpoly.threshold import enumerate_threshold_partitions, ideal_from_partition


def test_r_subsets_lex_order():
    assert r_subsets(4, 3) == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    assert r_subsets(3, 1) == ((1,), (2,), (3,))
    assert len(r_subsets(6, 3)) == 20
    for n, r in ((0, 2), (3, 0)):
        with pytest.raises(ValueError):
            r_subsets(n, r)


def test_subset_lower_covers():
    assert set(subset_lower_covers((1, 2, 3))) == set()
    assert set(subset_lower_covers((1, 3, 4))) == {(1, 2, 4)}
    assert set(subset_lower_covers((2, 3, 5))) == {(1, 3, 5), (2, 3, 4)}


def test_rgraph_validation():
    g = RGraph(4, 2, frozenset({(2, 1)}))
    assert g.edges == frozenset({(1, 2)})  # edges normalize to sorted tuples
    bad = (
        (4, 2, {(1, 1)}),
        (4, 3, {(1, 2)}),
        (3, 2, {(1, 4)}),
        (3, 2, {(0, 1)}),
        (3, 2, {(1, 2.5)}),
        (3, 2, {(True, 2)}),
        (0, 2, set()),
        (3, 0, set()),
    )
    for n, r, edges in bad:
        with pytest.raises(ValueError):
            RGraph(n, r, frozenset(edges))


def test_r_above_n_leaves_only_the_empty_edge_set():
    assert r_subsets(1, 2) == ()
    assert r_subsets(2, 3) == ()
    assert RGraph(1, 2, frozenset()).edges == frozenset()
    with pytest.raises(ValueError):
        RGraph(2, 3, frozenset({(1, 2, 3)}))
    assert enumerate_r_ideals(1, 2) == (frozenset(),)
    assert realize_r_graph((0, 0), 2, 3) == RGraph(2, 3, frozenset())
    # the one-vertex graph is the ideal of the partition (0,)
    assert ideal_from_partition((0,)) == RGraph(1, 2, frozenset())


def test_degree_sequence_in_label_order():
    g = RGraph(4, 3, frozenset({(1, 2, 3), (1, 2, 4)}))
    assert degree_sequence(g) == (2, 2, 1, 1)
    g2 = RGraph(3, 2, frozenset({(2, 3)}))
    assert degree_sequence(g2) == (0, 1, 1)


def test_is_r_ideal():
    assert is_r_ideal(RGraph(4, 3, frozenset({(1, 2, 3)})))
    assert not is_r_ideal(RGraph(4, 3, frozenset({(1, 2, 4)})))
    assert is_r_ideal(RGraph(4, 3, frozenset()))
    assert is_r_ideal(RGraph(4, 2, frozenset({(1, 2), (1, 3)})))
    assert not is_r_ideal(RGraph(4, 2, frozenset({(2, 3)})))
    assert not is_r_ideal(RGraph(4, 2, frozenset({(1, 2), (3, 4)})))


def test_enumerate_r_ideals_counts():
    # r = 2 ideals are exactly the proper threshold graphs
    for n in range(2, 7):
        ideals = enumerate_r_ideals(n, 2)
        assert len(ideals) == 2 ** (n - 1)
        degs = {
            tuple(sort_decreasing(degree_sequence(RGraph(n, 2, e)))) for e in ideals
        }
        assert degs == set(enumerate_threshold_partitions(n))
    with pytest.raises(ValueError):
        enumerate_r_ideals(7, 3)  # C(7,3) = 35 > 20


def test_enumerate_r_ideals_against_subset_filter():
    for n, r in ((1, 2), (2, 2), (3, 2), (4, 2), (4, 3), (5, 4), (5, 2)):
        universe = r_subsets(n, r)
        expected = set()
        for size in range(len(universe) + 1):
            for sub in combinations(universe, size):
                if is_r_ideal(RGraph(n, r, frozenset(sub))):
                    expected.add(frozenset(sub))
        assert set(enumerate_r_ideals(n, r)) == expected


def test_realizable_partitions_of_a_total_lie_below_its_ideal_partitions():
    # (n, r, total) -> the r-ideal partitions of that total
    frozen = {
        (4, 3, 3): {(1, 1, 1, 0)},
        (4, 3, 6): {(2, 2, 1, 1)},
        (4, 3, 5): set(),
        (3, 3, 3): {(1, 1, 1)},
        (2, 3, 0): {(0, 0)},
    }
    for (n, r, total), ideal_parts in frozen.items():
        same_total = [d for d in bounded_partitions(n, total) if sum(d) == total]
        realizable = {d for d in same_total if is_r_graphical_partition(d, n, r)}
        assert realizable == {d for d in same_total if any(majorizes(p, d) for p in ideal_parts)}
        for part in ideal_parts:
            # the least majorizing ideal partition is the partition itself, realized by its ideal
            assert is_r_ideal(realize_r_graph(part, n, r))


def test_muirhead_chain_frozen_examples():
    assert muirhead_chain((4, 2, 0), (2, 2, 2)) == ((1, 3), (1, 3))
    assert muirhead_chain((3, 1), (2, 2)) == ((1, 2),)
    assert muirhead_chain((2, 2), (2, 2)) == ()
    with pytest.raises(ValueError):
        muirhead_chain((2, 2, 2), (4, 2, 0))


def test_muirhead_chain_refuses_a_step_without_surplus(monkeypatch):
    # (3, 3, 0, 0) does not majorize (4, 1, 1, 0); with the entry check forced
    # to pass, the first transfer lacks its surplus and the chain refuses it
    monkeypatch.setattr(hypergraph, "majorizes", lambda a, b: True)
    with pytest.raises(AssertionError, match="lacks a surplus of two"):
        muirhead_chain((3, 3, 0, 0), (4, 1, 1, 0))


def test_muirhead_chain_reaches_target_with_strict_progress():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 7)
        b = sorted((rng.randint(0, 6) for _ in range(n)), reverse=True)
        a = list(b)
        # walk upward in majorization order by random reverse transfers
        for _ in range(rng.randint(0, 6)):
            i = rng.randrange(n)
            j = rng.randrange(n)
            lo, hi = min(i, j), max(i, j)
            if lo != hi:
                a[lo] += 1
                a[hi] -= 1
                if a[hi] < 0 or not majorizes(a, b):
                    a[lo] -= 1
                    a[hi] += 1
        a = sorted(a, reverse=True)
        assert majorizes(a, b)
        cur = tuple(a)
        for src, tgt in muirhead_chain(a, b):
            # each step moves one unit from a surplus of at least two
            assert cur[src - 1] >= cur[tgt - 1] + 2
            nxt = list(cur)
            nxt[src - 1] -= 1
            nxt[tgt - 1] += 1
            nxt = tuple(nxt)
            # each step strictly descends in the majorization order
            assert majorizes(cur, nxt) and sorted(cur) != sorted(nxt)
            assert majorizes(nxt, b)
            cur = nxt
        assert sorted(cur) == sorted(b)


def test_reverse_saturate_frozen_example():
    g = RGraph(4, 2, frozenset({(1, 2), (3, 4)}))
    saturated, order = reverse_saturate(g)
    assert saturated.edges == frozenset({(1, 2), (1, 4)})
    assert degree_sequence(saturated) == (2, 1, 0, 1)
    assert order == (1, 2, 4, 3)
    relabeled = relabel_rgraph(saturated, order)
    assert relabeled.edges == frozenset({(1, 2), (1, 3)})
    assert is_r_ideal(relabeled)


def test_reverse_saturate_climbs_to_an_ideal():
    rng = random.Random(32)
    cases = [(4, 2), (5, 2), (4, 3), (5, 3), (6, 2)]
    for n, r in cases:
        universe = r_subsets(n, r)
        for _ in range(40):
            size = rng.randint(0, len(universe))
            edges = frozenset(rng.sample(universe, size))
            g = RGraph(n, r, edges)
            saturated, order = reverse_saturate(g)
            # edge moves only shift degree from low to high vertices, so
            # the result keeps the edge count and majorizes the original
            assert len(saturated.edges) == len(g.edges)
            assert majorizes(
                sort_decreasing(degree_sequence(saturated)),
                sort_decreasing(degree_sequence(g)),
            )
            assert is_r_ideal(relabel_rgraph(saturated, order))


def test_relabel_rgraph():
    g = RGraph(3, 2, frozenset({(1, 3)}))
    assert relabel_rgraph(g, (3, 1, 2)).edges == frozenset({(1, 2)})
    with pytest.raises(ValueError):
        relabel_rgraph(g, (1, 1, 2))


def test_is_r_graphical_partition_frozen_cases():
    assert is_r_graphical_partition((2, 2, 1, 1), 4, 3)
    assert not is_r_graphical_partition((3, 1, 1, 1), 4, 3)
    assert is_r_graphical_partition((3, 3, 3, 3), 4, 3)
    assert is_r_graphical_partition((1, 1, 1), 3, 3)
    assert not is_r_graphical_partition((1, 1, 0), 3, 3)  # total not divisible by r
    assert is_r_graphical_partition((0, 0, 0), 3, 3)
    with pytest.raises(ValueError):
        is_r_graphical_partition((1, 2, 1), 3, 2)  # not a partition
    with pytest.raises(ValueError):
        is_r_graphical_partition((1, 1), 3, 2)  # wrong length


def test_recognition_agrees_with_brute_force():
    for n, r, max_total in ((4, 2, 8), (4, 3, 9), (5, 3, 10)):
        for d in bounded_partitions(n, max_total):
            assert is_r_graphical_partition(d, n, r) == brute_force_r_graphical(
                d, n, r
            )


def test_r2_recognition_matches_graph_membership():
    for n in (4, 5):
        for d in bounded_partitions(n, 2 * comb(n, 2)):
            assert is_r_graphical_partition(d, n, 2) == is_degree_sequence(d)


def test_realize_r_graph_frozen_cases():
    g = realize_r_graph((2, 2, 1, 1), 4, 3)
    assert g is not None
    assert g.edges == frozenset({(1, 2, 3), (1, 2, 4)})
    assert realize_r_graph((3, 1, 1, 1), 4, 3) is None
    g3 = realize_r_graph((1, 1, 1), 3, 3)
    assert g3 is not None and g3.edges == frozenset({(1, 2, 3)})
    assert realize_r_graph((0, 0, 0, 0), 4, 3) is not None
    # each transfer swaps at the lexicographically first (r-1)-set X
    assert realize_r_graph((2, 2, 2, 2), 4, 2).edges == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})
    assert realize_r_graph((2, 2, 1, 1), 4, 2).edges == frozenset({(1, 2), (1, 4), (2, 3)})
    # the walk starts from the lexicographically least majorizing ideal partition,
    # (3, 2, 2, 2, 0) here rather than (3, 3, 1, 1, 1)
    assert realize_r_graph((2, 2, 2, 2, 1), 5, 3).edges == frozenset({(1, 2, 4), (1, 3, 4), (2, 3, 5)})


def test_realize_r_graph_matches_recognition():
    for n, r, max_total in ((4, 2, 8), (4, 3, 8), (5, 3, 9)):
        for d in bounded_partitions(n, max_total):
            g = realize_r_graph(d, n, r)
            if is_r_graphical_partition(d, n, r):
                assert g is not None
                assert sort_decreasing(degree_sequence(g)) == d
            else:
                assert g is None


def test_brute_force_r_graphical_frozen_cases():
    assert brute_force_r_graphical((3, 3, 3, 3), 4, 3)
    assert not brute_force_r_graphical((3, 1, 1, 1), 4, 3)
    assert brute_force_r_graphical((0, 0, 0), 3, 2)
    # C(7, 3) = 35 edges pass the cap of the walk, so it refuses before any work
    with pytest.raises(ValueError, match=r"C\(n, r\) <= 21, got 35"):
        brute_force_r_graphical((3,) * 7, 7, 3)


def _degree_partitions_by_scan(n, r):
    edges = list(combinations(range(1, n + 1), r))
    return frozenset(
        sort_decreasing(sum(v in e for e in pick) for v in range(1, n + 1))
        for m in range(len(edges) + 1)
        for pick in combinations(edges, m)
    )


def test_walk_matches_a_scan_of_every_edge_set():
    cases = [(n, r) for n in range(1, 11) for r in range(1, n + 2) if comb(n, r) <= 10]
    assert (5, 3) in cases and (10, 1) in cases and (4, 5) in cases
    for n, r in cases:
        assert enumerate_degree_partitions(n, r) == _degree_partitions_by_scan(n, r), (n, r)


def test_walk_with_r_above_n_has_only_the_empty_graph():
    for n in (1, 3, 6):
        assert enumerate_degree_partitions(n, n + 1) == {(0,) * n}
        assert enumerate_degree_partitions(n, n + 4) == {(0,) * n}


def test_walk_refuses_more_than_21_edges_before_any_work(monkeypatch):
    def no_work(n, r):
        raise AssertionError("the walk listed edges before checking its cap")

    monkeypatch.setattr(hypergraph, "r_subsets", no_work)
    for n, r, edges in ((8, 2, 28), (7, 3, 35)):
        with pytest.raises(ValueError, match=rf"C\(n, r\) <= 21, got {edges}"):
            enumerate_degree_partitions(n, r)


def test_format_hypergraph():
    # one sorted edge per line; graphs are the r = 2 case of the same format
    assert format_hypergraph([(1, 2, 4), (1, 2, 3)]) == "1 2 3\n1 2 4"
    assert format_hypergraph([(2, 3), (1, 2), (1, 3)]) == "1 2\n1 3\n2 3"
    assert format_hypergraph([]) == ""


def test_realization_check_raises_under_python_O():
    # with the chain stubbed out the final degree check must fire, and with
    # majorization stubbed to pass, the chain's own surplus check; neither
    # may be an assert that -O strips
    script = (
        "import sys\n"
        "from degpoly import hypergraph\n"
        "chain = hypergraph.muirhead_chain\n"
        "hypergraph.muirhead_chain = lambda a, b: ()\n"
        "hypergraph.majorizes = lambda a, b: True\n"
        "calls = (\n"
        "    lambda: hypergraph.realize_r_graph((1, 1, 1, 1), 4, 2),\n"
        "    lambda: chain((3, 3, 0, 0), (4, 1, 1, 0)),\n"
        ")\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError as exc:\n"
        "        print('raised', sys.flags.optimize, 'surplus' in str(exc))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["raised", "1", "False", "raised", "1", "True"]
