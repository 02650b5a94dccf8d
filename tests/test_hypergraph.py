"""r-graph degree sequences: recognition, chains, and realization."""

import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degpoly import hypergraph
from degpoly.core import bounded_partitions, majorizes, sort_decreasing
from degpoly.hypergraph import (
    RGraph,
    brute_force_r_graphical,
    degree_sequence,
    enumerate_degree_partitions,
    enumerate_r_ideals,
    havel_hakimi,
    is_r_graphical_partition,
    is_r_ideal,
    muirhead_chain,
    r_subsets,
    realize_r_graph,
    subset_lower_covers,
)
from degpoly.polytope import is_degree_sequence
from degpoly.threshold import enumerate_threshold_partitions, ideal_from_partition
from python_o import run_under_python_O


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
    assert [ideal.edges for ideal in enumerate_r_ideals(1, 2)] == [frozenset()]
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
            tuple(sort_decreasing(degree_sequence(RGraph(n, 2, e.edges)))) for e in ideals
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
        assert {ideal.edges for ideal in enumerate_r_ideals(n, r)} == expected


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


def test_r2_recognition_matches_graph_membership():
    for n in (4, 5):
        for d in bounded_partitions(n, 2 * comb(n, 2)):
            assert is_r_graphical_partition(d, n, 2) == is_degree_sequence(d)


# every (n, r) with C(n, r) <= 20 up to n = 7; past that only r = 1, n - 1 and n qualify,
# and the r = n - 1 rows alone hold C(2n - 1, n) partitions
_COMPLEMENT_CASES = [(n, r) for n in range(1, 8) for r in range(1, n + 1) if comb(n, r) <= 20]


def test_recognition_agrees_with_brute_force():
    # both routes against the walk on every partition with entries up to C(n - 1, r - 1),
    # the most edges a vertex lies on, in every shape the routes accept
    checked = graphical = 0
    for n, r in _COMPLEMENT_CASES:
        cap = comb(n - 1, r - 1)
        walk = enumerate_degree_partitions(n, r)
        for d in bounded_partitions(n, n * cap, max_entry=cap):
            truth = d in walk
            assert is_r_graphical_partition(d, n, r) == truth, (n, r, d)
            witness = realize_r_graph(d, n, r)
            assert (witness is not None) == truth, (n, r, d)
            assert witness is None or degree_sequence(witness) == d, (n, r, d)
            checked += 1
            graphical += truth
        # past the cap a vertex lies on more edges than there are
        over = (cap + 1,) * r + (0,) * (n - r)
        assert over not in walk and not is_r_graphical_partition(over, n, r) and realize_r_graph(over, n, r) is None
    assert (len(_COMPLEMENT_CASES), checked, graphical) == (24, 19_518, 723)


def _complements(d, n, r):
    """(edge complement, set complement or None) of ``d``, the latter only where r divides the total and r < n.

    Complementing the edge set takes degrees d to C(n - 1, r - 1) - d; complementing
    each of the m = sum(d)/r edges within [n] takes r to n - r and d to m - d.
    """
    edge = sort_decreasing(comb(n - 1, r - 1) - v for v in d)
    total, rem = divmod(sum(d), r)
    return edge, (sort_decreasing(total - v for v in d) if rem == 0 and r < n else None)


def test_complementation_preserves_r_graph_recognition():
    # both complements are bijections on r-graphs, so both must keep every verdict
    checked = set_checked = 0
    for n, r in _COMPLEMENT_CASES:
        cap = comb(n - 1, r - 1)
        for d in bounded_partitions(n, n * cap, max_entry=cap):
            verdict = is_r_graphical_partition(d, n, r)
            edge, sets = _complements(d, n, r)
            assert is_r_graphical_partition(edge, n, r) == verdict, (n, r, d)
            checked += 1
            if sets is None:
                continue
            if sets[-1] < 0:
                # a vertex on more than all m edges
                assert not verdict, (n, r, d)
            else:
                assert is_r_graphical_partition(sets, n, n - r) == verdict, (n, r, d)
            set_checked += 1
    assert (checked, set_checked) == (19_518, 5_641)


def test_complementation_maps_the_walks_truth_sets():
    # the same relations on the brute-force walk, which shares no code with recognition
    for n, r in _COMPLEMENT_CASES:
        cap = comb(n - 1, r - 1)
        truth = enumerate_degree_partitions(n, r)
        dual = enumerate_degree_partitions(n, n - r) if r < n else None
        for d in bounded_partitions(n, n * cap, max_entry=cap):
            edge, sets = _complements(d, n, r)
            assert (edge in truth) == (d in truth), (n, r, d)
            if sets is not None:
                assert (sets in dual) == (d in truth), (n, r, d)


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


def test_realization_keeps_the_input_vertex_order():
    # shuffled degree sequences of random r-graphs, and the same sequences with one unit
    # moved, which some r-graph may or may not have: the witness carries the input's labels
    rng = random.Random(19)
    verdicts = set()
    for n in range(1, 7):
        for r in range(1, n + 2):
            if comb(n, r) > 20:
                continue
            for _ in range(20):
                g = RGraph(n, r, frozenset(e for e in r_subsets(n, r) if rng.random() < 0.5))
                d = list(degree_sequence(g))
                rng.shuffle(d)
                i, j = rng.randrange(n), rng.randrange(n)
                moved = list(d)
                moved[i] += 1
                moved[j] -= 1
                for seq in (d, moved) if min(moved) >= 0 else (d,):
                    witness = realize_r_graph(seq, n, r)
                    graphical = is_r_graphical_partition(sort_decreasing(seq), n, r)
                    assert (witness is not None) == graphical, (n, r, seq)
                    assert witness is None or degree_sequence(witness) == tuple(seq), (n, r, seq)
                    verdicts.add(graphical)
    assert verdicts == {True, False}


def test_realization_refuses_entries_it_cannot_sort_with_value_error():
    for d in ((1, "a"), (None, 1), (1.5, 1)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            realize_r_graph(d, 2, 1)


def test_realization_at_r_equal_n_holds_no_table_of_contexts():
    # the one edge has 1,500 labels; a table of every (r-1)-subset would hold 1,500 * 1,499 labels
    tracemalloc.start()
    try:
        g = realize_r_graph((1,) * 1500, 1500, 1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g is not None and g.edges == frozenset({tuple(range(1, 1501))})
    assert peak <= 4 * 2**20, f"peak {peak} bytes"


def test_realize_r_graph_matches_recognition():
    for n, r, max_total in ((4, 2, 8), (4, 3, 8), (5, 3, 9)):
        for d in bounded_partitions(n, max_total):
            g = realize_r_graph(d, n, r)
            if is_r_graphical_partition(d, n, r):
                assert g is not None
                assert sort_decreasing(degree_sequence(g)) == d
            else:
                assert g is None


def test_havel_hakimi_frozen_cases():
    # the largest remaining degree joins the next largest ones, ties by label, in the input's labels
    assert havel_hakimi((1, 3, 2, 2)).edges == frozenset({(1, 2), (2, 3), (2, 4), (3, 4)})
    assert havel_hakimi((3, 3, 1, 1)) is None  # after 1 joins 2, 3 and 4, vertex 2 needs two more
    assert havel_hakimi((1, 1, 1)) is None  # odd total
    assert havel_hakimi((2,)) is None
    assert havel_hakimi((0,)).edges == frozenset()
    for bad in ((), (2, -1, 1)):
        with pytest.raises(ValueError):
            havel_hakimi(bad)


def test_havel_hakimi_against_the_walk_and_realization():
    # every partition with entries up to n - 1: the walk decides each one for n <= 7,
    # and realization, which needs C(n, 2) <= 20, for n <= 6
    checked = graphical = 0
    for n in range(1, 8):
        walk = enumerate_degree_partitions(n, 2)
        for d in bounded_partitions(n, n * (n - 1), max_entry=n - 1):
            witness = havel_hakimi(d)
            assert (witness is not None) == (d in walk), d
            if n <= 6:
                assert (witness is not None) == (realize_r_graph(d, n, 2) is not None), d
            assert witness is None or degree_sequence(witness) == d, d
            checked += 1
            graphical += witness is not None
    assert (checked, graphical) == (2_353, 493)


@given(st.data())
def test_havel_hakimi_witnesses_every_labelled_graph(data):
    # the degrees of a random graph, in shuffled labels, have a witness in those labels;
    # raising one entry by 2 keeps the total even, and the verdict must stay graph membership
    n = data.draw(st.integers(1, 30))
    percent = data.draw(st.integers(0, 100))
    rnd = data.draw(st.randoms(use_true_random=False))
    edges = frozenset(e for e in combinations(range(1, n + 1), 2) if rnd.randrange(100) < percent)
    d = data.draw(st.permutations(degree_sequence(RGraph(n, 2, edges))))
    witness = havel_hakimi(d)
    assert witness is not None and degree_sequence(witness) == tuple(d)
    i = data.draw(st.integers(0, n - 1))
    raised = d[:i] + [d[i] + 2] + d[i + 1 :]
    witness = havel_hakimi(raised)
    assert (witness is not None) == is_degree_sequence(raised)
    assert witness is None or degree_sequence(witness) == tuple(raised)


def _rebuilds_the_same(graph: RGraph) -> None:
    # a route's own graph skips validation, so the public constructor must make it again unchanged
    assert type(graph.edges) is frozenset and all(type(e) is tuple for e in graph.edges)
    assert RGraph(graph.n, graph.r, graph.edges).edges == graph.edges


def test_every_small_ideal_rebuilds_the_same():
    cases = [(n, r) for n in range(1, 21) for r in range(1, n + 2) if comb(n, r) <= hypergraph.POSET_SIZE_BOUND]
    ideals = [ideal for n, r in cases for ideal in enumerate_r_ideals(n, r)]
    for ideal in ideals:
        _rebuilds_the_same(ideal)
    assert (len(cases), len(ideals)) == (83, 683)


@given(st.data())
def test_witnesses_rebuild_the_same(data):
    # the degrees of a random r-graph in shuffled labels have a witness; with one entry raised by 2 they may not
    n = data.draw(st.integers(1, 12))
    r = data.draw(st.integers(1, n + 1)) if n <= 6 else 2
    rnd = data.draw(st.randoms(use_true_random=False))
    d = data.draw(st.permutations(degree_sequence(RGraph(n, r, [e for e in r_subsets(n, r) if rnd.random() < 0.5]))))
    i = data.draw(st.integers(0, n - 1))
    for seq in (d, d[:i] + [d[i] + 2] + d[i + 1 :]):
        witnesses = [realize_r_graph(seq, n, r) if n <= 6 else None, havel_hakimi(seq) if r == 2 else None]
        if seq is d:
            assert any(witnesses)
        for graph in filter(None, witnesses):
            _rebuilds_the_same(graph)
            assert degree_sequence(graph) == tuple(seq)


def test_trusted_graphs_rebuild_the_same_under_python_O():
    # the trusted constructor checks nothing, so no assert that -O strips may be what keeps its graphs right
    script = (
        "import random\n"
        "from math import comb\n"
        "from degpoly.hypergraph import RGraph, enumerate_r_ideals, havel_hakimi, realize_r_graph\n"
        "from degpoly.hypergraph import degree_sequence, r_subsets\n"
        "rng = random.Random(1)\n"
        "built = {'ideals': [g for n in range(1, 21) for r in range(1, n + 2) if comb(n, r) <= 20 for g in enumerate_r_ideals(n, r)]}\n"
        "for n in [*range(1, 13)] * 5:\n"
        "    for r in (2, 3):\n"
        "        d = list(degree_sequence(RGraph(n, r, [e for e in r_subsets(n, r) if rng.random() < 0.5])))\n"
        "        rng.shuffle(d)\n"
        "        for seq in (d, [d[0] + 2, *d[1:]]):\n"
        "            built.setdefault('havel_hakimi', []).append(havel_hakimi(seq) if r == 2 else None)\n"
        "            built.setdefault('realize_r_graph', []).append(realize_r_graph(seq, n, r) if n <= 6 else None)\n"
        "for route, graphs in built.items():\n"
        "    graphs = [g for g in graphs if g is not None]\n"
        "    print(route, len(graphs), sum(RGraph(g.n, g.r, g.edges).edges != g.edges for g in graphs))\n"
    )
    assert run_under_python_O(script).splitlines() == ["ideals 683 0", "havel_hakimi 95 0", "realize_r_graph 68 0"]


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


def _majorizing_ideal_by_scan(vec, n, r):
    """The lexicographically least majorizing ideal partition of vec's total, scanning every ideal per call."""
    total = sum(vec)
    picks = {}
    for ideal in enumerate_r_ideals(n, r):
        if len(ideal.edges) * r == total:
            picks.setdefault(degree_sequence(ideal), ideal)
    return next(((part, ideal) for part, ideal in sorted(picks.items()) if majorizes(part, vec)), None)


def test_majorizing_ideal_matches_a_scan_of_every_ideal():
    # the per-(n, r) table and its prefix-sum comparison must give the pair that the per-call
    # scan gives, and that core.majorizes picks from the same table, None included, on every
    # partition with entries up to one past C(n - 1, r - 1), whatever its total
    cases = [(n, r) for n in range(1, 7) for r in range(1, n + 2) if comb(n, r) <= 20]
    checked = found = 0
    for n, r in cases:
        table = hypergraph._ideal_partitions(n, r)
        for d in bounded_partitions(n, r * comb(n, r), max_entry=comb(n - 1, r - 1) + 1):
            pick = hypergraph._majorizing_ideal(d, n, r)
            assert pick == _majorizing_ideal_by_scan(d, n, r), (n, r, d)
            assert pick == next(((p, ideal) for p, ideal in table.get(sum(d), ()) if majorizes(p, d)), None)
            checked += 1
            found += pick is not None
    assert (len(cases), checked, found) == (27, 28_028, 711)


def test_ideal_table_refuses_increasing_degrees_under_python_O():
    script = (
        "import sys\n"
        "from degpoly import hypergraph\n"
        "hypergraph.degree_sequence = lambda ideal: (0, 1)\n"
        "try:\n"
        "    hypergraph.is_r_graphical_partition((1, 1), 2, 2)\n"
        "except AssertionError as exc:\n"
        "    print('raised', sys.flags.optimize, 'weakly decrease' in str(exc))\n"
    )
    assert run_under_python_O(script).split() == ["raised", "1", "True"]


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
    assert run_under_python_O(script).split() == ["raised", "1", "False", "raised", "1", "True"]
