"""Membership, facets, edges, lattice points, and volume."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, product, takewhile
from operator import lt, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpoly import polytope
from degpoly.cli import DEFAULT_SEED
from degpoly.core import (
    bounded_partitions,
    is_int_vector,
    is_weakly_decreasing,
    sort_decreasing,
)
from degpoly.polytope import (
    FacetInequality,
    FhmMembership,
    affine_rank,
    are_adjacent,
    count_edges,
    dominating_sum_identity,
    dp3_volume,
    ds3_volume_estimate,
    enumerate_degree_partitions,
    facet_inequalities,
    facet_rank_adjacent,
    fhm_inequality,
    fhm_violations,
    in_fhm_polytope,
    irredundancy_witness,
    is_degree_sequence,
    koren_oracle,
    monotone_inequality,
)
from degpoly.threshold import _creation_word, enumerate_threshold_partitions, is_threshold_partition
from python_o import run_under_python_O
from rational_data import random_rational_vector

F = Fraction


def test_monotone_inequality():
    ineq = monotone_inequality(4, 2)
    assert ineq.kind == "monotone"
    assert ineq.coefficients == (0, -1, 1, 0)
    assert ineq.rhs == 0
    assert ineq.satisfied((3, 2, 2, 1))
    assert ineq.tight((3, 2, 2, 1))
    assert not ineq.satisfied((3, 1, 2, 1))


def test_fhm_inequality():
    ineq = fhm_inequality(4, 1, 1)
    assert ineq.coefficients == (1, 0, 0, -1)
    assert ineq.rhs == 1 * (4 - 1 - 1)
    assert ineq.satisfied((3, 2, 2, 1))
    assert ineq.tight((3, 2, 2, 1))


def test_in_fhm_polytope_frozen_cases():
    assert in_fhm_polytope((3, 2, 2, 1)).member
    verdict = in_fhm_polytope((2, 1, 0))
    assert not verdict.member
    # (1, 1) and (2, 1) both exceed their bound by 1; the smaller pair wins
    assert verdict.violations == (fhm_inequality(3, 1, 1),)
    assert in_fhm_polytope((F(3, 2), F(1), F(1, 2))).member
    unsorted = in_fhm_polytope((1, 2, 0))
    assert not unsorted.member
    assert unsorted.violations == (monotone_inequality(3, 1),)


def test_in_fhm_polytope_vertices_and_rejects():
    for n in range(1, 8):
        for d in enumerate_threshold_partitions(n):
            assert in_fhm_polytope(d).member
    # scaling any nonzero vertex out of range breaks membership
    assert not in_fhm_polytope((4, 4, 4, 4)).member


def test_facets_only_membership_agrees():
    # the irredundant facet list alone decides membership (n >= 4)
    def facets_only(x):
        return all(f.satisfied(x) for f in facet_inequalities(len(x)))

    for n in (4, 5):
        for d in bounded_partitions(n, n * (n - 1), max_entry=n - 1):
            assert facets_only(d) == in_fhm_polytope(d).member
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(4, 7)
        x = tuple(sorted(random_rational_vector(rng, n), reverse=True))
        assert facets_only(x) == in_fhm_polytope(x).member


def _palette_vectors(values):
    """Vectors of length <= 12 over a palette of at most 4 values, so ties are common."""
    return st.lists(values, min_size=1, max_size=4, unique=True).flatmap(
        lambda palette: st.lists(st.sampled_from(palette), min_size=1, max_size=12)
    )


exact_vectors = _palette_vectors(st.integers(min_value=-2, max_value=13)) | _palette_vectors(
    st.fractions(min_value=-2, max_value=13, max_denominator=3)
)


def _excess(f, x):
    return f.value(x) - f.rhs


def _check_sweep_against_scan(x):
    """The verdict, and the witness with its excess and (k, l) tie rule, against the scan."""
    verdict = in_fhm_polytope(x)
    scan = fhm_violations(x)
    assert verdict.member == (not scan)
    if not is_weakly_decreasing(x):
        assert verdict.violations == (next(f for f in scan if f.kind == "monotone"),)
    elif scan:
        (witness,) = verdict.violations
        assert witness.kind == "fhm" and not witness.satisfied(x)
        most = max(_excess(f, x) for f in scan)
        assert _excess(witness, x) == most
        assert (witness.k, witness.l) == min((f.k, f.l) for f in scan if _excess(f, x) == most)


@settings(max_examples=300)
@given(exact_vectors)
def test_sweep_matches_scan_on_decreasing_vectors(values):
    _check_sweep_against_scan(sort_decreasing(values))


@settings(max_examples=300)
@given(exact_vectors)
def test_sweep_matches_scan_on_unsorted_vectors(x):
    _check_sweep_against_scan(x)


@st.composite
def _stopping_vectors(draw, where):
    """(vec, scale, k0): tie-heavy decreasing integers whose first k >= 1 with vec_k <= (k - 1) scale is k0.

    ``where`` puts k0 at 1, inside the vector (2 <= k0 <= n) or past
    its end (n + 1: the sweep never stops early).  The first k0 - 1
    entries share one value above (k0 - 2) scale; the rest come from a
    palette of at most three values at most (k0 - 1) scale.
    """
    n = draw(st.integers(min_value=2 if where == "mid" else 1, max_value=12))
    scale = draw(st.integers(min_value=1, max_value=4))
    k0 = draw(st.integers(min_value=2, max_value=n)) if where == "mid" else {"k=1": 1, "never": n + 1}[where]
    head = draw(st.integers(min_value=(k0 - 2) * scale + 1, max_value=(k0 - 2) * scale + 3)) if k0 > 1 else 0
    top = min(head, (k0 - 1) * scale) if k0 > 1 else 0
    palette = draw(st.lists(st.integers(min_value=top - 2 * scale, max_value=top), min_size=1, max_size=3))
    tail = draw(st.lists(st.sampled_from(palette), min_size=n - k0 + 1, max_size=n - k0 + 1))
    return (head,) * (k0 - 1) + tuple(sorted(tail, reverse=True)), scale, k0


@pytest.mark.parametrize("where", ["k=1", "mid", "never"])
@settings(max_examples=200)
@given(data=st.data())
def test_sweep_stopped_early_matches_scan(where, data):
    # past the first k >= 1 with x_k <= k - 1 no excess is higher: the witness and its tie rule hold
    vec, scale, k0 = data.draw(_stopping_vectors(where))
    n = len(vec)
    assert next((k for k in range(1, n + 1) if vec[k - 1] <= (k - 1) * scale), n + 1) == k0
    x = tuple(F(v, scale) for v in vec)
    # the sweep over vec / scale names the row that in_fhm_polytope builds for x
    witness = polytope._fhm_witness(vec, scale)
    assert [(f.k, f.l) for f in in_fhm_polytope(x).violations] == ([] if witness is None else [witness])
    _check_sweep_against_scan(x)


def _complement(x):
    """phi(x) = (n - 1) - reverse(x): the degrees of the complement graph, relabelled to decrease."""
    return tuple(len(x) - 1 - v for v in reversed(x))


def _degree_like(n):
    """Length-n vectors over a palette of at most 3 values in [0, n - 1], so both verdicts are common."""
    value = st.integers(0, n - 1) | st.fractions(0, n - 1, max_denominator=3)
    return st.lists(value, min_size=1, max_size=3, unique=True).flatmap(
        lambda palette: st.lists(st.sampled_from(palette), min_size=n, max_size=n)
    )


@settings(max_examples=300)
@given(st.integers(1, 10).flatmap(_degree_like), st.booleans())
def test_membership_is_invariant_under_complementation(x, in_order):
    if in_order:
        x = sort_decreasing(x)
    assert in_fhm_polytope(x).member == in_fhm_polytope(_complement(x)).member


def _image(n, f):
    """The constraint phi maps f to: prefix-suffix (k, l) to (l, k), monotone i to n - i."""
    return fhm_inequality(n, f.l, f.k) if f.kind == "fhm" else monotone_inequality(n, n - f.i)


@settings(max_examples=300)
@given(st.integers(1, 10).flatmap(_degree_like), st.booleans())
def test_membership_witness_maps_under_complementation(x, in_order):
    # the image of x's witness is violated at phi(x) by the same excess; for a
    # prefix-suffix witness that excess is also the excess of phi(x)'s own witness,
    # the largest one.  On ties each side reports its own smallest pair, so the
    # excesses are compared, not the pairs
    if in_order:
        x = sort_decreasing(x)
    n, image = len(x), _complement(x)
    verdict = in_fhm_polytope(x)
    if verdict.member:
        return
    (witness,) = verdict.violations
    excess = _excess(witness, x)
    assert excess > 0
    assert _excess(_image(n, witness), image) == excess
    if witness.kind == "fhm":
        (own,) = in_fhm_polytope(image).violations
        assert own.kind == "fhm" and _excess(own, image) == excess


@pytest.mark.parametrize("n", range(4, 12))
def test_facet_list_is_closed_under_complementation(n):
    # phi maps prefix-suffix inequality (k, l) to (l, k) and monotone i to n - i
    facets = set(facet_inequalities(n))
    for f in facets:
        assert _image(n, f) in facets


_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, int(p**0.5) + 1)))
# dyadic like the volume3 samples (k / 2^30), and primes, so common denominators get large
_large_denominators = (
    st.just(1 << 30) | st.integers(min_value=0, max_value=30).map(lambda e: 1 << e) | st.sampled_from(_PRIMES)
)


def _large_denominator_vectors(n):
    """Length-n vectors over a palette of at most 4 values in [-1, n], each with its own denominator."""
    value = _large_denominators.flatmap(lambda q: st.integers(-q, n * q).map(lambda p: F(p, q)))
    return st.lists(value, min_size=1, max_size=4, unique=True).flatmap(
        lambda palette: st.lists(st.sampled_from(palette), min_size=n, max_size=n)
    )


@settings(max_examples=400)
@given(st.integers(min_value=1, max_value=12).flatmap(_large_denominator_vectors))
def test_sweep_matches_scan_with_large_mixed_denominators(x):
    _check_sweep_against_scan(x)
    _check_sweep_against_scan(sort_decreasing(x))


def _scaled_numerators(n, scale):
    """Length-n numerators over ``scale``: uniform in [-D, nD], or D times a vertex nudged by -1, 0 or +1."""
    uniform = st.lists(st.integers(-scale, n * scale), min_size=n, max_size=n)
    near_vertex = st.tuples(
        st.sampled_from(enumerate_threshold_partitions(n)),
        st.lists(st.sampled_from((-1, 0, 0, 1)), min_size=n, max_size=n),
    ).map(lambda pair: [scale * d + e for d, e in zip(*pair)])
    return uniform | near_vertex


@settings(max_examples=300)
@given(st.data())
def test_the_sweep_over_a_scale_decides_the_quotient(data):
    # the volume3 cross-check hands the sweep its samples as numerators over 2^30;
    # the membership of the Fractions themselves is the oracle, row for row
    n, scale = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 60))
    numerators = data.draw(_scaled_numerators(n, scale))
    if data.draw(st.booleans()):
        numerators.sort(reverse=True)
    witness = polytope._fhm_witness(numerators, scale)
    x = [F(c, scale) for c in numerators]
    oracle = in_fhm_polytope(x)
    assert (witness is None) == oracle.member == (not fhm_violations(x))
    assert [(f.k, f.l) if f.i is None else (f.i,) for f in oracle.violations] == ([] if witness is None else [witness])


@pytest.mark.parametrize("x", [(1, 2, 1), (F(1, 2), 2, F(3, 2)), (F(7, 3), F(1, 6)), (0, 2, 1)], ids=str)
def test_membership_clears_its_input_once(monkeypatch, x):
    # in_fhm_polytope clears x once and hands the sweep the integers and their denominator
    calls, swept = [], []
    real_clear, real_sweep = polytope.clear_denominators, polytope._fhm_witness
    monkeypatch.setattr(polytope, "clear_denominators", lambda *a: calls.append(a) or real_clear(*a))
    monkeypatch.setattr(polytope, "_fhm_witness", lambda vec, scale: swept.append((vec, scale)) or real_sweep(vec, scale))
    in_fhm_polytope(x)
    assert len(calls) == 1
    assert swept == [real_clear(x)]


@settings(max_examples=300)
@given(st.data())
def test_unordered_membership_near_vertices_matches_the_enumeration(data):
    # DS(n) is the symmetrization of DP(n): x is a member when its decreasing rearrangement
    # is; the 3^n enumeration of disjoint S, T is the oracle
    n, scale = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 60))
    numerators = data.draw(_scaled_numerators(n, scale).flatmap(st.permutations))
    x = [F(c, scale) for c in numerators]
    assert in_fhm_polytope(sort_decreasing(x)).member == koren_oracle(x)


@settings(max_examples=200)
@given(st.data())
def test_unordered_membership_of_mixed_denominators_matches_the_enumeration(data):
    # entries with their own denominators over one more; the sorted sweep clears them at once
    n, scale = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 12))
    numerators = data.draw(_scaled_numerators(n, scale).flatmap(st.permutations))
    denominators = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    nudges = data.draw(st.lists(st.sampled_from((-1, 0, 0, 1)), min_size=n, max_size=n))
    x = [F(c * q + e, q * scale) for c, q, e in zip(numerators, denominators, nudges)]
    assert in_fhm_polytope(sort_decreasing(x)).member == koren_oracle(x)


@pytest.mark.parametrize("x", [(1, 2, 1), (0, 2, 2), (2, 2, 1, 1), (1, 2, 3, 4), (0, 0, 1, 3)], ids=str)
def test_degree_test_builds_no_witness_row(monkeypatch, x):
    # the verdict is whether the one sweep names a row, so no row and no FhmMembership is built
    def refuse(*args):
        raise AssertionError("is_degree_sequence built a witness")

    for name in ("FhmMembership", "monotone_inequality", "fhm_inequality"):
        monkeypatch.setattr(polytope, name, refuse)
    calls = []
    real = polytope._fhm_witness
    monkeypatch.setattr(polytope, "_fhm_witness", lambda vec, scale: calls.append((vec, scale)) or real(vec, scale))
    assert is_degree_sequence(x) == koren_oracle(x)
    assert calls == [(sorted(x, reverse=True), 1)]


def _inequalities(n):
    """A monotone or prefix-suffix inequality on [n]."""
    monotone = st.integers(1, n - 1).map(lambda i: monotone_inequality(n, i)) if n > 1 else st.nothing()
    fhm = st.integers(0, n).flatmap(
        lambda k: st.integers(max(1 - k, 0), n - k).map(lambda l: fhm_inequality(n, k, l))
    )
    return monotone | fhm


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            _inequalities(n),
            st.lists(st.integers(-50, 50), min_size=n, max_size=n),
            st.lists(st.fractions(-50, 50, max_denominator=1 << 30), min_size=n, max_size=n),
        )
    )
)
def test_facet_value_is_int_on_ints_and_exact_on_fractions(case):
    f, ints, fractions = case
    for x in (ints, fractions):
        reference = sum((Fraction(c) * v for c, v in zip(f.coefficients, x)), Fraction(0))
        assert f.value(x) == reference
    assert type(f.value(ints)) is int
    assert type(f.value(fractions)) is Fraction


def _erdos_gallai(seq):
    d = sorted(seq, reverse=True)
    if sum(d) % 2:
        return False
    return all(
        sum(d[:k]) <= k * (k - 1) + sum(min(v, k) for v in d[k:])
        for k in range(1, len(d) + 1)
    )


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
    )
)
def test_is_degree_sequence_matches_erdos_gallai(seq):
    assert is_degree_sequence(seq) == _erdos_gallai(seq)


def test_is_degree_sequence_scales_to_20000_vertices():
    n = 20_000
    matching = (1,) * n
    assert is_degree_sequence(matching)
    assert in_fhm_polytope(matching).member
    star_too_big = (n,) + (1,) * (n - 1)
    assert not is_degree_sequence(star_too_big)
    verdict = in_fhm_polytope(star_too_big)
    assert not verdict.member
    (witness,) = verdict.violations
    assert not witness.satisfied(star_too_big)


def test_unsorted_input_gets_one_witness_at_20000_vertices():
    # every adjacent pair ascends; the witness is the first monotone constraint alone
    increasing = tuple(range(20_000))
    verdict = in_fhm_polytope(increasing)
    assert not verdict.member
    assert verdict.violations == (monotone_inequality(20_000, 1),)


def test_unordered_membership_frozen_cases():
    assert not in_fhm_polytope(sort_decreasing((0, 2, 1))).member
    assert in_fhm_polytope(sort_decreasing((1, 2, 1))).member
    assert in_fhm_polytope(sort_decreasing((2, 1, 1))).member
    assert not in_fhm_polytope(sort_decreasing((3, 0, 0))).member


def test_is_degree_sequence_is_sort_invariant():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randint(1, 8)
        x = [rng.randint(-1, n) for _ in range(n)]
        member = is_degree_sequence(x)
        assert member == is_degree_sequence(sort_decreasing(x))
        assert member == (sum(x) % 2 == 0 and in_fhm_polytope(sort_decreasing(x)).member)


def test_koren_oracle_agrees_with_unordered_membership():
    # the rational draws are all nonmembers, so shuffled threshold partitions, which are
    # members, and integer points of [0, n - 1]^n, which are often either, come with each;
    # on even-sum integer points is_degree_sequence is the unordered membership
    rng = random.Random(23)
    verdicts = set()
    for _ in range(150):
        n = rng.randint(1, 7)
        vertex = list(rng.choice(enumerate_threshold_partitions(n)))
        rng.shuffle(vertex)
        for x in (random_rational_vector(rng, n), vertex, [rng.randint(0, n - 1) for _ in range(n)]):
            member = koren_oracle(x)
            assert member == in_fhm_polytope(sort_decreasing(x)).member, x
            if is_int_vector(x) and sum(x) % 2 == 0:
                assert member == is_degree_sequence(x), x
            verdicts.add(member)
    assert verdicts == {False, True}
    with pytest.raises(ValueError):
        koren_oracle((1,) * 13)


@pytest.mark.parametrize(
    "refuse, args, match",
    [
        (monotone_inequality, (4, 0), "monotone index"),
        (fhm_inequality, (4, 0, 0), "1 <= k \\+ l"),
        # (1, 1) is a valid constraint at n = 4, but not a facet
        (irredundancy_witness, (4, fhm_inequality(4, 1, 1), []), "outside the facet list"),
    ],
    ids=["monotone-i0", "fhm-k0-l0", "witness-non-facet"],
)
def test_polytope_refuses_out_of_range_input(refuse, args, match):
    with pytest.raises(ValueError, match=match):
        refuse(*args)


def test_is_degree_sequence_frozen_cases():
    assert is_degree_sequence((2, 1, 1))
    assert not is_degree_sequence((2, 2, 1))  # odd sum
    assert not is_degree_sequence((3, 1, 0))  # outside the polytope
    assert is_degree_sequence((2, 2, 1, 1))
    assert not is_degree_sequence(())  # no vertices, no polytope
    assert is_degree_sequence((1, 2, 1))
    assert not is_degree_sequence((1, 1, 1))
    assert not is_degree_sequence((0, 3, 1))
    assert is_degree_sequence((F(1, 2), F(1, 2))) is False  # entries not ints


@pytest.mark.parametrize(
    "x",
    [(True, True), (2.0, 1.0, 1.0), (F(2), F(1), F(1)), ("2", "1", "1"), (2, 1, True)],
    ids=["bools", "floats", "fractions", "text", "one-bool"],
)
def test_is_degree_sequence_is_false_unless_every_entry_is_an_int(monkeypatch, x):
    # each x equals the degrees of a graph, (1, 1) or (2, 1, 1), entry for entry; the
    # degree test answers False before it sums or sorts, so it neither raises nor sweeps
    assert is_degree_sequence(tuple(map(int, x)))
    monkeypatch.setattr(polytope, "_fhm_witness", lambda vec, scale: pytest.fail("swept a vector of non-ints"))
    assert is_degree_sequence(x) is False


def test_threshold_partitions_are_degree_sequences():
    # brute check against all graphs on n <= 6 vertices is done via the
    # threshold enumeration elsewhere; here: every degree partition of an
    # actual graph passes, using graphs built from each threshold ideal
    for n in range(2, 7):
        for d in enumerate_threshold_partitions(n):
            assert is_degree_sequence(d)


def test_facet_inequalities_counts_and_shape():
    for n, expected in ((4, 8), (5, 11), (6, 15), (7, 20)):
        facets = facet_inequalities(n)
        assert len(facets) == expected == (n * n - 3 * n + 12) // 2
        assert len({f.coefficients for f in facets}) == expected
    with pytest.raises(ValueError):
        facet_inequalities(3)


def test_facet_inequalities_n4_exact_set():
    facets = facet_inequalities(4)
    monotone = {f.i for f in facets if f.kind == "monotone"}
    fhm = {(f.k, f.l) for f in facets if f.kind == "fhm"}
    assert monotone == {1, 2, 3}
    assert fhm == {(1, 0), (0, 1), (1, 3), (2, 2), (3, 1)}


def test_facets_valid_and_irredundant():
    # up to the facets suite's cap, every witness is held to satisfied() at every facet
    for n in range(4, 8):
        facets = facet_inequalities(n)
        vertices = enumerate_threshold_partitions(n)
        for f in facets:
            assert all(f.satisfied(d) for d in vertices)
            tight = [d for d in vertices if f.tight(d)]
            assert affine_rank(tight) >= n
            witness = irredundancy_witness(n, f, tight)
            assert not f.satisfied(witness)
            for other in facets:
                if other is not f:
                    assert other.satisfied(witness)


def test_irredundancy_witness_refuses_a_wrong_tight_set():
    f = facet_inequalities(4)[0]
    off_facet = next(d for d in enumerate_threshold_partitions(4) if not f.tight(d))
    with pytest.raises(ValueError, match="tight"):
        irredundancy_witness(4, f, [off_facet])
    with pytest.raises(AssertionError, match="tight at no vertex"):
        irredundancy_witness(4, f, [])


def test_are_adjacent_block_shapes():
    # difference (2, 2, 2): one block, v = L - 1
    assert are_adjacent((0, 0, 0), (2, 2, 2))
    # (1, 1, 1, 1): one block with neither v = L - 1 nor 2v = L
    assert not are_adjacent((2, 1, 1, 0), (3, 2, 2, 1))
    # (2, 0, 1, 1): two separated blocks, each value the other's length
    assert are_adjacent((1, 1, 0, 0), (3, 1, 1, 1))
    # (1, 1, 0, 1, 1): two separated blocks of length 2 and value 1
    assert not are_adjacent((3, 2, 2, 1, 0), (4, 3, 2, 2, 1))
    # (1, 1, 2): two touching blocks, p = 2 != q = 1
    assert are_adjacent((2, 2, 2), (1, 1, 0))
    # (3, 3, 2, 2): two touching blocks of length 2
    assert not are_adjacent((0, 0, 0, 0), (3, 3, 2, 2))
    # (2, 2, 2, 2): two touching blocks with p = q = 2 merge into one, 2v = L
    assert are_adjacent((1, 1, 0, 0), (3, 3, 2, 2))
    # (3, 2, 2, 1): three blocks
    assert not are_adjacent((0, 0, 0, 0), (3, 2, 2, 1))


def test_are_adjacent_frozen_cases():
    for d, e, adjacent in (
        ((3, 3, 3, 3), (3, 2, 2, 1), True),
        ((1, 1, 0, 0), (0, 0, 0, 0), True),
        ((3, 2, 2, 1), (1, 1, 0, 0), False),
    ):
        assert are_adjacent(d, e) == facet_rank_adjacent(d, e) == adjacent
    with pytest.raises(ValueError):
        facet_rank_adjacent((3, 3, 3, 3), (3, 2, 2))
    with pytest.raises(ValueError):
        are_adjacent((1, 1), (0, 0))  # n < 3
    with pytest.raises(ValueError):
        are_adjacent((2, 2, 2), (2, 2, 2))
    with pytest.raises(ValueError):
        are_adjacent((2, 2, 1, 1), (0, 0, 0, 0))


def _threshold_from_word(n, word):
    """The threshold partition whose vertex m isolates (bit m - 2 of ``word`` clear) or dominates (set)."""
    d = (0,)
    for m in range(2, n + 1):
        d = (m - 1, *(v + 1 for v in d)) if word >> (m - 2) & 1 else (*d, 0)
    return d


@given(st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 ** (n - 1) - 1))))
def test_creation_word_round_trips(case):
    n, word = case
    assert _creation_word(_threshold_from_word(n, word)) == word


def _threshold_from_word_linear(n, word):
    """:func:`_threshold_from_word` in O(n): read the bits once, then each vertex's degree.

    A dominating vertex m has degree m - 1 plus the dominating vertices
    added after it, any other vertex only the latter.  The dominating ones
    lead, latest first; vertex 1 follows, then the isolated ones in order.
    """
    bits = format(word, "b").zfill(n - 1)[::-1] if n > 1 else ""
    dominating = [bit == "1" for bit in bits]  # index m - 2 for vertex m
    later = [0] * (n + 1)  # later[m]: dominating vertices among m + 1, ..., n
    for m in range(n - 1, 0, -1):
        later[m] = later[m + 1] + dominating[m - 1]
    lead = [m - 1 + later[m] for m in range(n, 1, -1) if dominating[m - 2]]
    rest = [later[m] for m in range(2, n + 1) if not dominating[m - 2]]
    return (*lead, later[1], *rest)


def test_creation_word_round_trips_at_100000_vertices():
    # no time bound; at this size a peel that copies the word at every dominating step is quadratic
    assert [_threshold_from_word_linear(7, w) for w in range(64)] == [_threshold_from_word(7, w) for w in range(64)]
    n = 100_000
    word = random.Random(20).getrandbits(n - 1)
    assert _creation_word(_threshold_from_word_linear(n, word)) == word


def _one_block_near_misses(d):
    """Vertices d +- v on L consecutive positions with v != L - 1 and 2v != L: comparable, yet no edge."""
    n = len(d)
    padded = (n - 1, *d, 0)
    for length in range(1, n + 1):
        for v in range(1, n):
            if v == length - 1 or 2 * v == length:
                continue
            for s in range(n - length + 1):
                t = s + length
                # only a block with room above (below) it keeps d + (-) block a partition
                for sign, room in ((1, padded[s] - d[s]), (-1, d[t - 1] - padded[t + 1])):
                    if room >= v:
                        e = (*d[:s], *(x + sign * v for x in d[s:t]), *d[t:])
                        if is_threshold_partition(e):
                            yield e


def test_rank_oracle_matches_the_edge_rule_on_near_misses_at_n20():
    # evenly spaced creation words, no seed; 2^19 vertices are far too many to list
    n, m = 20, 48
    assert [_threshold_from_word(6, w) for w in range(32)] == list(enumerate_threshold_partitions(6))
    words = [i * (2 ** (n - 1) - 1) // (m - 1) for i in range(m)]
    vertices = [_threshold_from_word(n, w) for w in words]
    assert [_creation_word(v) for v in vertices] == words
    adjacent = [
        (d, e)
        for d in vertices[::8]
        for move in polytope._edge_moves(n)
        if is_threshold_partition(e := tuple(map(sub, d, move)))
    ]
    near_misses = [(d, e) for d in vertices for e in _one_block_near_misses(d)]
    incomparable = [(d, e) for d, e in combinations(vertices, 2) if min(map(sub, d, e)) < 0 < max(map(sub, d, e))]
    assert adjacent and len(near_misses) >= 10
    verdicts = {(d, e): are_adjacent(d, e) for d, e in adjacent + near_misses + incomparable[::10]}
    assert [pair for pair, rule in verdicts.items() if facet_rank_adjacent(*pair) != rule] == []
    assert all(verdicts[pair] for pair in adjacent)
    assert not any(verdicts[pair] for pair in near_misses)


def test_count_edges_formula_and_enumeration():
    counts = {n: count_edges(n) for n in range(3, 13)}
    assert [counts[n] for n in (3, 4, 5, 6)] == [6, 20, 56, 144]
    for n, count in counts.items():
        formula = 2 ** (n - 2) * (2 * n - 3)
        assert count == formula
        if n >= 4:
            assert formula == 2 * counts[n - 1] + 2 ** (n - 1)
    for n in (2, 13):
        with pytest.raises(ValueError):
            count_edges(n)


def test_count_edges_key_hits_dominate_their_moves():
    # count_edges reads key(a) - key(b) in the move keys as the move a - b; that needs a >= b
    # componentwise at every hit pair, which this checks for every n count_edges accepts
    for n in range(3, 13):
        vertices = sorted(((polytope._base_n_key(d, n), d) for d in enumerate_threshold_partitions(n)), reverse=True)
        moves = {polytope._base_n_key(m, n) for m in polytope._edge_moves(n)}
        hits = [(a, b) for (key_a, a), (key_b, b) in combinations(vertices, 2) if key_a - key_b in moves]
        assert len(hits) == 2 ** (n - 2) * (2 * n - 3)
        assert [(a, b) for a, b in hits if any(map(lt, a, b))] == [], n


def test_edge_moves_are_the_differences_the_rule_accepts():
    # the list is the rule read off every nonzero difference against the zero vector
    for n in range(3, 7):
        moves = polytope._edge_moves(n)
        zero = (0,) * n
        accepted = [d for d in product(range(n), repeat=n) if d != zero and polytope._adjacent(d, zero)]
        assert len(moves) == len(set(moves))
        assert set(moves) == set(accepted)
    assert [len(polytope._edge_moves(n)) for n in (8, 10, 12)] == [231, 531, 1056]


def test_count_edges_matches_the_pairwise_rule():
    for n in range(3, 11):
        tps = enumerate_threshold_partitions(n)
        pairs = sum(
            1 for s in range(len(tps)) for t in range(s + 1, len(tps)) if polytope._adjacent(tps[s], tps[t])
        )
        assert count_edges(n) == pairs, n


def test_edge_moves_find_each_vertexs_dominated_neighbours():
    n = 9
    tps = enumerate_threshold_partitions(n)
    vertices = set(tps)
    moves = polytope._edge_moves(n)
    for a in tps:
        through_moves = {b for b in (tuple(x - y for x, y in zip(a, m)) for m in moves) if b in vertices}
        by_rule = {
            b
            for b in tps
            if b != a and all(x >= y for x, y in zip(a, b)) and polytope._adjacent(a, b)
        }
        assert through_moves == by_rule, a


def test_dominating_count_and_identity():
    # every entry equal to n - 1 leads its threshold partition, so counting
    # them counts the leading run: the dominating count
    for n in range(1, 9):
        for d in enumerate_threshold_partitions(n):
            assert d.count(n - 1) == len(list(takewhile(lambda v: v == n - 1, d)))
    for n in range(1, 13):
        assert dominating_sum_identity(n) == 2 ** (n - 1)


def test_enumerate_degree_partitions():
    assert enumerate_degree_partitions(3, 2) == frozenset(
        {(0, 0, 0), (1, 1, 0), (2, 1, 1), (2, 2, 2)}
    )
    assert (2, 2, 1, 1) in enumerate_degree_partitions(4, 2)
    assert (2, 2, 1) not in enumerate_degree_partitions(3, 2)
    for n in range(1, 6):
        for d in enumerate_degree_partitions(n, 2):
            assert is_degree_sequence(d)


def test_lattice_points_equal_degree_partitions():
    for n in range(3, 6):
        candidates = [
            d
            for d in bounded_partitions(n, n * (n - 1), max_entry=n - 1)
            if sum(d) % 2 == 0 and in_fhm_polytope(d).member
        ]
        assert frozenset(candidates) == enumerate_degree_partitions(n, 2)


def test_affine_rank():
    assert affine_rank([]) == 0
    assert affine_rank([(1, 2)]) == 1
    assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 2
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 3
    assert affine_rank([(F(1, 2), F(1, 3)), (F(1, 2), F(1, 3))]) == 1


def test_affine_rank_refuses_points_of_different_lengths():
    for points in ([(0, 0, 0), (1, 0, 0), (0, 1, 5, 7)], [(0, 0, 0), (1, 0, 0), (0, 1)]):
        with pytest.raises(ValueError, match="one length"):
            affine_rank(points)


def _fraction_affine_rank(points):
    """Gaussian elimination over Fractions: the reference for affine_rank."""
    if not points:
        return 0
    rows = [[F(v) - F(b) for v, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank + 1


@st.composite
def tie_heavy_points(draw):
    # few distinct values, and about half the points in the affine span
    # of a few generators, so dependent rows are common; half the draws
    # are all-int, the rest mix in fractions
    width = draw(st.integers(min_value=1, max_value=7))
    values = st.integers(min_value=-2, max_value=2)
    if draw(st.booleans()):
        values = st.one_of(values, st.sampled_from((F(1, 2), F(-1, 3), F(2, 3), F(5, 7), F(-3, 1009))))
    vector = st.lists(values, min_size=width, max_size=width)
    base = draw(vector)
    generators = draw(st.lists(vector, min_size=1, max_size=width))
    points = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        if draw(st.booleans()):
            points.append(draw(vector))
        else:
            coeffs = draw(st.lists(values, min_size=len(generators), max_size=len(generators)))
            points.append([b + sum(c * g[t] for c, g in zip(coeffs, generators)) for t, b in enumerate(base)])
    return points


@given(tie_heavy_points())
def test_affine_rank_matches_fraction_elimination(points):
    assert affine_rank(points) == _fraction_affine_rank(points)


def test_dp3_volume():
    assert dp3_volume() == F(1, 3)
    assert 6 * dp3_volume() == 2


def test_ds3_volume_estimate_deterministic_and_close():
    est = ds3_volume_estimate(samples=120_000, seed=DEFAULT_SEED)
    again = ds3_volume_estimate(samples=120_000, seed=DEFAULT_SEED)
    assert est == again
    assert est.estimate == F(8 * est.hits, est.samples)
    assert abs(est.estimate - 2) <= F(1, 25)


@pytest.mark.parametrize("samples", [1, 1_023, 1_024, 1_025, 9_999, 10_000, 10_001, 25_000])
def test_volume_estimate_cross_checks_the_leading_samples_and_counts_the_rest(monkeypatch, samples):
    calls = []
    real = polytope._fhm_witness
    monkeypatch.setattr(polytope, "_fhm_witness", lambda vec, scale: calls.append((vec, scale)) or real(vec, scale))
    est = ds3_volume_estimate(samples=samples, seed=DEFAULT_SEED)
    # the reference: one sample at a time, three draws each, from the same seeded stream
    rng = random.Random(DEFAULT_SEED)
    points = [(rng.getrandbits(31), rng.getrandbits(31), rng.getrandbits(31)) for _ in range(samples)]
    # each checked sample is sorted and swept over the denominator 2^30
    swept = [sorted(point, reverse=True) for point in points]
    assert len(calls) == min(samples, 10_000)
    assert calls == [(vec, 1 << 30) for vec in swept[: len(calls)]]
    assert (est.samples, est.hits) == (samples, sum(real(vec, 1 << 30) is None for vec in swept))


@pytest.mark.parametrize(
    "samples, seed, hits",
    [(1_000_000, 1729, 250_746), (200_000, 0, 49_941), (200_000, 1, 49_818), (200_000, 2, 50_094), (20_000, 1729, 4_864)],
)
def test_volume_estimate_hits_are_frozen(samples, seed, hits):
    # the counts of the one-sample-at-a-time stream; the lanes must read the same words
    est = ds3_volume_estimate(samples=samples, seed=seed)
    assert (est.samples, est.hits, est.estimate) == (samples, hits, F(8 * hits, samples))


@pytest.mark.parametrize("samples", [0, -1, True, False, 2.5, 3.0, F(3), "3", None])
def test_volume_estimate_refuses_a_sample_count_that_is_not_a_positive_int(monkeypatch, samples):
    monkeypatch.setattr(polytope.random, "Random", lambda seed: pytest.fail("drew before refusing"))
    with pytest.raises(ValueError, match="positive int"):
        ds3_volume_estimate(samples=samples, seed=DEFAULT_SEED)


def test_scaled_n3_test_matches_the_sorted_sweep_on_the_boundary(monkeypatch):
    # random samples never land on a facet; every point of {0, 1/4, ..., 2}^3 is checked,
    # so a strict inequality in place of a facet's <= fails here, in either integer route.
    # A 31-bit draw stays below 2, so the points with a coordinate 2 skip the lanes.
    scales = []
    real = polytope._fhm_witness
    monkeypatch.setattr(polytope, "_fhm_witness", lambda vec, scale: scales.append(scale) or real(vec, scale))
    verdicts, lanes = {}, []
    for point in product([F(k, 4) for k in range(9)], repeat=3):
        member = in_fhm_polytope(sort_decreasing(point)).member
        ints = sorted((int(x * polytope._SCALE) for x in point), reverse=True)
        assert (polytope._fhm_witness(ints, polytope._SCALE) is None) == member, point
        verdicts[point] = member
        if max(point) < 2:
            lanes.append(point)
    assert set(verdicts.values()) == {True, False}
    # both routes are the one sweep: the quarters over their own denominator, the integers over 2^30
    assert scales.count(polytope._SCALE) == len(verdicts) and set(scales) <= {1, 2, 4, polytope._SCALE}
    # each word is 2k plus a low bit that the draw drops, set on every other word
    words = [2 * int(x * polytope._SCALE) + (j % 2) for j, x in enumerate(x for point in lanes for x in point)]
    packed = int.from_bytes(b"".join(w.to_bytes(4, "little") for w in words), "little")
    members = polytope._koren3_lanes(packed, len(lanes))
    assert members >> 96 * len(lanes) == 0
    assert [members >> (96 * i + 40) & 1 == 1 for i in range(len(lanes))] == [verdicts[p] for p in lanes]


def test_facet_inequality_serialization_shape():
    f = fhm_inequality(4, 1, 3)
    assert isinstance(f, FacetInequality)
    assert (f.kind, f.k, f.l, f.i) == ("fhm", 1, 3, None)
    m = monotone_inequality(4, 2)
    assert (m.kind, m.k, m.l, m.i) == ("monotone", None, None, 2)


def test_slotted_rows_and_verdicts_keep_their_value_semantics():
    row, again = fhm_inequality(6, 2, 1), fhm_inequality(6, 2, 1)
    verdict, same = in_fhm_polytope((0, 1)), in_fhm_polytope((0, 1))
    for value, twin, field in ((row, again, "rhs"), (verdict, same, "member")):
        assert not hasattr(value, "__dict__")
        assert value is not twin and value == twin and hash(value) == hash(twin)
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, 0)
    assert isinstance(verdict, FhmMembership) and verdict.violations == (monotone_inequality(2, 1),)
    assert len({row, again, fhm_inequality(6, 1, 2), monotone_inequality(6, 2)}) == 3
    for n in range(4, 11):
        # the facet list stays duplicate-free as a set of rows
        assert len(set(facet_inequalities(n))) == len(facet_inequalities(n)) == (n * n - 3 * n + 12) // 2


def test_volume_cross_check_raises_under_python_O():
    # the cross-check must not be an assert that -O strips
    script = (
        "import sys\n"
        "from degpoly import polytope\n"
        "polytope._koren3_lanes = lambda words, m: 0\n"
        "try:\n"
        "    polytope.ds3_volume_estimate(samples=50, seed=1)\n"
        "except AssertionError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    assert run_under_python_O(script).split() == ["raised", "1"]


def test_volume_cross_check_names_the_sweep_and_the_sample(monkeypatch):
    # with every lane stubbed to miss, the first sample the sweep keeps is the one reported
    monkeypatch.setattr(polytope, "_koren3_lanes", lambda words, m: 0)
    rng = random.Random(DEFAULT_SEED)
    points = [(rng.getrandbits(31), rng.getrandbits(31), rng.getrandbits(31)) for _ in range(50)]
    first = next(i for i, p in enumerate(points) if polytope._fhm_witness(sorted(p, reverse=True), 1 << 30) is None)
    message = f"integer lanes say False but the sorted sweep says True at sample {first}: {points[first]!r} / 2^30"
    with pytest.raises(AssertionError) as raised:
        ds3_volume_estimate(samples=50, seed=DEFAULT_SEED)
    assert str(raised.value) == message


def test_count_edges_rejects_a_bad_enumeration_under_python_O():
    # count_edges validates its vertices once, and not with an assert that -O strips;
    # (2, 2, 1, 1) is the path on four vertices, graphical but not threshold
    script = (
        "import sys\n"
        "from degpoly import polytope\n"
        "real = polytope.enumerate_threshold_partitions\n"
        "for extra in ((2, 2, 1, 1),), real(4)[:1]:\n"
        "    polytope.enumerate_threshold_partitions = lambda n: real(n) + extra\n"
        "    try:\n"
        "        polytope.count_edges(4)\n"
        "    except AssertionError:\n"
        "        print('raised', sys.flags.optimize)\n"
        "try:\n"
        "    polytope.are_adjacent((2, 2, 1, 1), (0, 0, 0, 0))\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    assert run_under_python_O(script).split() == ["raised", "1", "raised", "1", "rejected"]
