"""Exact linear optimization over threshold graphs and their partitions.

Two routes compute the same optimum and certify each other.

The pair route assigns a cost to every vertex pair and finds a
maximum-weight order ideal by dynamic programming over windows
{i, ..., j}: scanning rows i = n-1 down to 1, vertex i either dominates
the window - contributing its row of edge costs plus the best ideal on
{i+1..j} - or is isolated in it, inheriting the best ideal on {i..j-1}.
Breaking ties toward the dominating branch yields the edge-maximal
optimum; breaking them the other way yields the edge-minimal one.

The vertex route maximizes sum(c_i * d_i) over threshold partitions d.
The projection b of c onto the weakly decreasing vectors, computed by
pool-adjacent-violators (:func:`degpoly.runs.pava_oracle`), gives the
optimizer in time linear in n: one two-pointer sweep counts the partners
j of each vertex with b_i + b_j >= 0 (strict > for the minimal variant;
:func:`degpoly.threshold.threshold_degrees`).
Iterated run averaging (:func:`degpoly.runs.pool`) and the explicit edge
set (:func:`degpoly.threshold.graph_from_weights`) are the oracles the
tests hold this route to.  A certificate makes the optimum checkable by
hand: c equals its projection plus a nonnegative rational combination of
the adjacent-difference vectors v_i = e_{i+1} - e_i, supported only
where the optimal partition has d_i = d_{i+1}.

Both routes come with brute-force oracles over the full enumeration so
the test suite can pin them down exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Mapping, Sequence

from .core import (
    Partition,
    Rational,
    RationalVector,
    as_rational_vector,
    clear_denominators,
    is_weakly_decreasing,
)
from .hypergraph import RGraph, r_subsets
from .runs import pava_oracle
from .threshold import (
    Pair,
    _pair_ideal,
    enumerate_order_ideals,
    enumerate_threshold_partitions,
    threshold_degrees,
)

MODES = ("max", "min")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class PairCosts:
    """A rational cost for every pair (i, j), 1 <= i < j <= n."""

    n: int
    costs: Mapping[Pair, Fraction]

    def __post_init__(self) -> None:
        full = {pair: Fraction(0) for pair in r_subsets(self.n, 2)}
        for key, value in dict(self.costs).items():
            pair = tuple(key)
            if pair not in full:
                raise ValueError(f"{pair!r} is not a pair of [{self.n}]")
            full[pair] = Fraction(value)
        object.__setattr__(self, "costs", full)

    def weight(self, edges: Sequence[Pair] | frozenset[Pair]) -> Fraction:
        return sum((self.costs[pair] for pair in edges), Fraction(0))


def lift_costs(c: Sequence[Rational]) -> PairCosts:
    """Vertex costs to pair costs: the pair (i, j) costs c_i + c_j."""
    vec = as_rational_vector(c)
    if not vec:
        raise ValueError("need at least one vertex cost")
    n = len(vec)
    return PairCosts(n, {(i, j): vec[i - 1] + vec[j - 1] for i, j in r_subsets(n, 2)})


def max_weight_ideal(costs: PairCosts, mode: str = "max") -> RGraph:
    """A maximum-weight order ideal by the window dynamic program.

    ``mode="max"`` breaks ties toward the dominating branch and returns
    the edge-maximal maximizer, ``mode="min"`` the edge-minimal one.
    Row i only consults row i+1 and earlier entries of row i, so two
    rows of weights suffice; each cell keeps one back-pointer (did
    vertex i dominate its window?) and the edge set is rebuilt once by
    walking those pointers from the full window {1..n}.
    """
    _check_mode(mode)
    n = costs.n
    # prev[j] = weight of the best ideal on the window {i+1..j};
    # take[i][j] = whether vertex i dominates the window {i..j} in its best ideal
    prev: list[Fraction] = []
    take: list[list[bool]] = [[]] * (n + 1)
    for i in range(n, 0, -1):
        cur = [Fraction(0)] * (n + 1)
        row = take[i] = [False] * (n + 1)
        row_prefix = Fraction(0)
        for j in range(i + 1, n + 1):
            row_prefix += costs.costs[(i, j)]
            dominating = row_prefix + prev[j]
            row[j] = dominating >= cur[j - 1] if mode == "max" else dominating > cur[j - 1]
            cur[j] = dominating if row[j] else cur[j - 1]
        prev = cur
    edges: list[Pair] = []
    i, j = 1, n
    while i < j:
        if take[i][j]:
            edges.extend((i, k) for k in range(i + 1, j + 1))
            i += 1
        else:
            j -= 1
    return _pair_ideal(n, edges)


def brute_force_max_weight_ideals(costs: PairCosts) -> tuple[Fraction, tuple[frozenset[Pair], ...]]:
    """(best weight, every ideal attaining it), by full enumeration."""
    best: Fraction | None = None
    argmax: list[frozenset[Pair]] = []
    for edges in enumerate_order_ideals(costs.n):
        w = costs.weight(edges)
        if best is None or w > best:
            best, argmax = w, [edges]
        elif w == best:
            argmax.append(edges)
    if best is None:
        raise AssertionError("enumeration returned no candidates")
    return best, tuple(argmax)


def objective_value(c: Sequence[Rational], d: Sequence[int]) -> Fraction:
    """The linear functional sum(c_i * d_i)."""
    vec = as_rational_vector(c)
    if len(vec) != len(d):
        raise ValueError("cost vector and partition lengths differ")
    return sum((ci * di for ci, di in zip(vec, d)), Fraction(0))


def optimal_threshold_partition(c: Sequence[Rational], mode: str = "max") -> Partition:
    """The extreme optimizer of sum(c_i * d_i) over threshold partitions.

    ``mode="max"`` returns the componentwise-maximal element of the argmax
    set, ``mode="min"`` the componentwise-minimal one.  Both maximize.
    """
    _check_mode(mode)
    return threshold_degrees(pava_oracle(c), strict=(mode == "min"))


def brute_force_optimal_partition(c: Sequence[Rational]) -> tuple[Fraction, frozenset[Partition]]:
    """(best value, the full argmax set) over all threshold partitions.

    The costs are scaled once to integer numerators over their common
    denominator D, so every vertex is scored by an integer dot product;
    the best value is that integer over D.
    """
    numerators, scale = clear_denominators(c)
    best: int | None = None
    argmax: list[Partition] = []
    for d in enumerate_threshold_partitions(len(numerators)):
        v = sum(map(mul, numerators, d))
        if best is None or v > best:
            best, argmax = v, [d]
        elif v == best:
            argmax.append(d)
    if best is None:
        raise AssertionError("enumeration returned no candidates")
    return Fraction(best, scale), frozenset(argmax)


@dataclass(frozen=True)
class Certificate:
    """c = base + sum alpha_i (e_{i+1} - e_i), base decreasing, alpha >= 0."""

    base: RationalVector
    coefficients: tuple[Fraction, ...]  # alpha_1 .. alpha_{n-1}
    support: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.coefficients) != max(len(self.base) - 1, 0):
            raise ValueError("need one coefficient per adjacent pair of base entries")
        if not is_weakly_decreasing(self.base):
            raise ValueError("certificate base must be weakly decreasing")
        if any(a < 0 for a in self.coefficients):
            raise ValueError("certificate coefficients must be nonnegative")
        nonzero = frozenset(i for i, a in enumerate(self.coefficients, start=1) if a)
        if self.support != nonzero:
            raise ValueError("support must list exactly the nonzero coefficients")

    def reconstruct(self) -> RationalVector:
        out = list(self.base)
        for i, alpha in enumerate(self.coefficients, start=1):
            out[i - 1] -= alpha
            out[i] += alpha
        return tuple(out)


def optimality_certificate(c: Sequence[Rational]) -> Certificate:
    """The certificate in closed form: b = pava_oracle(c), alpha = prefix sums of b - c.

    Entry k of sum alpha_i (e_{i+1} - e_i) is alpha_{k-1} - alpha_k, so
    c = b + that sum forces alpha_i = sum_{t <= i} (b_t - c_t).  These are
    nonnegative because every prefix of a pooled block averages at most
    the block mean, and they vanish at block ends, so the support only
    touches positions where consecutive entries of the projection (hence
    of the optimal partition) coincide.
    """
    vec = as_rational_vector(c)
    if not vec:
        raise ValueError("cannot certify an empty vector")
    base = pava_oracle(vec)
    alpha = tuple(accumulate(b - ci for b, ci in zip(base[:-1], vec)))
    support = frozenset(i for i, a in enumerate(alpha, start=1) if a)
    return Certificate(base=base, coefficients=alpha, support=support)
