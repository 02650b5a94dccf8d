"""Exact linear optimization over threshold partitions, with a certificate.

The optimizer maximizes sum(c_i * d_i) over threshold partitions d.
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

The route runs in ``int``: integer PAVA blocks over one common
denominator D, a cross-product sweep, and an integer objective over D.
``Fraction`` objects are built only for what a report prints.

The brute-force oracle, :func:`brute_force_optimal_partition`, scores
every vertex and returns the whole argmax set, so the tests and
``optimize --oracle`` can pin the optimizer and both extremes down
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import runs
from .core import Partition, Rational, RationalVector, clear_denominators, is_weakly_decreasing
from .runs import pava_oracle
from .threshold import enumerate_threshold_partitions, threshold_degrees

MODES = ("max", "min")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def objective_value(c: Sequence[Rational], d: Sequence[int]) -> Fraction:
    """The linear functional sum(c_i * d_i), as an integer dot product over D."""
    numerators, scale = clear_denominators(c)
    if len(numerators) != len(d):
        raise ValueError("cost vector and partition lengths differ")
    return Fraction(sum(map(mul, numerators, d)), scale)


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

    def __post_init__(self) -> None:
        if len(self.coefficients) != max(len(self.base) - 1, 0):
            raise ValueError("need one coefficient per adjacent pair of base entries")
        if not is_weakly_decreasing(self.base):
            raise ValueError("certificate base must be weakly decreasing")
        if any(a < 0 for a in self.coefficients):
            raise ValueError("certificate coefficients must be nonnegative")

    @property
    def support(self) -> frozenset[int]:
        """The positions i (1-based) whose coefficient alpha_i is nonzero."""
        return frozenset(i for i, a in enumerate(self.coefficients, start=1) if a)

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

    With c = C/D, the m-th coefficient of a PAVA block of total T and size
    S is (m*T - S*P_m)/(S*D), P_m the sum of its first m numerators.
    """
    numerators, scale = clear_denominators(c)
    if not numerators:
        raise ValueError("cannot certify an empty vector")
    base: list[Fraction] = []
    alpha: list[Fraction] = []
    start = 0
    for total, size in runs._pava_blocks(numerators):
        denominator = size * scale
        base.extend([Fraction(total, denominator)] * size)
        prefix = 0
        for m, value in enumerate(numerators[start : start + size], start=1):
            prefix += value
            alpha.append(Fraction(m * total - size * prefix, denominator))
        start += size
    return Certificate(base=tuple(base), coefficients=tuple(alpha[:-1]))
