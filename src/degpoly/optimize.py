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
The certificate is held the same way, as D, the kernel's (total T,
size S) blocks and integer coefficient numerators A over S*D; its
invariants and :meth:`Certificate.misfits`, one integer identity per
entry that says c is rebuilt exactly, are tested on those integers.
A caller that has cleared the denominators passes C and D on as
``scale``, so they are cleared once.  ``Fraction`` objects are built
only for what a report prints, and :meth:`Certificate.reconstruct`
rebuilds c in ``Fraction`` as the tests' oracle.

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
from .core import IntSequence, Partition, Rational, RationalVector, clear_denominators, is_int_vector
from .runs import pava_oracle
from .threshold import enumerate_threshold_partitions, threshold_degrees

MODES = ("max", "min")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _over_one_denominator(c: Sequence[Rational], scale: int | None) -> tuple[IntSequence, int]:
    """(C, D) with c = C/D: :func:`clear_denominators` of ``c``, or ``c`` itself over ``scale``.

    A caller that has cleared the denominators already passes the integer
    numerators and their D as ``scale``, so they are cleared once.
    """
    if scale is None:
        return clear_denominators(c)
    if scale < 1 or not is_int_vector(c):
        raise ValueError(f"numerators over a scale must be ints over a positive D, got scale {scale!r}")
    return tuple(c), scale


def objective_value(c: Sequence[Rational], d: Sequence[int], scale: int | None = None) -> Fraction:
    """The linear functional sum(c_i * d_i), as an integer dot product over D.

    With ``scale`` given, ``c`` holds the integer numerators over that D.
    """
    numerators, scale = _over_one_denominator(c, scale)
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
    """c = base + sum alpha_i (e_{i+1} - e_i), base decreasing, alpha >= 0, all over one D.

    The base is ``blocks``: a block of total T and size S is the mean
    T/(S*D), repeated S times, with D = ``scale``.  ``numerators`` are
    A_1 .. A_{n-1}, and alpha_t = A_t/(S*D) for S the size of entry t's
    block.  Every check runs on these integers; ``base``,
    ``coefficients`` and ``support`` are views of them.
    """

    scale: int
    blocks: tuple[tuple[int, int], ...]
    numerators: tuple[int, ...]  # A_1 .. A_{n-1}

    def __post_init__(self) -> None:
        if self.scale < 1 or any(size < 1 for _, size in self.blocks):
            raise ValueError("certificate scale and block sizes must be positive")
        if len(self.numerators) != max(sum(size for _, size in self.blocks) - 1, 0):
            raise ValueError("need one coefficient per adjacent pair of base entries")
        # block means T/(S*D) weakly decrease: compared as cross products, D cancels
        if any(t * s < u * r for (t, r), (u, s) in zip(self.blocks, self.blocks[1:])):
            raise ValueError("certificate base must be weakly decreasing")
        if min(self.numerators, default=0) < 0:
            raise ValueError("certificate coefficients must be nonnegative")

    def entry_blocks(self) -> list[tuple[int, int]]:
        """Each entry's block (T, S), entry by entry."""
        return [block for block in self.blocks for _ in range(block[1])]

    @property
    def base(self) -> RationalVector:
        out: list[Fraction] = []
        for total, size in self.blocks:
            out.extend([Fraction(total, size * self.scale)] * size)
        return tuple(out)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """alpha_1 .. alpha_{n-1}."""
        return tuple(Fraction(a, size * self.scale) for a, (_, size) in zip(self.numerators, self.entry_blocks()))

    @property
    def support(self) -> frozenset[int]:
        """The positions i (1-based) whose coefficient alpha_i is nonzero."""
        return frozenset(i for i, a in enumerate(self.numerators, start=1) if a)

    def misfits(self, costs: Sequence[int]) -> list[int]:
        """The positions t (1-based) where c_t = base_t + alpha_{t-1} - alpha_t fails.

        ``costs`` are the numerators C of c = C/D over this certificate's D,
        and alpha_0 = alpha_n = 0.  With entry t in a block (T, S) and entry
        t-1 in a block of size S', the identity times S*S'*D reads
        S'*(T - A_t) + S*A_{t-1} = S*S'*C_t, which is tested in ``int``.
        """
        entries = self.entry_blocks()
        if len(costs) != len(entries):
            raise ValueError("cost vector and certificate lengths differ")
        a = (0, *self.numerators, 0)
        out = []
        before = 1  # S' at t = 1, where A_0 = 0 makes any S' > 0 do
        for t, ((total, size), cost) in enumerate(zip(entries, costs), start=1):
            if before * (total - a[t]) + size * a[t - 1] != size * before * cost:
                out.append(t)
            before = size
        return out

    def reconstruct(self) -> RationalVector:
        """base + sum alpha_i (e_{i+1} - e_i) in ``Fraction``: the oracle of :meth:`misfits`."""
        out = list(self.base)
        for i, alpha in enumerate(self.coefficients, start=1):
            out[i - 1] -= alpha
            out[i] += alpha
        return tuple(out)


def optimality_certificate(c: Sequence[Rational], scale: int | None = None) -> Certificate:
    """The certificate in closed form: b = pava_oracle(c), alpha = prefix sums of b - c.

    Entry k of sum alpha_i (e_{i+1} - e_i) is alpha_{k-1} - alpha_k, so
    c = b + that sum forces alpha_i = sum_{t <= i} (b_t - c_t).  These are
    nonnegative because every prefix of a pooled block averages at most
    the block mean, and they vanish at block ends, so the support only
    touches positions where consecutive entries of the projection (hence
    of the optimal partition) coincide.

    With c = C/D, the m-th coefficient of a PAVA block of total T and size
    S is A = m*T - S*P_m over S*D, P_m the sum of its first m numerators.
    With ``scale`` given, ``c`` holds the integer numerators C over that D.
    """
    numerators, scale = _over_one_denominator(c, scale)
    if not numerators:
        raise ValueError("cannot certify an empty vector")
    blocks = runs._pava_blocks(numerators)
    alpha: list[int] = []
    start = 0
    for total, size in blocks:
        prefix = 0
        for m, value in enumerate(numerators[start : start + size], start=1):
            prefix += value
            alpha.append(m * total - size * prefix)
        start += size
    return Certificate(scale=scale, blocks=tuple(blocks), numerators=tuple(alpha[:-1]))
