"""Exact linear optimization over threshold partitions, with a certificate.

The optimizer maximizes sum(c_i * d_i) over threshold partitions d.
The projection b of c onto the weakly decreasing vectors, computed by
pool-adjacent-violators (:func:`degpoly.runs._pava_blocks`), gives the
optimizer in time linear in n: one two-pointer sweep, one step per pooled
block (b is constant on each), counts the partners j of each vertex with
b_i + b_j >= 0 (strict > for the minimal variant).
Iterated run averaging (:func:`degpoly.runs.pool`) and the explicit edge
set (:func:`degpoly.threshold.graph_from_weights`) are the oracles the
tests hold this route to.  A certificate makes the optimum checkable by
hand: c equals its projection plus a nonnegative rational combination of
the adjacent-difference vectors v_i = e_{i+1} - e_i, supported only
where the optimal partition has d_i = d_{i+1}.

The certificate is the one route, and it runs in ``int``.
:func:`optimality_certificate` clears the denominators once, c = C/D,
or takes C and D from a caller that has cleared them, and holds C, D,
the kernel's (total T, size S) blocks and integer coefficient
numerators A over S*D.  :meth:`Certificate.optimizer` sweeps the
blocks with cross products, :meth:`Certificate.value` is an integer
dot product over D, and :meth:`Certificate.misfits`, one integer
identity per entry, says c is rebuilt exactly.  :meth:`Certificate.text`
writes the base and coefficients that a report prints from the same
integers, one block mean per block and no ``Fraction`` per entry;
``base``, ``coefficients`` and :meth:`Certificate.reconstruct` are the
``Fraction`` views, kept as the tests' oracle.

The brute-force oracle, :func:`brute_force_optimal_partition`, scores
every vertex and returns the whole argmax set, so the tests and
``optimize --oracle`` can pin the optimizer and both extremes down
exactly.  It scores the enumeration's byte strings
(:func:`degpoly.threshold._threshold_bytes`) and turns only the argmax
members into tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice, repeat
from operator import mul, ne, sub
from typing import Sequence

from . import runs, threshold
from .core import (
    IntSequence,
    Partition,
    Rational,
    RationalVector,
    ascent_text,
    clear_denominators,
    is_weakly_decreasing,
    ratio_text,
)

MODES = ("max", "min")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _degree_sweep(weight_runs: Sequence[tuple[int, int, int]], strict: bool) -> Partition:
    """Degrees of the pair-sum ideal of weakly decreasing weights b_i, as runs (p, q, size): p/q, q > 0, size times.

    b_i + b_j has the sign of the integer p_i q_j + p_j q_i.  The partners
    j of vertex i (that sign >= 0, or > 0 when ``strict``) form a prefix
    1..end of [n], and end only shrinks as i grows: one two-pointer sweep,
    one step per run, counts every d_i.  A partner test reads only the
    partner's weight, so end stops on run boundaries and a run's entries
    share one degree.  The nested prefixes are the downward closure of the
    edge set.  The weights need not be in lowest terms, and scaling them
    all by one positive factor changes no sign.
    """
    # a pair is dropped when its integer cross sum is below 0, or below 1 when strict
    floor = 1 if strict else 0
    deg, per_run = [], []  # each entry's degree, and each run's
    hi = len(weight_runs)
    end = sum(size for _, _, size in weight_runs)  # the entries of weight_runs[:hi]
    start = 0  # the entries before the current run
    for p, q, size in weight_runs:
        while hi and p * weight_runs[hi - 1][1] + weight_runs[hi - 1][0] * q < floor:
            hi -= 1
            end -= weight_runs[hi][2]
        degree = end - 1 if start < end else end
        per_run.append(degree)
        deg += [degree] * size
        start += size
    if not is_weakly_decreasing(per_run):
        raise AssertionError(f"threshold degrees must weakly decrease run by run, got {ascent_text(per_run)}")
    return tuple(deg)


def optimal_threshold_partition(c: Sequence[Rational], mode: str = "max") -> Partition:
    """The extreme optimizer of sum(c_i * d_i) over threshold partitions.

    ``mode="max"`` returns the componentwise-maximal element of the argmax
    set, ``mode="min"`` the componentwise-minimal one.  Both maximize.
    """
    return optimality_certificate(c).optimizer(mode)


def brute_force_optimal_partition(c: Sequence[Rational]) -> tuple[Fraction, frozenset[Partition]]:
    """(best value, the full argmax set) over all threshold partitions.

    The costs are scaled once to integer numerators over their common
    denominator D, so every vertex is scored by an integer dot product;
    the best value is that integer over D.  The vertices are scored as
    the byte strings of :func:`degpoly.threshold._threshold_bytes`, whose
    entries iterate as ``int``s, and only the argmax members become tuples.
    """
    numerators, scale = clear_denominators(c)
    vertices = threshold._threshold_bytes(len(numerators))
    values = [sum(map(mul, numerators, d)) for d in vertices]
    best = max(values)
    return Fraction(best, scale), frozenset(map(tuple, compress(vertices, map(best.__eq__, values))))


@dataclass(frozen=True)
class Certificate:
    """c = base + sum alpha_i (e_{i+1} - e_i), base decreasing, alpha >= 0, all over one D.

    ``costs`` are the numerators C of c = C/D, with D = ``scale``.  The
    base is ``blocks``: a block of total T and size S is the mean
    T/(S*D), repeated S times.  ``numerators`` are A_1 .. A_{n-1}, and
    alpha_t = A_t/(S*D) for S the size of entry t's block.  Every check
    runs on these integers; ``base``, ``coefficients``, ``support`` and
    :meth:`text` are views of them.
    """

    costs: IntSequence  # C_1 .. C_n
    scale: int
    blocks: tuple[tuple[int, int], ...]
    numerators: tuple[int, ...]  # A_1 .. A_{n-1}

    def __post_init__(self) -> None:
        if self.scale < 1 or any(size < 1 for _, size in self.blocks):
            raise ValueError("certificate scale and block sizes must be positive")
        n = sum(size for _, size in self.blocks)
        if len(self.costs) != n:
            raise ValueError("need one cost per base entry")
        if len(self.numerators) != max(n - 1, 0):
            raise ValueError("need one coefficient per adjacent pair of base entries")
        # block means T/(S*D) weakly decrease: compared as cross products, D cancels
        if any(t * s < u * r for (t, r), (u, s) in zip(self.blocks, self.blocks[1:])):
            raise ValueError("certificate base must be weakly decreasing")
        if min(self.numerators, default=0) < 0:
            raise ValueError("certificate coefficients must be nonnegative")

    @property
    def base(self) -> RationalVector:
        return runs._block_means(self.blocks, self.scale)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """alpha_1 .. alpha_{n-1}."""
        sizes = (size for _, size in self.blocks for _ in range(size))  # each entry's block size
        return tuple(Fraction(a, size * self.scale) for a, size in zip(self.numerators, sizes))

    @property
    def support(self) -> frozenset[int]:
        """The positions i (1-based) whose coefficient alpha_i is nonzero."""
        return frozenset(compress(range(1, len(self.numerators) + 1), self.numerators))

    def optimizer(self, mode: str) -> Partition:
        """The extreme optimizer in ``mode``: the degrees of the pair-sum ideal of the base.

        The sweep reads each block (T, S) once, as the run (T, S, S): T/S
        is its base entry times the positive factor D.
        """
        return _degree_sweep([(total, size, size) for total, size in self.blocks], strict=(_check_mode(mode) == "min"))

    def value(self, d: Sequence[int]) -> Fraction:
        """The objective sum(c_i * d_i), as an integer dot product over D."""
        if len(d) != len(self.costs):
            raise ValueError("cost vector and partition lengths differ")
        return Fraction(sum(map(mul, self.costs, d)), self.scale)

    def misfits(self) -> list[int]:
        """The positions t (1-based) where c_t = base_t + alpha_{t-1} - alpha_t fails.

        alpha_0 = alpha_n = 0.  With entry t in a block (T, S) and entry
        t-1 in a block of size S', the identity times S*S'*D reads
        S'*(T - A_t) + S*A_{t-1} = S*S'*C_t, which is tested in ``int``.
        Past a block's first entry S' = S, and A_{t-1} - A_t = S*C_t - T is
        tested over the rest of the block in one pass.
        """
        a = (0, *self.numerators, 0)
        out: list[int] = []
        before, start = 1, 0  # S' at t = 1, where A_0 = 0 makes any S' > 0 do; the entries before the block
        for total, size in self.blocks:
            if before * (total - a[start + 1]) + size * a[start] != size * before * self.costs[start]:
                out.append(start + 1)
            stop = start + size
            steps = map(sub, a[start + 1 : stop], a[start + 2 : stop + 1])
            scaled = map(sub, map(mul, repeat(size), self.costs[start + 1 : stop]), repeat(total))
            out += compress(range(start + 2, stop + 1), map(ne, steps, scaled))
            before, start = size, stop
        return out

    def text(self) -> tuple[list[str], list[str]]:
        """``str`` of each entry of ``base`` and ``coefficients``, written from the integers.

        A block (T, S) writes its mean T/(S*D) once, repeated S times,
        and the coefficients A/(S*D) of its entries.
        """
        base: list[str] = []
        coefficients: list[str] = []
        numerators = iter(self.numerators)  # n - 1 of them: the last block writes one fewer
        for total, size in self.blocks:
            den = size * self.scale
            base += [ratio_text(total, den)] * size
            coefficients += [ratio_text(a, den) for a in islice(numerators, size)]
        return base, coefficients

    def reconstruct(self) -> RationalVector:
        """base + sum alpha_i (e_{i+1} - e_i) in ``Fraction``: the oracle of :meth:`misfits`."""
        out = list(self.base)
        for i, alpha in enumerate(self.coefficients, start=1):
            out[i - 1] -= alpha
            out[i] += alpha
        return tuple(out)


def optimality_certificate(c: Sequence[Rational], scale: int = 1) -> Certificate:
    """The certificate of c / ``scale`` in closed form: b = the projection, alpha = prefix sums of b - c.

    Entry k of sum alpha_i (e_{i+1} - e_i) is alpha_{k-1} - alpha_k, so
    c = b + that sum forces alpha_i = sum_{t <= i} (b_t - c_t).  These are
    nonnegative because every prefix of a pooled block averages at most
    the block mean, and they vanish at block ends, so the support only
    touches positions where consecutive entries of the projection (hence
    of the optimal partition) coincide.

    ``scale``, a positive ``int``, divides c: a caller that has cleared
    its costs passes the numerators C and their common denominator D,
    and all-``int`` costs are taken as they are.  Any other c is cleared
    once by :func:`~degpoly.core.clear_denominators`, and D is the lcm
    of its denominators times ``scale``.
    With c / scale = C/D, the m-th coefficient of a PAVA block of total T
    and size S is A = m*T - S*P_m over S*D, P_m the sum of its first m
    numerators.
    """
    numerators, scale = clear_denominators(c, scale)
    blocks = runs._pava_blocks(numerators)
    alpha: list[int] = []
    start = 0
    for total, size in blocks:
        prefix = 0
        for m, value in enumerate(numerators[start : start + size], start=1):
            prefix += value
            alpha.append(m * total - size * prefix)
        start += size
    return Certificate(
        costs=numerators, scale=scale, blocks=tuple(blocks), numerators=tuple(alpha[:-1])
    )
