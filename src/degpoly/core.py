"""Exact arithmetic primitives for integer and rational sequences.

Every quantity in this package is an ``int`` or a ``fractions.Fraction``;
no decision anywhere is made in floating point.  This module owns the
input rules every entry point calls - an integer entry is exactly an
``int``, a partition, and one common denominator for rationals - and the
sequence utilities everything else leans on: decreasing rearrangement,
weak-decrease tests, the majorization preorder, and the enumeration of
bounded partitions.  Prefix sums are ``itertools.accumulate``.

Majorization compares two equal-length sequences through their sorted
prefix sums: ``a`` majorizes ``b`` when, after sorting both in weakly
decreasing order, every prefix sum of ``a`` is at least the matching
prefix sum of ``b``, and the totals agree.  It is the order underlying
both the averaging projection in :mod:`degpoly.runs` and the hypergraph
recognition theorem in :mod:`degpoly.hypergraph`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]
RationalVector = tuple[Fraction, ...]
IntSequence = tuple[int, ...]
# A partition here is a weakly decreasing tuple of nonnegative integers.
Partition = tuple[int, ...]


def as_rational_vector(values: Iterable[Rational]) -> RationalVector:
    """Coerce a sequence of ints/Fractions to a tuple of Fractions."""
    return tuple(Fraction(v) for v in values)


def is_int_vector(values: Iterable) -> bool:
    """Is every entry exactly an ``int``?  ``bool``, ``IntEnum`` and other subclasses are not."""
    return set(map(type, values)) <= {int}


def _exact(value: Rational) -> Rational:
    """``value`` itself when it is an ``int`` or ``Fraction``, else ``Fraction(value)``."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def clear_denominators(values: Iterable[Rational]) -> tuple[IntSequence, int]:
    """``values`` times D, the lcm of their denominators, as ints; and D.

    All-int input comes back as it is, with D = 1.
    """
    vec = tuple(values)
    if is_int_vector(vec):
        return vec, 1
    vec = tuple(map(_exact, vec))
    scale = lcm(*(v.denominator for v in vec))
    return tuple(v.numerator * (scale // v.denominator) for v in vec), scale


def is_weakly_decreasing(values: Sequence[Rational]) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def sort_decreasing(values: Iterable[Rational]) -> tuple:
    """The weakly decreasing rearrangement of ``values``."""
    return tuple(sorted(values, reverse=True))


def majorizes(a: Sequence[Rational], b: Sequence[Rational]) -> bool:
    """True when ``a`` majorizes ``b``.

    Both are sorted decreasingly first, so the input order is irrelevant.
    Sequences of different length do not compare and raise ``ValueError``.
    """
    if len(a) != len(b):
        raise ValueError(
            "majorization compares sequences of equal length, got %d and %d"
            % (len(a), len(b))
        )
    ta: Rational = 0
    tb: Rational = 0
    for x, y in zip(sort_decreasing(a), sort_decreasing(b)):
        ta += x
        tb += y
        if ta < tb:
            return False
    return ta == tb


def is_partition(values: Sequence) -> bool:
    """Nonempty, weakly decreasing, nonnegative, every entry exactly an ``int``."""
    return len(values) > 0 and is_int_vector(values) and values[-1] >= 0 and is_weakly_decreasing(values)


def check_partition(values: Sequence, what: str = "sequence") -> Partition:
    """Return ``values`` as a tuple, raising if it is not a partition."""
    if not is_partition(values):
        raise ValueError(f"{what} must be weakly decreasing nonnegative integers: {values!r}")
    return tuple(values)


def bounded_partitions(n: int, max_total: int, max_entry: int | None = None) -> list[Partition]:
    """Weakly decreasing nonnegative n-tuples with sum <= max_total.

    ``max_entry``, when given, also caps every entry.  Tuples come out in
    reverse lexicographic order.
    """
    out: list[Partition] = []
    first_cap = max_total if max_entry is None else min(max_entry, max_total)

    def rec(prefix: list[int], slots: int, cap: int, used: int) -> None:
        if slots == 0:
            out.append(tuple(prefix))
            return
        for v in range(min(cap, max_total - used), -1, -1):
            prefix.append(v)
            rec(prefix, slots - 1, v, used + v)
            prefix.pop()

    rec([], n, first_cap, 0)
    return out
