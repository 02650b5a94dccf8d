"""Exact arithmetic primitives for integer and rational sequences.

Every quantity in this package is an ``int`` or a ``fractions.Fraction``;
no decision anywhere is made in floating point.  This module owns the
input rules every entry point calls - an integer entry is exactly an
``int``, a partition, a rational vector is nonempty and each entry
exactly an ``int`` or ``Fraction``, and one common denominator for such
vectors or integer pairs (p, q) - the one printer of such a pair, the
texts by which a refusal names one offending entry rather than echo the
vector, and the sequence utilities everything else leans on: decreasing
rearrangement, weak-decrease tests, the majorization preorder, and the
enumeration of bounded partitions.  Prefix sums are
``itertools.accumulate``.

Majorization compares two equal-length sequences through their sorted
prefix sums: ``a`` majorizes ``b`` when, after sorting both in weakly
decreasing order, every prefix sum of ``a`` is at least the matching
prefix sum of ``b``, and the totals agree.  It is the order underlying
both the averaging projection in :mod:`degpoly.runs` and the hypergraph
recognition theorem in :mod:`degpoly.hypergraph`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import gcd, lcm
from operator import ge
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]
RationalVector = tuple[Fraction, ...]
IntSequence = tuple[int, ...]
# A partition here is a weakly decreasing tuple of nonnegative integers.
Partition = tuple[int, ...]


def check_rational_vector(values: Iterable[Rational]) -> tuple[Rational, ...]:
    """``values`` as a tuple, under the rational rule: nonempty, each entry exactly an ``int`` or ``Fraction``.

    Not ``bool``, ``IntEnum``, ``float``, ``str`` or ``Decimal``.  Other input raises one
    ``ValueError``, naming the first offending entry's type and never echoing the vector.
    """
    vec = tuple(values)
    if vec and set(map(type, vec)) <= {int, Fraction}:
        return vec
    bad = next((t.__name__ for t in map(type, vec) if t not in (int, Fraction)), None)
    got = "an empty vector" if bad is None else f"an entry of type {bad}"
    raise ValueError(f"a rational vector is nonempty and each entry exactly an int or a Fraction, got {got}")


def as_rational_vector(values: Iterable[Rational]) -> RationalVector:
    """``values``, under :func:`check_rational_vector`'s rule, as a tuple of Fractions."""
    return tuple(map(Fraction, check_rational_vector(values)))


def is_int_vector(values: Iterable) -> bool:
    """Is every entry exactly an ``int``?  ``bool``, ``IntEnum`` and other subclasses are not."""
    return set(map(type, values)) <= {int}


def clear_denominators(values: Iterable[Rational], scale: int = 1) -> tuple[IntSequence, int]:
    """``values`` times D, the lcm of their denominators, as ints; and D * ``scale``.

    That is ``values`` / ``scale`` over one common denominator.
    ``scale`` must be a positive ``int``, so a caller that has cleared
    its values passes the numerators and their denominator.  ``values``
    must keep the rule of :func:`check_rational_vector`; all-int input
    comes back as it is, over ``scale``, after one pass over the types.
    """
    if type(scale) is not int or scale < 1:
        raise ValueError(f"scale must be a positive int, got {scale!r}")
    vec = tuple(values)
    if vec and is_int_vector(vec):
        return vec, scale
    numerators, denominator = clear_ratios(v.as_integer_ratio() for v in check_rational_vector(vec))
    return numerators, denominator * scale


def clear_ratios(ratios: Iterable[tuple[int, int]]) -> tuple[IntSequence, int]:
    """The values p/q of integer pairs with q >= 1 as numerators over D, the lcm of the q; and D."""
    pairs = tuple(ratios)
    scale = lcm(*[q for _, q in pairs])
    return tuple([p * (scale // q) for p, q in pairs]), scale


def ratio_text(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for q >= 1, read off the integers: "p/q" in lowest terms, or the integer."""
    g = gcd(p, q)
    q //= g
    return str(p // g) if q == 1 else f"{p // g}/{q}"


def is_weakly_decreasing(values: Sequence[Rational]) -> bool:
    return all(map(ge, values, islice(values, 1, None)))


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
    """Return ``values`` as a tuple, raising if it is not a partition.

    The ``ValueError`` names the first entry that breaks the rule, never the whole sequence.
    """
    if is_partition(values):
        return tuple(values)
    if not len(values):
        fault = "an empty sequence"
    else:
        bad = next((i for i, t in enumerate(map(type, values), 1) if t is not int), None)
        if bad is not None:
            fault = f"entry {bad} of type {type(values[bad - 1]).__name__}"
        elif is_weakly_decreasing(values):
            first = next(i for i, v in enumerate(values, 1) if v < 0)
            fault = f"entry {first} = {value_text(values[first - 1])}, which is negative"
        else:
            fault = ascent_text(values)
    raise ValueError(f"{what} must be weakly decreasing nonnegative integers, got {fault}")


def value_text(value: Rational) -> str:
    """``str(value)`` for a refusal, cut to 40 characters; an int past ``str``'s digit limit by its size."""
    try:
        text = str(value)
    except ValueError:  # more digits than str prints
        return f"a {type(value).__name__} too long to print"
    return text if len(text) <= 40 else text[:37] + "..."


def ascent_text(values: Sequence[Rational]) -> str:
    """Where ``values`` first rises, for a refusal: "entry i + 1 = b exceeds entry i = a", 1-based; never the vector."""
    i = next((i for i in range(1, len(values)) if values[i - 1] < values[i]), None)
    if i is None:
        return "no entry above the one before it"
    return f"entry {i + 1} = {value_text(values[i])} exceeds entry {i} = {value_text(values[i - 1])}"


def bounded_partitions(n: int, max_total: int, max_entry: int | None = None) -> list[Partition]:
    """Weakly decreasing nonnegative n-tuples with sum <= max_total.

    ``max_entry``, when given, also caps every entry.  Tuples come out in
    reverse lexicographic order, made in C by ``combinations_with_replacement``
    when the total cannot bind (n times the cap at most ``max_total``): 0.03 ms,
    not 0.3 ms, for lattice-points' 462 at n = 6.  A bad n or bound raises ``ValueError``.
    """
    if not is_int_vector((n, max_total) if max_entry is None else (n, max_total, max_entry)) or n < 0:
        got = ", ".join(map(value_text, (n, max_total, max_entry)))
        raise ValueError(f"need an int n >= 0 and int bounds, got (n, max_total, max_entry) = ({got})")
    if max_total < 0:  # no tuple, the empty one included, has a negative sum
        return []
    first_cap = max_total if max_entry is None else min(max_entry, max_total)
    if n * first_cap <= max_total:
        return list(combinations_with_replacement(range(first_cap, -1, -1), n))
    out: list[Partition] = []

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
