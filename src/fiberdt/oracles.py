"""Brute-force partition enumeration.

These counters are the independent witnesses for the Euler-level coefficients
of the generating series: a surface enters only through its Euler number,
which plays the role of a number of colors.  Everything here enumerates
actual tuples of partitions, one by one, on purpose; no closed formula from
the series side is reused.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterator

__all__ = [
    "Partition",
    "partitions_of",
    "addable_boxes",
    "weak_compositions",
    "colored_partitions_count",
    "nested_colored_count",
    "RECOMMENDED_COLOR_CAP",
    "RECOMMENDED_SIZE_CAP",
]

# Enumeration stays comfortably under a second within these bounds.  They are
# configuration for callers (the CLI enforces them), not hard limits.
RECOMMENDED_COLOR_CAP = 4
RECOMMENDED_SIZE_CAP = 8


class Partition(namedtuple("Partition", ("parts",))):
    """A weakly decreasing tuple of positive integers, ordered by its parts."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)


def partitions_of(m: int) -> list[Partition]:
    """All partitions of m, generated by recursion on the largest part."""
    if m < 0:
        raise ValueError("cannot partition a negative integer")
    out: list[Partition] = []
    prefix: list[int] = []

    def descend(remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            descend(remaining - part, part)
            prefix.pop()

    descend(m, m)
    return out


def addable_boxes(p: Partition) -> int:
    """Number of ways to grow the diagram by one box.

    A box can extend the first row of any run of equal parts, or start a new
    row, so the count is the number of distinct part values plus one.
    """
    return len(set(p.parts)) + 1


def weak_compositions(total: int, n_parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of n_parts nonnegative integers summing to total."""
    if n_parts < 1:
        raise ValueError("need at least one part")
    if n_parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, n_parts - 1):
            yield (first,) + rest


def _colored_tuples(n_colors: int, m: int) -> Iterator[tuple[Partition, ...]]:
    if n_colors < 1:
        raise ValueError("need at least one color")
    if m < 0:
        raise ValueError("total size must be nonnegative")
    for sizes in weak_compositions(m, n_colors):
        yield from itertools.product(*(partitions_of(s) for s in sizes))


def colored_partitions_count(n_colors: int, m: int) -> int:
    """Number of n_colors-tuples of partitions of total size m.

    Exhaustive: every tuple is generated and counted.
    """
    return sum(1 for _ in _colored_tuples(n_colors, m))


def nested_colored_count(n_colors: int, m: int) -> int:
    """Number of one-box extensions of n_colors-tuples of total size m.

    Each tuple contributes the number of addable boxes summed over its
    components; this counts nested pairs (tuple of size m, tuple of size
    m + 1) with componentwise containment.
    """
    return sum(addable_boxes(p) for tup in _colored_tuples(n_colors, m) for p in tup)
