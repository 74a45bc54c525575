"""Exact integer Gauss-Jordan elimination on sparse rows.

Rows, reduced rows and kernel vectors are all ``{column: int}`` maps; no
dense vector is ever built.  Elimination is fraction-free:
``p*row - f*pivot_row``, then the row's content is divided out.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Mapping, Sequence

__all__ = ["rref", "rank", "nullspace"]

Rows = Sequence[Mapping[int, int]]


def _normalize(row: dict[int, int]) -> dict[int, int]:
    # Divide out the content, with the sign that makes the leftmost entry positive.
    if not row:
        return row
    g = gcd(*row.values()) * (1 if row[min(row)] > 0 else -1)
    return {c: x // g for c, x in row.items()} if g != 1 else row


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    # p*row - f*pivot_row, p > 0 and f the two entries in ``col`` over their gcd.
    g = gcd(pivot_row[col], row[col])
    p, f = pivot_row[col] // g, row[col] // g
    out = {c: p * x for c, x in row.items()}
    for c, x in pivot_row.items():
        out[c] = out.get(c, 0) - f * x
    return _normalize({c: x for c, x in out.items() if x})


def rref(rows: Rows, n_cols: int):
    """Reduced row echelon form over the integers.

    Returns (reduced rows, pivot columns).  Each reduced row is a primitive
    ``{column: int}`` map whose leftmost entry, in its pivot column, is
    positive; no other row has an entry there.  The input is not modified.
    """
    reduced: dict[int, dict[int, int]] = {}  # pivot column -> row
    for row in rows:
        if not isinstance(row, Mapping):
            raise ValueError(f"row of type {type(row).__name__} is not a {{column: int}} map")
        for c, x in row.items():
            if type(x) is not int or type(c) is not int or not 0 <= c < n_cols:
                raise ValueError(f"entry {x!r} at column {c!r} of a {n_cols}-column integer matrix")
        row = _normalize({c: x for c, x in row.items() if x})
        for c in [c for c in row if c in reduced]:
            row = _eliminate(row, reduced[c], c)
        if row:
            pc = min(row)
            for c, other in reduced.items():
                if pc in other:
                    reduced[c] = _eliminate(other, row, pc)
            reduced[pc] = row
    pivots = sorted(reduced)
    return [reduced[c] for c in pivots], pivots


def rank(rows: Rows, n_cols: int) -> int:
    return len(rref(rows, n_cols)[1])


def _primitive(free: int, touching) -> dict[int, int]:
    # The kernel vector that is 1 in the free column, scaled by the lcm of
    # the pivots of the rows touching it, made primitive with positive lead.
    scale = lcm(1, *(p for _, p, _ in touching))
    entries = {pc: -x * (scale // p) for pc, p, x in touching}
    entries[free] = scale
    return _normalize(entries)


def nullspace(
    rows: Rows, n_cols: int, *, pivots: Sequence[int] | None = None
) -> list[dict[int, int]]:
    """A basis of the right nullspace: per free column one primitive integer
    vector with a positive leading entry, as a ``{column: int}`` map of its
    nonzero entries (the unit vectors if there are no rows).  Given
    ``pivots``, ``rows`` must be the reduced form with those pivot columns
    that :func:`rref` returns, and no elimination is run.
    """
    if pivots is None:
        rows, pivots = rref(rows, n_cols)
    touching: dict[int, list[tuple[int, int, int]]] = {}  # column -> (pivot column, pivot, entry)
    for pc, row in zip(pivots, rows):
        for c, x in row.items():
            if c != pc:
                touching.setdefault(c, []).append((pc, row[pc], x))
    free = sorted(set(range(n_cols)) - set(pivots))
    return [_primitive(c, touching.get(c, ())) for c in free]
