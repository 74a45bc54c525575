"""Kernels of equality-and-zero systems, read off a union-find.

A row ``(u,)`` says x_u = 0 and a row ``(u, v)`` says x_u = x_v; no other
row occurs in a monomial-ideal Hom system.  So no elimination is run: the
kernel has one 0/1 vector per connected component of the equality graph
that holds no zeroed unknown, given as the sorted tuple of its unknowns.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["nullspace"]


def nullspace(rows: Sequence[tuple[int, ...]], n_cols: int) -> list[tuple[int, ...]]:
    """The unknowns of each component with no zeroed unknown, as sorted
    tuples sorted by their largest column (an unknown in no row is a
    component of its own).  That column is the free one, and the indicator
    is the primitive kernel vector Gauss-Jordan elimination gives for it.
    Any row but a tuple ``(u,)`` or ``(u, v)`` (``u != v``, int columns in
    ``range(n_cols)``) raises ValueError.
    """
    parent = list(range(n_cols))  # the root of a set is its largest column

    def root(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    zeroed = []
    for row in rows:
        if not (
            type(row) is tuple
            and all(type(c) is int and 0 <= c < n_cols for c in row)
            and len(row) in (1, 2)
            and len(set(row)) == len(row)
        ):
            raise ValueError(f"row {row!r} is neither (u,) nor (u, v) over {n_cols} columns")
        if len(row) == 1:
            zeroed.append(row[0])
        else:
            a, b = root(row[0]), root(row[1])
            parent[min(a, b)] = max(a, b)
    dead = {root(u) for u in zeroed}
    components: dict[int, list[int]] = {}
    for u in range(n_cols):
        r = root(u)
        if r not in dead:
            components.setdefault(r, []).append(u)
    return [tuple(components[r]) for r in sorted(components)]
