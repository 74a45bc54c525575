"""Kernels of sparse equality-and-zero systems, read off a union-find.

A row ``{u: 1}`` or ``{u: -1}`` says x_u = 0, and a row ``{u: 1, v: -1}``
says x_u = x_v; no other row occurs in a monomial-ideal Hom system.  So no
elimination is run: the kernel has one 0/1 vector per connected component
of the equality graph that holds no zeroed unknown.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["nullspace"]


def _columns(row, n_cols: int) -> list[int]:
    if isinstance(row, Mapping):
        entries = list(row.items())
        cols = [c for c, _ in entries]
        if (
            all(type(c) is int and type(x) is int and 0 <= c < n_cols for c, x in entries)
            and sorted(x for _, x in entries) in ([-1], [1], [-1, 1])
            and len(set(cols)) == len(cols)
        ):
            return cols
    raise ValueError(f"row {row!r} is neither {{u: ±1}} nor {{u: 1, v: -1}} over {n_cols} columns")


def nullspace(rows: Sequence[Mapping[int, int]], n_cols: int) -> list[dict[int, int]]:
    """The indicator ``{u: 1, ...}`` of each component with no zeroed
    unknown, sorted by the component's largest column (an unknown in no row
    is a component of its own).  That column is the free one, and this is
    the primitive kernel vector Gauss-Jordan elimination gives for it.  A
    row other than ``{u: ±1}`` or ``{u: 1, v: -1}`` (``u != v``, int columns
    in ``range(n_cols)``) raises ValueError.
    """
    parent = list(range(n_cols))  # the root of a set is its largest column

    def root(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    zeroed = []
    for row in rows:
        cols = _columns(row, n_cols)
        if len(cols) == 1:
            zeroed.append(cols[0])
        else:
            a, b = root(cols[0]), root(cols[1])
            parent[min(a, b)] = max(a, b)
    dead = {root(u) for u in zeroed}
    components: dict[int, dict[int, int]] = {}
    for u in range(n_cols):
        r = root(u)
        if r not in dead:
            components.setdefault(r, {})[u] = 1
    return [components[r] for r in sorted(components)]
