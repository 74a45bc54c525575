"""Exact rational Gaussian elimination.

Row reduction, rank and nullspace bases over the rationals, using
``fractions.Fraction`` throughout.  Dimensions computed from these routines
are exact integers; no floating point is involved.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

__all__ = ["rref", "rank", "nullspace"]


def rref(rows: Sequence[Sequence[int | Fraction]], n_cols: int):
    """Reduced row echelon form.

    Returns (reduced rows, pivot column indices).  The input is not modified.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    for row in mat:
        if len(row) != n_cols:
            raise ValueError(f"row of length {len(row)} in a {n_cols}-column matrix")
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows: Sequence[Sequence[int | Fraction]], n_cols: int) -> int:
    return len(rref(rows, n_cols)[1])


def _primitive(vec: list[Fraction]) -> list[int]:
    # Scale a rational vector to a primitive integer vector with positive
    # leading entry.
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints


def nullspace(
    rows: Sequence[Sequence[int | Fraction]],
    n_cols: int,
    *,
    pivots: Sequence[int] | None = None,
) -> list[list[int]]:
    """A basis of the right nullspace, as primitive integer vectors.

    One basis vector per free column of the reduced echelon form; with no
    rows at all the result is the standard basis.  When ``pivots`` is given,
    ``rows`` must already be a reduced echelon form with those pivot columns,
    as returned by :func:`rref`, and no elimination is run.
    """
    if pivots is None:
        mat, pivots = rref(rows, n_cols)
    else:
        mat = rows
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][free]
        basis.append(_primitive(vec))
    return basis
