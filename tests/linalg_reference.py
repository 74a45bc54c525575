"""Reference linear algebra: dense Gauss-Jordan elimination over ``Fraction``.

Tests check the union-find ``linalg.nullspace`` and the rank that
``hom_dimension`` reports against the functions here.  Rows and kernel
vectors are ``{column: int}`` maps, as in the package, but the elimination
runs on dense rational rows and shares no code with the package.
"""

from fractions import Fraction
from math import gcd


def dense_rref(rows, n_cols):
    """Reduced echelon form of ``{column: int}`` rows: dense rows with rational
    pivots of 1, and the pivot columns."""
    mat = [[Fraction(row.get(c, 0)) for c in range(n_cols)] for row in rows]
    pivots = []
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
    return mat[:r], pivots


def rank(rows, n_cols):
    return len(dense_rref(rows, n_cols)[1])


def nullspace(rows, n_cols):
    """Kernel basis, one primitive integer vector with positive lead per free
    column, as a ``{column: int}`` map of its nonzero entries."""
    mat, pivots = dense_rref(rows, n_cols)
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][free]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in vec]
        g = gcd(*ints)
        sign = -1 if next(v for v in ints if v) < 0 else 1
        basis.append({c: sign * v // g for c, v in enumerate(ints) if v})
    return basis
