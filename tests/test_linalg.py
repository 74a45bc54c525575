import random
from fractions import Fraction
from math import gcd

import pytest

from fiberdt.linalg import nullspace, rank, rref


def dense_fraction_rref(rows, n_cols):
    """Reference reduced echelon form: dense rows, exact rational pivots of 1."""
    mat = [[Fraction(x) for x in row] for row in rows]
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
    return mat, pivots


def dense_fraction_nullspace(rows, n_cols):
    """Reference kernel basis, one primitive vector with positive lead per free column."""
    mat, pivots = dense_fraction_rref(rows, n_cols)
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
        basis.append([sign * v // g for v in ints])
    return basis


def sparse(dense_rows):
    """``{column: int}`` form of dense rows or vectors, nonzero entries only."""
    return [{c: x for c, x in enumerate(row) if x} for row in dense_rows]


def random_matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n_rows, n_cols = rng.randint(0, 6), rng.randint(1, 7)
        density = rng.random()
        yield [
            [rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(n_cols)]
            for _ in range(n_rows)
        ], n_cols


def test_rref_identity():
    mat, pivots = rref([{0: 1}, {1: 1}], 2)
    assert pivots == [0, 1]
    assert mat == [{0: 1}, {1: 1}]


def test_rref_rational_pivot():
    mat, pivots = rref([{0: 2, 1: 4}, {0: 1, 1: 2}], 2)
    assert pivots == [0]
    assert mat[0] == {0: 1, 1: 2}


def test_rejects_non_integer_entries():
    for entry in (Fraction(1, 2), Fraction(2), 1.0, True):
        with pytest.raises(ValueError, match="integer"):
            rref([{0: 1, 1: entry}], 2)
        with pytest.raises(ValueError, match="integer"):
            nullspace([{0: entry}], 2)
    with pytest.raises(ValueError, match="column"):
        rank([{2: 1}], 2)
    # Dense rows are not accepted: every row is a {column: int} map.
    for row in ([1, 2], (1, 2), [1, 2, 3]):
        with pytest.raises(ValueError, match="map"):
            rank([row], 2)


def test_rank():
    assert rank([], 3) == 0
    assert rank([{}], 3) == 0
    assert rank([{0: 0, 2: 0}], 3) == 0
    assert rank(sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), 3) == 2


def test_nullspace_full():
    assert nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]


def test_nullspace_trivial():
    assert nullspace([{0: 1}, {1: 1}], 2) == []


def test_nullspace_known_kernels():
    # Leading nonzero entries are normalized to be positive.
    assert nullspace([{0: 1, 1: 2}, {0: 1, 1: 2}], 2) == [{0: 2, 1: -1}]
    assert nullspace([{0: 1, 1: 1}, {0: 2, 1: 2}], 2) == [{0: 1, 1: -1}]
    assert nullspace(sparse([[2, 2, 2], [3, 3, 3]]), 3) == [{0: 1, 1: -1}, {0: 1, 2: -1}]


def test_nullspace_vectors_are_primitive_integers():
    basis = nullspace([{0: 2, 2: 1}, {1: 2, 2: 1}], 3)
    assert basis == [{0: 1, 1: 1, 2: -2}]


def test_nullspace_of_a_reduced_matrix():
    rows = sparse([[3, 1, 0, 2], [0, 5, 1, 1], [3, 6, 1, 3]])
    mat, pivots = rref(rows, 4)
    assert nullspace(mat, 4, pivots=pivots) == nullspace(rows, 4)


def test_nullspace_annihilates():
    rows = sparse([[3, 1, 0, 2], [0, 5, 1, 1], [3, 6, 1, 3]])
    for vec in nullspace(rows, 4):
        for row in rows:
            assert sum(x * vec.get(c, 0) for c, x in row.items()) == 0


def test_matches_dense_fraction_reference():
    for rows, n_cols in random_matrices(seed=20, count=400):
        expected_mat, expected_pivots = dense_fraction_rref(rows, n_cols)
        expected = sparse(dense_fraction_nullspace(rows, n_cols))
        sparse_rows = sparse(rows)
        assert rank(sparse_rows, n_cols) == len(expected_pivots)
        assert nullspace(sparse_rows, n_cols) == expected
        mat, pivots = rref(sparse_rows, n_cols)
        assert pivots == expected_pivots
        for row, pc, reference in zip(mat, pivots, expected_mat):
            assert gcd(*row.values()) == 1 and row[pc] > 0
            assert [Fraction(row.get(c, 0), row[pc]) for c in range(n_cols)] == reference
        for vec in nullspace(sparse_rows, n_cols):
            assert all(vec.values())
            assert gcd(*vec.values()) == 1
            assert vec[min(vec)] > 0
            for row in rows:
                assert sum(r * vec.get(c, 0) for c, r in enumerate(row)) == 0
