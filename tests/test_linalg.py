from fractions import Fraction

from fiberdt.linalg import nullspace, rank, rref


def test_rref_identity():
    mat, pivots = rref([[1, 0], [0, 1]], 2)
    assert pivots == [0, 1]
    assert mat == [[1, 0], [0, 1]]


def test_rref_rational_pivot():
    mat, pivots = rref([[2, 4], [1, 2]], 2)
    assert pivots == [0]
    assert mat[0] == [Fraction(1), Fraction(2)]


def test_rank():
    assert rank([], 3) == 0
    assert rank([[0, 0, 0]], 3) == 0
    assert rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3) == 2


def test_nullspace_full():
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_nullspace_trivial():
    assert nullspace([[1, 0], [0, 1]], 2) == []


def test_nullspace_known_kernels():
    # Leading nonzero entries are normalized to be positive.
    assert nullspace([[1, 2], [1, 2]], 2) == [[2, -1]]
    assert nullspace([[1, 1], [2, 2]], 2) == [[1, -1]]
    assert nullspace([[2, 2, 2], [3, 3, 3]], 3) == [[1, -1, 0], [1, 0, -1]]


def test_nullspace_vectors_are_primitive_integers():
    basis = nullspace([[2, 0, 1], [0, 2, 1]], 3)
    assert basis == [[1, 1, -2]]


def test_nullspace_of_a_reduced_matrix():
    rows = [[3, 1, 0, 2], [0, 5, 1, 1], [3, 6, 1, 3]]
    mat, pivots = rref(rows, 4)
    assert nullspace(mat, 4, pivots=pivots) == nullspace(rows, 4)


def test_nullspace_annihilates():
    rows = [[3, 1, 0, 2], [0, 5, 1, 1], [3, 6, 1, 3]]
    for vec in nullspace(rows, 4):
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0
