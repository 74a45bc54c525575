import random
from collections.abc import Mapping
from fractions import Fraction

import pytest

import linalg_reference
from fiberdt.linalg import nullspace


class RepeatedColumn(Mapping):
    """A row that lists column 0 twice, with entries 1 and -1 (a dict cannot)."""

    def __getitem__(self, column):
        return {0: 1}[column]

    def __iter__(self):
        return iter((0, 0))

    def __len__(self):
        return 2

    def items(self):
        return [(0, 1), (0, -1)]


def random_systems(seed, count):
    """Seeded equality-and-zero systems: random equalities in either order
    (which close cycles), a closed cycle, zeroed unknowns with either sign,
    and unknowns that no row touches."""
    rng = random.Random(seed)
    for _ in range(count):
        n_cols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, 8)):
            u, v = rng.sample(range(n_cols), 2) if n_cols > 1 else (0, 0)
            if u != v and rng.random() < 0.7:
                rows.append({u: 1, v: -1})
            else:
                rows.append({u: rng.choice((1, -1))})
        if n_cols > 2 and rng.random() < 0.5:
            cycle = rng.sample(range(n_cols), 3)
            rows += [{cycle[k]: 1, cycle[k - 1]: -1} for k in range(3)]
        rng.shuffle(rows)
        yield rows, n_cols


def test_nullspace_full():
    # No rows: every unknown is a component of its own.
    assert nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert nullspace([], 0) == []


def test_nullspace_trivial():
    assert nullspace([{0: 1}, {1: -1}], 2) == []
    assert nullspace([{0: 1, 1: -1}, {1: 1}], 2) == []


def test_nullspace_known_kernels():
    # A zeroed unknown leaves the kernel, with its whole component.
    assert nullspace([{1: 1}], 3) == [{0: 1}, {2: 1}]
    rows = [{0: 1, 1: -1}, {2: 1, 1: -1}, {2: -1}, {3: 1, 4: -1}]
    assert nullspace(rows, 5) == [{3: 1, 4: 1}]
    # A cycle of equalities is one vector.
    assert nullspace([{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: -1}], 3) == [{0: 1, 1: 1, 2: 1}]
    # Vectors are sorted by the largest column of their component.
    assert nullspace([{0: 1, 2: -1}], 3) == [{1: 1}, {0: 1, 2: 1}]
    assert nullspace([{3: 1, 0: -1}, {1: 1, 2: -1}], 4) == [{1: 1, 2: 1}, {0: 1, 3: 1}]


def test_nullspace_vectors_are_primitive_integers():
    # Every kernel vector is the 0/1 indicator of its component, and the
    # components are disjoint.
    for rows, n_cols in random_systems(seed=7, count=200):
        basis = nullspace(rows, n_cols)
        assert all(x == 1 for vec in basis for x in vec.values())
        columns = [c for vec in basis for c in vec]
        assert len(columns) == len(set(columns))


def test_nullspace_annihilates():
    rows = [{0: 1, 3: -1}, {4: 1, 3: -1}, {1: -1}, {2: 1, 5: -1}, {5: 1, 1: -1}, {6: 1, 7: -1}]
    basis = nullspace(rows, 8)
    assert basis == [{0: 1, 3: 1, 4: 1}, {6: 1, 7: 1}]
    for vec in basis:
        for row in rows:
            assert sum(x * vec.get(c, 0) for c, x in row.items()) == 0


def test_matches_dense_fraction_reference():
    for rows, n_cols in random_systems(seed=20, count=600):
        basis = nullspace(rows, n_cols)
        assert basis == linalg_reference.nullspace(rows, n_cols), (rows, n_cols)
        assert len(basis) + linalg_reference.rank(rows, n_cols) == n_cols
        for vec in basis:
            for row in rows:
                assert sum(x * vec.get(c, 0) for c, x in row.items()) == 0


def test_reference_on_a_general_matrix():
    # The reference itself, on rows no Hom system has.
    rows = [{0: 3, 1: 1, 3: 2}, {1: 5, 2: 1, 3: 1}, {0: 3, 1: 6, 2: 1, 3: 3}]
    assert linalg_reference.rank(rows, 4) == 2
    assert linalg_reference.nullspace([{0: 2, 2: 1}, {1: 2, 2: 1}], 3) == [{0: 1, 1: 1, 2: -2}]


@pytest.mark.parametrize(
    "row",
    (
        pytest.param({0: 2}, id="coefficient-2"),
        pytest.param({0: 2, 1: -2}, id="equality-times-2"),
        pytest.param({0: 1, 1: 1}, id="two-plus"),
        pytest.param({0: -1, 1: -1}, id="two-minus"),
        pytest.param({0: 1, 1: -1, 2: 1}, id="three-entries"),
        pytest.param(RepeatedColumn(), id="u-equals-v"),
        pytest.param({2: 1}, id="column-out-of-range"),
        pytest.param({-1: 1}, id="negative-column"),
        pytest.param({0: 1, 1: 0}, id="stored-zero"),
        pytest.param({}, id="empty"),
        pytest.param([1, -1], id="dense-list"),
        pytest.param((1, -1), id="dense-tuple"),
    ),
)
def test_rejects_every_other_row_shape(row):
    with pytest.raises(ValueError, match="neither"):
        nullspace([{0: 1, 1: -1}, row], 2)


def test_rejects_non_integer_entries():
    for entry in (True, 1.0, Fraction(1), Fraction(1, 2)):
        with pytest.raises(ValueError, match="neither"):
            nullspace([{0: entry}], 2)
        with pytest.raises(ValueError, match="neither"):
            nullspace([{0: entry, 1: -1}], 2)
    # A bool column, although True == 1.
    with pytest.raises(ValueError, match="neither"):
        nullspace([{True: 1}], 2)
