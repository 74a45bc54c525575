import random
from fractions import Fraction

import pytest

import linalg_reference
from fiberdt.linalg import nullspace


def random_systems(seed, count):
    """Seeded equality-and-zero systems: random equalities in either order
    (which close cycles), a closed cycle, zeroed unknowns, and unknowns that
    no row touches."""
    rng = random.Random(seed)
    for _ in range(count):
        n_cols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, 8)):
            u, v = rng.sample(range(n_cols), 2) if n_cols > 1 else (0, 0)
            if u != v and rng.random() < 0.7:
                rows.append((u, v))
            else:
                rows.append((u,))
        if n_cols > 2 and rng.random() < 0.5:
            cycle = rng.sample(range(n_cols), 3)
            rows += [(cycle[k], cycle[k - 1]) for k in range(3)]
        rng.shuffle(rows)
        yield rows, n_cols


def indicator(component):
    """The 0/1 kernel vector of a component, as a ``{column: int}`` map."""
    return dict.fromkeys(component, 1)


def annihilates(component, rows):
    """Whether the indicator of ``component`` solves every edge row."""
    vec = indicator(component)
    return all(
        sum(x * vec.get(c, 0) for c, x in row.items()) == 0
        for row in linalg_reference.dict_rows(rows)
    )


def test_nullspace_full():
    # No rows: every unknown is a component of its own.
    assert nullspace([], 3) == [(0,), (1,), (2,)]
    assert nullspace([], 0) == []


def test_nullspace_trivial():
    assert nullspace([(0,), (1,)], 2) == []
    assert nullspace([(0, 1), (1,)], 2) == []


def test_nullspace_known_kernels():
    # A zeroed unknown leaves the kernel, with its whole component.
    assert nullspace([(1,)], 3) == [(0,), (2,)]
    rows = [(0, 1), (2, 1), (2,), (3, 4)]
    assert nullspace(rows, 5) == [(3, 4)]
    # A cycle of equalities is one component.
    assert nullspace([(0, 1), (1, 2), (2, 0)], 3) == [(0, 1, 2)]
    # Components are sorted by their largest column.
    assert nullspace([(0, 2)], 3) == [(1,), (0, 2)]
    assert nullspace([(3, 0), (1, 2)], 4) == [(1, 2), (0, 3)]


def test_nullspace_vectors_are_primitive_integers():
    # Every kernel vector is the 0/1 indicator of its component, given as the
    # sorted tuple of its distinct unknowns, and the components are disjoint.
    for rows, n_cols in random_systems(seed=7, count=200):
        basis = nullspace(rows, n_cols)
        assert all(type(c) is tuple and list(c) == sorted(set(c)) for c in basis)
        columns = [u for component in basis for u in component]
        assert len(columns) == len(set(columns))


def test_nullspace_annihilates():
    rows = [(0, 3), (4, 3), (1,), (2, 5), (5, 1), (6, 7)]
    basis = nullspace(rows, 8)
    assert basis == [(0, 3, 4), (6, 7)]
    assert all(annihilates(component, rows) for component in basis)


def test_matches_dense_fraction_reference():
    for rows, n_cols in random_systems(seed=20, count=600):
        basis = nullspace(rows, n_cols)
        reference_rows = linalg_reference.dict_rows(rows)
        assert [indicator(c) for c in basis] == linalg_reference.nullspace(
            reference_rows, n_cols
        ), (rows, n_cols)
        assert len(basis) + linalg_reference.rank(reference_rows, n_cols) == n_cols
        assert all(annihilates(component, rows) for component in basis)


def test_reference_on_a_general_matrix():
    # The reference itself, on rows no Hom system has.
    rows = [{0: 3, 1: 1, 3: 2}, {1: 5, 2: 1, 3: 1}, {0: 3, 1: 6, 2: 1, 3: 3}]
    assert linalg_reference.rank(rows, 4) == 2
    assert linalg_reference.nullspace([{0: 2, 2: 1}, {1: 2, 2: 1}], 3) == [{0: 1, 1: 1, 2: -2}]


@pytest.mark.parametrize(
    "row",
    (
        # A dict is not a row, whatever its coefficients.
        pytest.param({0: 1}, id="dict-zero"),
        pytest.param({0: 1, 1: -1}, id="dict-equality"),
        pytest.param({0: 2}, id="coefficient-2"),
        pytest.param({0: 2, 1: -2}, id="equality-times-2"),
        pytest.param({0: 1, 1: 1}, id="two-plus"),
        pytest.param({0: -1, 1: -1}, id="two-minus"),
        pytest.param({0: 1, 1: 0}, id="stored-zero"),
        pytest.param((0, 1, 2), id="three-entries"),
        pytest.param((0, 0), id="u-equals-v"),
        pytest.param((3,), id="column-out-of-range"),
        pytest.param((-1,), id="negative-column"),
        pytest.param((0, True), id="bool-column"),
        pytest.param(True, id="bool"),
        pytest.param((), id="empty"),
        pytest.param([0, 1], id="dense-list"),
        pytest.param((1, -1, 0), id="dense-tuple"),
    ),
)
def test_rejects_every_other_row_shape(row):
    with pytest.raises(ValueError, match="neither"):
        nullspace([(0, 1), row], 3)


def test_rejects_non_integer_entries():
    for column in (True, 1.0, Fraction(1), Fraction(1, 2)):
        with pytest.raises(ValueError, match="neither"):
            nullspace([(column,)], 2)
        with pytest.raises(ValueError, match="neither"):
            nullspace([(0, column)], 2)
