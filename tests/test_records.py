"""The frozen record types: construction, validation, immutability, equality,
hashing, repr and (for partitions) ordering."""

import pickle

import pytest

from fiberdt.geometry import FibrationSpec, HodgeDiamond, InvalidDiamond, registry_lookup
from fiberdt.localhom import (
    LINE_IDEAL,
    LINE_WITH_EMBEDDED_POINT_IDEAL,
    HomSolution,
    MonomialIdeal,
    hom_dimension,
    standard_monomials,
)
from fiberdt.oracles import Partition, partitions_of
from fiberdt.polyseries import BivariatePolynomial, TruncatedSeries

K3 = registry_lookup("k3")
ONE = BivariatePolynomial({(0, 0): 1})
SERIES = TruncatedSeries([ONE, BivariatePolynomial({(1, 1): -2})])


def test_monomial_ideal_construction_and_default():
    gens = ((1, 0, 0), (0, 1, 0))
    for ideal in (MonomialIdeal(gens), MonomialIdeal(gens=gens)):
        assert ideal.gens == gens
        assert ideal._fields == ("gens",)
    with pytest.raises(TypeError):
        MonomialIdeal(gens, False)


@pytest.mark.parametrize(
    "gens, message",
    (
        ((), "at least one generator"),
        (((1, 0),), "not a triple"),
        (((1, 0, -1),), "not a triple"),
        (((True, 0, 0),), "not a triple"),
        (((1, 0, 0), (2, 0, 0)), "divides"),
        # Equal tuple literals are one object: minimality compares by position.
        (((1, 0, 0), (1, 0, 0), (0, 1, 0)), "divides"),
    ),
)
def test_monomial_ideal_rejects(gens, message):
    with pytest.raises(ValueError, match=message):
        MonomialIdeal(gens)


def test_fibration_spec_construction_and_defaults():
    for spec in (FibrationSpec(K3, 1), FibrationSpec(base=K3, fiber_genus=1)):
        assert (spec.base, spec.fiber_genus) == (K3, 1)
        assert spec.base_canonical_trivial is False
        assert spec._fields == ("base", "fiber_genus", "base_canonical_trivial")
    spec = FibrationSpec(K3, 2, base_canonical_trivial=True)
    assert (spec.fiber_genus, spec.base_canonical_trivial) == (2, True)
    assert FibrationSpec.from_surface_name("k3", 1) == FibrationSpec(K3, 1, True)


@pytest.mark.parametrize("genus", (0, 1, 2, 3))
def test_fibration_spec_beta_dot_kx_is_read_off_the_fiber_genus(genus):
    # Adjunction on a fiber, whose normal bundle is trivial: beta.K_X = 2g - 2.
    assert FibrationSpec(K3, genus).beta_dot_kx == 2 * genus - 2
    assert FibrationSpec.from_surface_name("abelian", genus).beta_dot_kx == 2 * genus - 2


def test_fibration_spec_takes_no_beta():
    with pytest.raises(TypeError):
        FibrationSpec(K3, 1, 0, True)
    with pytest.raises(TypeError):
        FibrationSpec(K3, 1, beta_dot_kx=0)
    with pytest.raises(TypeError):
        FibrationSpec.from_surface_name("k3", 1, 0)
    with pytest.raises(AttributeError):
        FibrationSpec(K3, 1).beta_dot_kx = 0


def test_fibration_spec_rejects():
    with pytest.raises(ValueError, match="must be a surface"):
        FibrationSpec(HodgeDiamond([[1]]), 1)
    with pytest.raises(ValueError, match="nonnegative"):
        FibrationSpec(K3, -1)


def test_partition_construction_and_rejects():
    assert Partition((3, 1, 1)).parts == Partition(parts=(3, 1, 1)).parts == (3, 1, 1)
    assert Partition((3, 1, 1)).size == 5
    with pytest.raises(ValueError, match="positive"):
        Partition((2, 0))
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition((1, 2))


def test_partition_order_is_unchanged():
    # The order of the frozen dataclass with order=True: by the parts tuple.
    partitions = partitions_of(6)
    assert [p.parts for p in sorted(partitions)] == sorted(p.parts for p in partitions)
    assert sorted(partitions)[0] == Partition((1, 1, 1, 1, 1, 1))
    assert sorted(partitions)[-1] == Partition((6,))
    assert Partition((2, 1)) < Partition((2, 2)) < Partition((3,))


def test_hom_solution_fields():
    assert HomSolution._fields == ("ideal", "d_max", "basis", "basis_maps")
    basis = standard_monomials(LINE_IDEAL, 2)
    assert basis == ((0, 0, 0), (0, 0, 1), (0, 0, 2))
    solution = hom_dimension(LINE_IDEAL, 2)
    fields = dict(ideal=LINE_IDEAL, d_max=2, basis=basis, basis_maps=solution.basis_maps)
    assert HomSolution(**fields) == solution
    assert HomSolution(*fields.values()) == solution


@pytest.mark.parametrize("ideal, d_max", ((LINE_IDEAL, 2), (LINE_WITH_EMBEDDED_POINT_IDEAL, 3)))
def test_hom_solution_counts_are_read_off_the_basis_maps(ideal, d_max):
    solution = hom_dimension(ideal, d_max)
    assert solution.dimension == len(solution.basis_maps)
    assert solution.n_unknowns == len(ideal.gens) * len(solution.basis)
    assert solution.rank == solution.n_unknowns - solution.dimension


def _records():
    return (
        MonomialIdeal(((1, 0, 0), (0, 1, 0))),
        hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, 1),
        FibrationSpec(K3, 1, True),
        Partition((2, 1)),
        HodgeDiamond([[1, 0, 1], [0, 20, 0], [1, 0, 1]]),
        TruncatedSeries([ONE, BivariatePolynomial({(1, 1): -2})]),
    )


@pytest.mark.parametrize(
    "index, field",
    ((0, "gens"), (1, "basis"), (2, "fiber_genus"), (3, "parts"), (4, "grid"), (5, "coefficients")),
)
def test_records_are_frozen(index, field):
    record = _records()[index]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_hom_solution_is_frozen():
    solution = hom_dimension(LINE_IDEAL, 1)
    for count in ("dimension", "rank", "n_unknowns"):
        with pytest.raises(AttributeError):
            setattr(solution, count, 0)


def test_hom_solution_images_cannot_be_edited_in_place():
    solution = hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, 1)
    assert all(type(image) is tuple for images in solution.basis_maps for image in images)
    images = solution.basis_maps[0]
    image = next(image for image in images if image)
    with pytest.raises(TypeError):
        image[0] = image[0] + 1
    with pytest.raises(AttributeError):
        image.append(0)
    with pytest.raises(TypeError):
        images[0] = ()
    with pytest.raises(TypeError):
        solution.basis_maps[0] = ()


@pytest.mark.parametrize("index", range(5))
def test_equal_records_hash_equal(index):
    first, second = _records()[index], _records()[index]
    assert first == second
    assert hash(first) == hash(second)


def test_equal_series_are_equal_and_unhashable():
    # A polynomial defines equality but no hash, so its series has none either.
    first, second = _records()[5], _records()[5]
    assert first == second
    for value in (first, ONE):
        with pytest.raises(TypeError):
            hash(value)


def test_repr_keeps_the_dataclass_form():
    assert repr(MonomialIdeal(((1, 0, 0), (0, 1, 0)))) == (
        "MonomialIdeal(gens=((1, 0, 0), (0, 1, 0)))"
    )
    assert repr(FibrationSpec(K3, 1)) == (
        f"FibrationSpec(base={K3!r}, fiber_genus=1, base_canonical_trivial=False)"
    )
    assert repr(Partition((2, 1))) == "Partition(parts=(2, 1))"
    assert repr(K3) == "HodgeDiamond(grid=((1, 0, 1), (0, 20, 0), (1, 0, 1)))"
    assert repr(SERIES) == (
        "TruncatedSeries(coefficients=(BivariatePolynomial({(0, 0): 1}), "
        "BivariatePolynomial({(1, 1): -2})))"
    )
    solution = hom_dimension(LINE_IDEAL, 0)
    assert repr(solution) == (
        f"HomSolution(ideal={LINE_IDEAL!r}, d_max=0, basis=((0, 0, 0),), "
        f"basis_maps={solution.basis_maps!r})"
    )


def test_hodge_diamond_construction():
    assert HodgeDiamond._fields == ("grid",)
    rows = [[1, 0, 1], [0, 20, 0], [1, 0, 1]]
    for diamond in (HodgeDiamond(rows), HodgeDiamond(grid=rows), HodgeDiamond(K3.grid)):
        assert diamond == K3
        assert diamond.grid == ((1, 0, 1), (0, 20, 0), (1, 0, 1))
    with pytest.raises(TypeError):
        HodgeDiamond(K3.grid, 2)


# Protocols 0 and 1 rebuild a tuple subclass without calling __new__, as they
# do for every record here; protocol 2 and later call it with the grid.
@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_hodge_diamond_pickle_round_trip_validates(protocol):
    assert pickle.loads(pickle.dumps(K3, protocol)) == K3
    # _make skips __new__, so it can hold a grid that validation rejects.
    unchecked = HodgeDiamond._make([((2,),)])
    data = pickle.dumps(unchecked, protocol)
    with pytest.raises(InvalidDiamond, match=r"h\^\{0,0\} = 1"):
        pickle.loads(data)


def test_truncated_series_construction():
    assert TruncatedSeries._fields == ("coefficients",)
    coefficients = list(SERIES.coefficients)
    for series in (TruncatedSeries(coefficients), TruncatedSeries(coefficients=iter(coefficients))):
        assert series == SERIES
        assert type(series.coefficients) is tuple
    assert SERIES.q_max == 1
    with pytest.raises(TypeError):
        TruncatedSeries(SERIES.coefficients, 1)


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_truncated_series_pickle_round_trip_validates(protocol):
    assert pickle.loads(pickle.dumps(SERIES, protocol)) == SERIES
    # _make skips __new__, so it can hold a coefficient that validation rejects.
    unchecked = TruncatedSeries._make([(ONE, 0)])
    data = pickle.dumps(unchecked, protocol)
    with pytest.raises(ValueError, match="each a BivariatePolynomial"):
        pickle.loads(data)
