"""The frozen record types: construction, validation, immutability, equality,
hashing, repr and (for partitions) ordering."""

import pytest

from fiberdt.geometry import FibrationSpec, HodgeDiamond, registry_lookup
from fiberdt.localhom import (
    LINE_IDEAL,
    HomSolution,
    MonomialIdeal,
    TruncatedQuotient,
    hom_dimension,
    standard_monomials,
)
from fiberdt.oracles import Partition, partitions_of

K3 = registry_lookup("k3")


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


def test_truncated_quotient_and_hom_solution_fields():
    quotient = standard_monomials(LINE_IDEAL, 2)
    assert quotient == TruncatedQuotient(LINE_IDEAL, 2, ((0, 0, 0), (0, 0, 1), (0, 0, 2)))
    assert quotient == TruncatedQuotient(ideal=LINE_IDEAL, d_max=2, basis=quotient.basis)
    solution = hom_dimension(LINE_IDEAL, 2)
    fields = dict(
        ideal=LINE_IDEAL, d_max=2, quotient=quotient, dimension=6, rank=solution.rank,
        n_unknowns=6, basis_maps=solution.basis_maps,
    )
    assert HomSolution(**fields) == solution
    assert HomSolution(*fields.values()) == solution


def _records():
    return (
        MonomialIdeal(((1, 0, 0), (0, 1, 0))),
        TruncatedQuotient(LINE_IDEAL, 0, ((0, 0, 0),)),
        FibrationSpec(K3, 1, True),
        Partition((2, 1)),
    )


@pytest.mark.parametrize("index, field", ((0, "gens"), (1, "basis"), (2, "fiber_genus"), (3, "parts")))
def test_records_are_frozen(index, field):
    record = _records()[index]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_hom_solution_is_frozen():
    solution = hom_dimension(LINE_IDEAL, 1)
    with pytest.raises(AttributeError):
        solution.dimension = 0


@pytest.mark.parametrize("index", range(4))
def test_equal_records_hash_equal(index):
    first, second = _records()[index], _records()[index]
    assert first == second
    assert hash(first) == hash(second)


def test_repr_keeps_the_dataclass_form():
    assert repr(MonomialIdeal(((1, 0, 0), (0, 1, 0)))) == (
        "MonomialIdeal(gens=((1, 0, 0), (0, 1, 0)))"
    )
    assert repr(TruncatedQuotient(LINE_IDEAL, 0, ((0, 0, 0),))) == (
        f"TruncatedQuotient(ideal={LINE_IDEAL!r}, d_max=0, basis=((0, 0, 0),))"
    )
    assert repr(FibrationSpec(K3, 1)) == (
        f"FibrationSpec(base={K3!r}, fiber_genus=1, base_canonical_trivial=False)"
    )
    assert repr(Partition((2, 1))) == "Partition(parts=(2, 1))"
    solution = hom_dimension(LINE_IDEAL, 0)
    assert repr(solution).startswith(f"HomSolution(ideal={LINE_IDEAL!r}, d_max=0, quotient=")
    assert repr(solution).endswith(f"basis_maps={solution.basis_maps!r})")
