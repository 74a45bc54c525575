import pytest

from fiberdt.geometry import (
    FibrationSpec,
    HodgeDiamond,
    InvalidDiamond,
    K_TRIVIAL_SURFACE_NAMES,
    curve_diamond,
    registry_lookup,
    surface_names,
    surface_with_euler_number,
)
from fiberdt.polyseries import BivariatePolynomial

ALL_REGISTRY = ["point", "curve(0)", "curve(1)", "curve(2)", "curve(3)", "p2", "p1xp1", "k3", "abelian"]


def test_registry_diamonds_validate():
    # Construction runs the invariant checks, so lookup succeeding is the test.
    for name in ALL_REGISTRY:
        diamond = registry_lookup(name)
        assert diamond.hodge(0, 0) == 1


def test_registry_unknown_name():
    with pytest.raises(ValueError, match="unknown geometry"):
        registry_lookup("bad")


def test_curve_diamonds():
    c0 = registry_lookup("curve(0)")
    assert c0.grid == ((1, 0), (0, 1))
    c2 = curve_diamond(2)
    assert c2.hodge(1, 0) == 2 and c2.hodge(0, 1) == 2


def test_registry_values():
    assert registry_lookup("p1xp1").euler_number() == 4
    k3 = registry_lookup("k3")
    assert k3.hodge(1, 1) == 20 and k3.hodge(2, 0) == 1


def test_e_polynomial_examples():
    assert curve_diamond(1).e_polynomial() == BivariatePolynomial(
        {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}
    )
    assert registry_lookup("k3").e_polynomial() == BivariatePolynomial(
        {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1}
    )
    assert registry_lookup("point").e_polynomial() == BivariatePolynomial.one()


def test_euler_numbers():
    assert registry_lookup("p2").euler_number() == 3
    assert registry_lookup("abelian").euler_number() == 0
    assert registry_lookup("k3").euler_number() == 24


def test_euler_number_matches_direct_sum():
    for name in ALL_REGISTRY:
        diamond = registry_lookup(name)
        direct = sum(
            (-1) ** (i + j) * diamond.hodge(i, j)
            for i in range(diamond.dim + 1)
            for j in range(diamond.dim + 1)
        )
        assert diamond.euler_number() == direct


def test_e_polynomial_symmetric():
    for name in ALL_REGISTRY:
        e = registry_lookup(name).e_polynomial()
        assert e.swap_variables() == e


# --- fibrations -------------------------------------------------------------


def test_fibration_e_polynomial_k3_elliptic():
    fib = FibrationSpec.from_surface_name("k3", 1)
    expected = curve_diamond(1).e_polynomial() * registry_lookup("k3").e_polynomial()
    assert fib.e_polynomial() == expected


def test_fibration_rational_fiber():
    fib = FibrationSpec.from_surface_name("p2", 0)
    one_plus_st = BivariatePolynomial({(0, 0): 1, (1, 1): 1})
    assert fib.e_polynomial() == one_plus_st * registry_lookup("p2").e_polynomial()


def test_fibration_euler_factorizes():
    for name in surface_names():
        chi = registry_lookup(name).euler_number()
        for g in (0, 1, 2, 3):
            fib = FibrationSpec.from_surface_name(name, g)
            assert fib.euler_number() == chi * (2 - 2 * g)


def test_fibration_requires_surface_base():
    with pytest.raises(ValueError, match="surface"):
        FibrationSpec(curve_diamond(1), 1)
    with pytest.raises(ValueError, match="not a surface"):
        FibrationSpec.from_surface_name("point", 1)


def test_fibration_canonical_flag():
    for name in surface_names():
        fib = FibrationSpec.from_surface_name(name, 1)
        assert fib.base_canonical_trivial == (name in K_TRIVIAL_SURFACE_NAMES)
    assert K_TRIVIAL_SURFACE_NAMES == {"k3", "abelian"}


def test_virtual_dimension_sign():
    assert FibrationSpec.from_surface_name("k3", 1).virtual_dimension() == 0
    assert FibrationSpec.from_surface_name("p2", 1, beta_dot_kx=5).virtual_dimension() == -5
    assert FibrationSpec.from_surface_name("p2", 1, beta_dot_kx=-2).virtual_dimension() == 2


# --- synthetic surfaces -----------------------------------------------------


@pytest.mark.parametrize("chi", [-5, -1, 0, 1, 2, 3, 4, 7, 24])
def test_surface_with_euler_number(chi):
    diamond = surface_with_euler_number(chi)
    assert diamond.dim == 2
    assert diamond.euler_number() == chi


# --- validation and JSON ----------------------------------------------------


def test_json_round_trip():
    k3 = registry_lookup("k3")
    assert HodgeDiamond.from_json(k3.to_json()) == k3


def test_json_dim_mismatch():
    with pytest.raises(InvalidDiamond, match="shape"):
        HodgeDiamond.from_json({"dim": 3, "h": [[1]]})


def test_conjugation_symmetry_violation_named():
    with pytest.raises(InvalidDiamond, match="conjugation symmetry"):
        HodgeDiamond([[1, 2], [0, 1]])


def test_serre_duality_violation_named():
    with pytest.raises(InvalidDiamond, match="Serre duality"):
        HodgeDiamond([[1, 0, 0], [0, 1, 0], [0, 0, 2]])


def test_h00_violation_named():
    with pytest.raises(InvalidDiamond, match=r"h\^\{0,0\} = 1"):
        HodgeDiamond([[2, 0], [0, 2]])


def test_negative_entry_rejected():
    with pytest.raises(InvalidDiamond, match="nonnegative"):
        HodgeDiamond([[1, -1], [-1, 1]])


def test_boolean_entry_rejected():
    # True == 1, but it would serialize as `true` and change cache keys.
    with pytest.raises(InvalidDiamond, match="nonnegative integers"):
        HodgeDiamond([[True, 0, 0], [0, 1, 0], [0, 0, True]])


def test_non_square_rejected():
    with pytest.raises(InvalidDiamond, match="shape"):
        HodgeDiamond([[1, 0], [0]])
