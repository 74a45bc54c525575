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
from series_reference import transposed

SURFACES = ("abelian", "k3", "p1xp1", "p2")
POINT = HodgeDiamond([[1]])
# Every diamond the package builds itself: the point, curves and the surfaces.
ALL_DIAMONDS = [POINT, *map(curve_diamond, range(4)), *map(registry_lookup, SURFACES)]


def test_registry_diamonds_validate():
    # Construction runs the invariant checks, so building them is the test.
    for diamond in ALL_DIAMONDS:
        assert diamond.grid[0][0] == 1


def test_registry_holds_exactly_the_four_surfaces():
    assert surface_names() == SURFACES
    for name in SURFACES:
        assert registry_lookup(name).dim == 2


def test_registry_unknown_name():
    for name in ("bad", "point", "curve(0)", "curve(1)", "P2", ""):
        with pytest.raises(ValueError, match="unknown geometry"):
            registry_lookup(name)


def test_curve_diamonds():
    assert curve_diamond(0).grid == ((1, 0), (0, 1))
    c2 = curve_diamond(2)
    assert c2.grid[1][0] == 2 and c2.grid[0][1] == 2
    with pytest.raises(ValueError, match="nonnegative"):
        curve_diamond(-1)


def test_registry_values():
    assert registry_lookup("p1xp1").euler_number() == 4
    k3 = registry_lookup("k3")
    assert k3.grid[1][1] == 20 and k3.grid[2][0] == 1


def test_e_polynomial_examples():
    assert curve_diamond(1).e_polynomial() == BivariatePolynomial(
        {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}
    )
    assert registry_lookup("k3").e_polynomial() == BivariatePolynomial(
        {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1}
    )
    assert POINT.e_polynomial() == BivariatePolynomial({(0, 0): 1})


def test_euler_numbers():
    assert registry_lookup("p2").euler_number() == 3
    assert registry_lookup("abelian").euler_number() == 0
    assert registry_lookup("k3").euler_number() == 24


def test_euler_number_matches_direct_sum():
    for diamond in ALL_DIAMONDS:
        direct = sum(
            (-1) ** (i + j) * diamond.grid[i][j]
            for i in range(diamond.dim + 1)
            for j in range(diamond.dim + 1)
        )
        assert diamond.euler_number() == direct


def test_e_polynomial_symmetric():
    for diamond in ALL_DIAMONDS:
        e = diamond.e_polynomial()
        assert transposed(e) == e


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
    for diamond in (POINT, curve_diamond(1)):
        with pytest.raises(ValueError, match="must be a surface"):
            FibrationSpec(diamond, 1)
    with pytest.raises(ValueError, match="unknown geometry"):
        FibrationSpec.from_surface_name("point", 1)


def test_fibration_canonical_flag():
    for name in surface_names():
        fib = FibrationSpec.from_surface_name(name, 1)
        assert fib.base_canonical_trivial == (name in K_TRIVIAL_SURFACE_NAMES)
    assert K_TRIVIAL_SURFACE_NAMES == {"k3", "abelian"}


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


@pytest.mark.parametrize("dim", (2.0, True, "2"), ids=("float", "bool", "string"))
def test_json_dim_must_be_an_int(dim):
    # 2.0 == 2, and True == 1 is the dimension of a curve.
    h = curve_diamond(1).grid if dim is True else registry_lookup("k3").grid
    with pytest.raises(InvalidDiamond, match="shape"):
        HodgeDiamond.from_json({"dim": dim, "h": h})


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
