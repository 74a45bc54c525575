import random
from math import comb

import pytest

from fiberdt import formulas
from fiberdt.cli import HODGE_CAP
from fiberdt.formulas import (
    dt_table,
    euler_sequence,
    hilbert_euler_direct,
    hodge_series,
    ideal_sheaf_euler_direct,
    moduli_dimension,
    verify_series,
)
from fiberdt.geometry import (
    FibrationSpec,
    HodgeDiamond,
    curve_diamond,
    registry_lookup,
    surface_names,
    surface_with_euler_number,
)
from fiberdt.oracles import colored_partitions_count, nested_colored_count
from fiberdt.polyseries import BivariatePolynomial, TruncatedSeries, series_product
from series_reference import goettsche_hilbert, mul, padded, scaled

SURFACES = surface_names()


def surface(name):
    return registry_lookup(name)


# --- Hilbert-scheme series ---------------------------------------------------


def test_hilbert_series_constant_term():
    one = BivariatePolynomial({(0, 0): 1})
    for name in SURFACES:
        assert hodge_series("hilb", surface(name), 4).coefficients[0] == one


def test_hilbert_series_linear_term_is_surface_class():
    for name in SURFACES:
        S = surface(name)
        assert hodge_series("hilb", S, 4).coefficients[1] == S.e_polynomial()


@pytest.mark.parametrize("name", SURFACES)
def test_hilbert_series_matches_goettsche_plethystic_form(name):
    S = surface(name)
    assert hodge_series("hilb", S, 16) == goettsche_hilbert(S.grid, 16)


def test_hilbert_series_matches_goettsche_on_seeded_diamonds():
    rng = random.Random(19)
    for _ in range(12):
        h10, h20, h11 = rng.randrange(4), rng.randrange(4), rng.randrange(1, 25)
        S = HodgeDiamond([[1, h10, h20], [h10, h11, h10], [h20, h10, 1]])
        assert hodge_series("hilb", S, 12) == goettsche_hilbert(S.grid, 12), S


def signed_grid_factors(S, q_max):
    """The Hilbert-scheme factors read off the grid: (-1)^(i+j) h^{i,j} for
    each k and each (i, j) in row-major order, with no factor where h^{i,j}
    is 0."""
    return [
        (i + k - 1, j + k - 1, k, (-1) ** (i + j) * S.grid[i][j])
        for k in range(1, q_max + 1)
        for i in range(3)
        for j in range(3)
        if S.grid[i][j]
    ]


def test_surface_factors_are_the_signed_grid_in_order():
    rng = random.Random(29)
    entries = (0, 1, HODGE_CAP)
    seeded = [HodgeDiamond([[1, HODGE_CAP, HODGE_CAP], [HODGE_CAP] * 3, [HODGE_CAP, HODGE_CAP, 1]])]
    for _ in range(20):
        h10, h20, h11 = (rng.choice((*entries, rng.randrange(HODGE_CAP + 1))) for _ in range(3))
        seeded.append(HodgeDiamond([[1, h10, h20], [h10, h11, h10], [h20, h10, 1]]))
    for S in [*map(surface, SURFACES), *seeded]:
        for q_max in (0, 1, 6):
            assert list(formulas._surface_factors(S, q_max)) == signed_grid_factors(S, q_max), S


def test_hilbert_euler_chi_three():
    assert euler_sequence("hilb", surface("p2"), 3) == (1, 3, 9, 22)


def test_hilbert_euler_k3():
    # Hand expansion: q^2 gives C(25,2) + 24 = 324 and q^3 gives
    # C(26,3) + 24*24 + 24 = 3200.
    assert euler_sequence("hilb", surface("k3"), 3) == (1, 24, 324, 3200)


def test_hilbert_euler_abelian_vanishes():
    assert euler_sequence("hilb", surface("abelian"), 5) == (1, 0, 0, 0, 0, 0)


def test_hilbert_two_points_k3_hodge_numbers():
    # Frozen from the hand expansion of the second-order terms; the nonzero
    # entries reproduce the classical Hodge numbers 1, 21, 232 of the Hilbert
    # square of a K3 surface.
    expected = BivariatePolynomial(
        {
            (0, 0): 1,
            (1, 1): 21,
            (2, 0): 1,
            (0, 2): 1,
            (4, 0): 1,
            (0, 4): 1,
            (2, 2): 232,
            (3, 1): 21,
            (1, 3): 21,
            (4, 2): 1,
            (2, 4): 1,
            (3, 3): 21,
            (4, 4): 1,
        }
    )
    assert hodge_series("hilb", surface("k3"), 2).coefficients[2] == expected


def betti_numbers(poly):
    """b_k = (-1)^k times the sum of the coefficients of s^i t^j with i + j = k."""
    top = max(i + j for i, j in poly.terms)
    return [
        (-1) ** k * sum(c for (i, j), c in poly.terms.items() if i + j == k)
        for k in range(top + 1)
    ]


@pytest.mark.parametrize(
    "name, n, betti, euler",
    [
        # Ellingsrud-Stromme, Invent. Math. 87 (1987): even Betti numbers
        # 1, 2, 3, 2, 1 of P2^[2] and 1, 2, 5, 6, 5, 2, 1 of P2^[3].
        ("p2", 2, [1, 0, 2, 0, 3, 0, 2, 0, 1], 9),
        ("p2", 3, [1, 0, 2, 0, 5, 0, 6, 0, 5, 0, 2, 0, 1], 22),
        # Goettsche, Math. Ann. 286 (1990): K3^[3] and the abelian surface A^[2].
        ("k3", 3, [1, 0, 23, 0, 299, 0, 2554, 0, 299, 0, 23, 0, 1], 3200),
        ("abelian", 2, [1, 4, 13, 32, 44, 32, 13, 4, 1], 0),
    ],
)
def test_hilbert_scheme_betti_numbers(name, n, betti, euler):
    coefficient = hodge_series("hilb", surface(name), n).coefficients[n]
    assert betti_numbers(coefficient) == betti
    assert coefficient.eval_one() == euler == sum((-1) ** k * b for k, b in enumerate(betti))


def test_hilbert_euler_single_values():
    assert euler_sequence("hilb", surface("p1xp1"), 0)[0] == 1
    assert euler_sequence("hilb", surface("p2"), 3)[3] == 22
    assert euler_sequence("hilb", surface("k3"), 1)[1] == 24


def test_hilbert_requires_surface():
    with pytest.raises(ValueError, match="surface"):
        hodge_series("hilb", curve_diamond(1), 3)
    with pytest.raises(ValueError, match="surface"):
        hodge_series("incidence", HodgeDiamond([[1]]), 3)


# --- nested series -----------------------------------------------------------


def test_nested_series_constant_term_vanishes():
    for name in SURFACES:
        assert not hodge_series("incidence", surface(name), 3).coefficients[0]


def test_nested_series_linear_term_is_surface_class():
    for name in SURFACES:
        S = surface(name)
        assert hodge_series("incidence", S, 3).coefficients[1] == S.e_polynomial()


def test_nested_euler_matches_oracle():
    S = surface("p2")
    values = hodge_series("incidence", S, 5).euler_sequence()
    for m in range(4):
        assert values[m + 1] == nested_colored_count(3, m)


# --- ideal-sheaf series ------------------------------------------------------


def test_ideal_sheaf_linear_term_is_threefold_class():
    for name in SURFACES:
        for g in (0, 1, 2):
            fib = FibrationSpec.from_surface_name(name, g)
            series = hodge_series("im1", fib, 3)
            assert series.coefficients[1] == fib.e_polynomial()
            assert not series.coefficients[0]


def test_ideal_sheaf_factorizes_through_nested_series():
    # Multiplying the nested series of the base by the fiber class, inside
    # each coefficient, gives the same series computed with the total-space
    # class; the two evaluation orders must agree exactly.
    for name in SURFACES:
        for g in (0, 1, 2):
            fib = FibrationSpec.from_surface_name(name, g)
            nested = hodge_series("incidence", fib.base, 5)
            via_nested = scaled(nested, curve_diamond(g).e_polynomial())
            assert hodge_series("im1", fib, 5) == via_nested


def extra_point_reference(base, e, q_max):
    """q/(1 - s t q) times e times the Hilbert product of the base, by generic
    series multiplication."""
    chain = [BivariatePolynomial({(n - 1, n - 1): 1}) for n in range(1, q_max + 1)]
    return mul(
        mul(padded(q_max, [e]), TruncatedSeries([BivariatePolynomial(), *chain])),
        hodge_series("hilb", base, q_max),
    )


@pytest.mark.parametrize("q_max", (0, 1, 2, 12))
def test_extra_point_series_match_generic_multiplication(q_max):
    # p1xp1 (diagonal) and genus 3 seed the product with a start that spans
    # the band or widens the box.
    assert "p1xp1" in SURFACES
    for name in SURFACES:
        S = surface(name)
        assert hodge_series("incidence", S, q_max) == extra_point_reference(
            S, S.e_polynomial(), q_max
        )
        for g in (0, 1, 2, 3):
            fib = FibrationSpec.from_surface_name(name, g)
            assert hodge_series("im1", fib, q_max) == extra_point_reference(
                S, fib.e_polynomial(), q_max
            )


def test_ideal_sheaf_blowup_euler_identity():
    for name in SURFACES:
        chi_base = surface(name).euler_number()
        for g in (0, 1, 2):
            fib = FibrationSpec.from_surface_name(name, g)
            values = euler_sequence("im1", fib, 2)
            assert values[2] == fib.euler_number() * (1 + chi_base)


def test_ideal_sheaf_euler_values():
    fib = FibrationSpec.from_surface_name("p2", 0)  # chi of the 3-fold is 6
    assert euler_sequence("im1", fib, 1)[1] == 6
    assert euler_sequence("im1", fib, 2)[2] == 24


def test_ideal_sheaf_euler_vanishes_for_chi_zero_total_space():
    for name, g in (("abelian", 1), ("k3", 1), ("p2", 1)):
        fib = FibrationSpec.from_surface_name(name, g)
        assert fib.euler_number() == 0
        assert euler_sequence("im1", fib, 6) == (0,) * 7


def test_specialization_matches_direct_integer_routes():
    q_max = 8
    for name in SURFACES:
        S = surface(name)
        chi = S.euler_number()
        assert euler_sequence("hilb", S, q_max) == hilbert_euler_direct(chi, q_max)
        assert hodge_series("incidence", S, q_max).euler_sequence() == ideal_sheaf_euler_direct(
            chi, chi, q_max
        )
        assert euler_sequence("incidence", S, q_max) == ideal_sheaf_euler_direct(chi, chi, q_max)
        for g in (0, 1, 2):
            fib = FibrationSpec.from_surface_name(name, g)
            assert euler_sequence("im1", fib, q_max) == ideal_sheaf_euler_direct(
                fib.euler_number(), chi, q_max
            )


@pytest.mark.parametrize("q_max", (0, 1, 2, 30))
def test_euler_sequences_are_the_hodge_series_at_one(q_max):
    # The Euler sequences run the product at s = t = 1; they must equal the
    # Hodge series evaluated there.
    for name in SURFACES:
        S = surface(name)
        assert euler_sequence("hilb", S, q_max) == hodge_series("hilb", S, q_max).euler_sequence()
        assert (
            euler_sequence("incidence", S, q_max)
            == hodge_series("incidence", S, q_max).euler_sequence()
        )
    # The diamonds of the Euler oracle check (two of them have g = 1, so a box
    # layout and factors with e = -1): their Hodge series at s = t = 1 equal
    # partition enumeration as well as the Euler route.
    for chi in (1, 2, 3, 4):
        S = surface_with_euler_number(chi)
        euler = hodge_series("hilb", S, q_max).euler_sequence()
        assert euler_sequence("hilb", S, q_max) == euler
        for m in range(min(q_max, 6) + 1):
            assert euler[m] == colored_partitions_count(chi, m)
    for name in SURFACES:
        for g in (0, 1, 2, 3):
            fib = FibrationSpec.from_surface_name(name, g)
            assert (
                euler_sequence("im1", fib, q_max)
                == hodge_series("im1", fib, q_max).euler_sequence()
            )


def test_euler_sequences_are_the_hodge_series_at_one_on_seeded_diamonds():
    rng = random.Random(23)
    for _ in range(8):
        h10, h20, h11 = rng.randrange(4), rng.randrange(4), rng.randrange(1, 25)
        S = HodgeDiamond([[1, h10, h20], [h10, h11, h10], [h20, h10, 1]])
        fib = FibrationSpec(S, rng.randrange(4))
        for q_max in range(13):
            assert (
                euler_sequence("hilb", S, q_max) == hodge_series("hilb", S, q_max).euler_sequence()
            )
            assert (
                euler_sequence("incidence", S, q_max)
                == hodge_series("incidence", S, q_max).euler_sequence()
            )
            assert (
                euler_sequence("im1", fib, q_max)
                == hodge_series("im1", fib, q_max).euler_sequence()
            ), (S, fib.fiber_genus, q_max)


def test_euler_sequence_rejects_a_wrong_kind_or_geometry():
    # hodge_series takes kind and geometry by the same rule.
    S, fib = surface("k3"), FibrationSpec.from_surface_name("k3", 1)
    for build in (euler_sequence, hodge_series):
        with pytest.raises(ValueError, match="unknown series kind"):
            build("nested", S, 2)
        with pytest.raises(ValueError, match="a FibrationSpec"):
            build("im1", S, 2)
        for kind in ("hilb", "incidence"):
            with pytest.raises(ValueError, match="a surface HodgeDiamond"):
                build(kind, fib, 2)
            with pytest.raises(ValueError, match="surface"):
                build(kind, curve_diamond(1), 2)
        with pytest.raises(ValueError, match="nonnegative"):
            build("hilb", S, -1)


def test_euler_sequence_checks_itself_against_the_direct_route(monkeypatch):
    def wrong(chi, q_max):
        return (1,) + (0,) * q_max

    # The direct route of incidence and im1 sums this one.
    monkeypatch.setattr(formulas, "hilbert_euler_direct", wrong)
    S = surface("p2")
    for kind, geometry in (("hilb", S), ("incidence", S), ("im1", FibrationSpec(S, 0))):
        with pytest.raises(RuntimeError, match="direct integer series"):
            euler_sequence(kind, geometry, 3)


def test_all_series_coefficients_symmetric():
    for name in SURFACES:
        S = surface(name)
        for series in (
            hodge_series("hilb", S, 5),
            hodge_series("incidence", S, 5),
            hodge_series("im1", FibrationSpec.from_surface_name(name, 2), 5),
        ):
            for poly in series.coefficients:
                assert poly.swap_variables() == poly


# --- cross-checks ------------------------------------------------------------


def _registry_series(name, q_max):
    """(kind, geometry, series) of every kind over the surface, im1 at fiber
    genus 0, 1 and 2."""
    S = surface(name)
    yield "hilb", S, hodge_series("hilb", S, q_max)
    yield "incidence", S, hodge_series("incidence", S, q_max)
    for g in (0, 1, 2):
        fib = FibrationSpec.from_surface_name(name, g)
        yield "im1", fib, hodge_series("im1", fib, q_max)


@pytest.mark.parametrize("name", SURFACES)
def test_verify_series_passes_on_every_registry_surface(name):
    for q_max in range(9):
        for kind, geometry, series in _registry_series(name, q_max):
            verify_series(kind, geometry, series)


def _with_extra_term(series, m, i, j):
    coeffs = list(series.coefficients)
    terms = dict(coeffs[m].terms)
    terms[i, j] = terms.get((i, j), 0) + 1
    coeffs[m] = BivariatePolynomial(terms)
    return TruncatedSeries(coeffs)


@pytest.mark.parametrize(
    "extra, message",
    (((1, 0), "symmetric"), ((1, 1), "direct integer series")),
    ids=("s-only-term", "extra-st-term"),
)
def test_verify_series_rejects_a_wrong_coefficient(extra, message):
    for kind, geometry, series in _registry_series("k3", 4):
        with pytest.raises(RuntimeError, match=message):
            verify_series(kind, geometry, _with_extra_term(series, 3, *extra))


def test_verify_series_rejects_an_unknown_kind():
    S = surface("k3")
    with pytest.raises(ValueError, match="unknown series kind"):
        verify_series("nested", S, hodge_series("hilb", S, 2))


def test_verify_series_rejects_the_wrong_kind_of_geometry():
    S, fib = surface("k3"), FibrationSpec.from_surface_name("k3", 1)
    with pytest.raises(ValueError, match="a FibrationSpec"):
        verify_series("im1", S, hodge_series("im1", fib, 2))
    for kind in ("hilb", "incidence"):
        with pytest.raises(ValueError, match="a surface HodgeDiamond"):
            verify_series(kind, fib, hodge_series(kind, S, 2))


@pytest.mark.parametrize(
    "built_over, checked_over", (("k3", "p2"), ("p2", "k3"), ("abelian", "p1xp1"))
)
def test_verify_series_rejects_an_im1_series_of_another_base(built_over, checked_over):
    series = hodge_series("im1", FibrationSpec.from_surface_name(built_over, 0), 5)
    with pytest.raises(RuntimeError, match="direct integer series"):
        verify_series("im1", FibrationSpec.from_surface_name(checked_over, 0), series)


# --- Donaldson-Thomas --------------------------------------------------------


def test_moduli_dimension():
    assert moduli_dimension(0) == 3
    assert moduli_dimension(4) == 11
    with pytest.raises(ValueError):
        moduli_dimension(-1)


def test_dt_vanishes_on_trivial_canonical_surfaces():
    for name in ("k3", "abelian"):
        fib = FibrationSpec.from_surface_name(name, 1)
        for m, (_, value) in enumerate(dt_table(fib, 4)):
            assert value == 0, m


def test_dt_table_runs_its_own_checks(monkeypatch):
    fib = FibrationSpec.from_surface_name("k3", 1)

    def wrong(*args):
        return (0,) + (1,) * args[-1]  # the last argument is q_max

    monkeypatch.setattr(formulas, "ideal_sheaf_euler_direct", wrong)
    with pytest.raises(RuntimeError, match="direct integer series"):
        dt_table(fib, 3)
    # A wrong Euler column that gets past the comparison still fails the
    # vanishing that the trivial-canonical setting forces.
    monkeypatch.setattr(formulas, "euler_sequence", wrong)
    with pytest.raises(RuntimeError, match="vanishing Donaldson-Thomas number at m=0"):
        dt_table(fib, 3)


def test_dt_rejects_nontrivial_canonical_class():
    with pytest.raises(ValueError, match="trivial canonical class"):
        dt_table(FibrationSpec.from_surface_name("p2", 1), 0)


def test_dt_rejects_wrong_fiber_genus():
    with pytest.raises(ValueError, match="elliptic"):
        dt_table(FibrationSpec.from_surface_name("k3", 0), 0)
    with pytest.raises(ValueError, match="elliptic"):
        dt_table(FibrationSpec.from_surface_name("abelian", 2), 0)


def test_dt_rejects_nonzero_beta_k():
    # beta.K_X = 2g - 2 is read off the fiber genus, so genus 1 is the only
    # fibration with beta.K_X = 0 that the evaluation accepts.
    for g in (0, 2, 3):
        fib = FibrationSpec.from_surface_name("k3", g)
        assert fib.beta_dot_kx != 0
        with pytest.raises(ValueError, match=rf"beta\.K = 0\), got genus {g}"):
            dt_table(fib, 0)
    assert FibrationSpec.from_surface_name("k3", 1).beta_dot_kx == 0


# --- direct integer routes ---------------------------------------------------


@pytest.mark.parametrize("chi", (-7, -1, 0, 1, 3, 24, 2 * 10**6))
def test_direct_route_matches_the_expanded_product(chi):
    # Reference: the product of (1 - q^k) ** (-chi) multiplied out factor by
    # factor from binomial coefficients.
    q_max = 50
    expected = [1] + [0] * q_max
    for k in range(1, q_max + 1):
        factor = [0] * (q_max + 1)
        for n in range(q_max // k + 1):
            factor[n * k] = comb(chi - 1 + n, n) if chi > 0 else (-1) ** n * comb(-chi, n)
        expected = [sum(expected[u] * factor[m - u] for u in range(m + 1)) for m in range(q_max + 1)]
    for q in (0, 1, 5, q_max):
        assert hilbert_euler_direct(chi, q) == tuple(expected[: q + 1])


def test_direct_route_negative_exponent():
    # chi = -1 gives the alternating pentagonal-number expansion of the
    # product of (1 - q^k).
    assert hilbert_euler_direct(-1, 7) == (1, -1, -1, 0, 0, 1, 0, 1)


def test_direct_route_zero():
    assert hilbert_euler_direct(0, 4) == (1, 0, 0, 0, 0)
    assert ideal_sheaf_euler_direct(0, 0, 4) == (0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "route",
    (
        pytest.param(lambda q: hilbert_euler_direct(3, q), id="hilbert_euler_direct"),
        pytest.param(lambda q: ideal_sheaf_euler_direct(0, 3, q), id="ideal_sheaf_euler_direct"),
        pytest.param(lambda q: series_product([], q), id="series_product"),
    ),
)
def test_routes_reject_a_negative_truncation_order(route):
    with pytest.raises(ValueError, match="truncation order must be nonnegative"):
        route(-1)


def test_direct_nested_prefix_sums():
    prod = hilbert_euler_direct(3, 5)
    nested = ideal_sheaf_euler_direct(3, 3, 5)
    for n in range(1, 6):
        assert nested[n] == 3 * sum(prod[:n])


def test_direct_routes_agree_with_oracle():
    for n in range(1, 5):
        direct = hilbert_euler_direct(n, 6)
        for m in range(7):
            assert direct[m] == colored_partitions_count(n, m)


def test_k3_values_triangulated_by_enumeration():
    # The oracle caps are configuration, not limits: 24 colors at size 3 is
    # still a small enumeration and pins the frozen 324 and 3200 above.
    assert colored_partitions_count(24, 2) == 324
    assert colored_partitions_count(24, 3) == 3200
