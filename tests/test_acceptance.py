"""Acceptance suite.

One test per acceptance criterion; every check is exact (tolerance zero) and
each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output).  Criteria with a runtime budget assert it.
"""

import time
from contextlib import contextmanager

from fiberdt.formulas import (
    dt_table,
    euler_sequence,
    hilbert_euler_direct,
    hodge_series,
    ideal_sheaf_euler_direct,
)
from fiberdt.geometry import (
    FibrationSpec,
    HodgeDiamond,
    curve_diamond,
    registry_lookup,
    surface_names,
    surface_with_euler_number,
)
from fiberdt.localhom import (
    LINE_IDEAL,
    LINE_WITH_EMBEDDED_POINT_IDEAL,
    _constraint_rows,
    hom_dimension,
    verify_hom_solution,
)
from fiberdt.oracles import colored_partitions_count, nested_colored_count
from fiberdt.polyseries import series_product
from linalg_reference import dict_rows, rank as reference_rank
from series_reference import mul, one, poly_mul, transposed

SURFACES = surface_names()
GENERA = (0, 1, 2)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_dt_vanishing():
    with criterion(1, "DT vanishing for K-trivial surfaces, m <= 10"):
        start = time.perf_counter()
        for name in ("k3", "abelian"):
            fibration = FibrationSpec.from_surface_name(name, 1)
            for m, (_, value) in enumerate(dt_table(fibration, 10)):
                assert value == 0, (name, m)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_hodge_series_anchor():
    with criterion(2, "q^1 coefficients equal the surface and 3-fold classes"):
        for name in SURFACES:
            surface = registry_lookup(name)
            assert hodge_series("incidence", surface, 2).coefficients[1] == surface.e_polynomial()
            for genus in GENERA:
                fibration = FibrationSpec.from_surface_name(name, genus)
                expected = curve_diamond(genus).e_polynomial() * surface.e_polynomial()
                assert hodge_series("im1", fibration, 2).coefficients[1] == expected


def test_criterion_3_euler_oracle_equivalence():
    with criterion(3, "Euler coefficients equal brute-force enumeration"):
        start = time.perf_counter()
        for chi in (1, 2, 3, 4):
            surface = surface_with_euler_number(chi)
            assert surface.euler_number() == chi
            hilbert = euler_sequence("hilb", surface, 6)
            nested = hodge_series("incidence", surface, 7).euler_sequence()
            for m in range(7):
                assert hilbert[m] == colored_partitions_count(chi, m), (chi, m)
                assert nested[m + 1] == nested_colored_count(chi, m), (chi, m)
        # spot values
        assert euler_sequence("hilb", surface_with_euler_number(3), 3) == (1, 3, 9, 22)
        assert nested_colored_count(1, 1) == 2
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


def test_criterion_4_blowup_euler_cross_check():
    with criterion(4, "q^2 Euler coefficient equals chi(X) * (1 + chi(S))"):
        for name in SURFACES:
            chi_base = registry_lookup(name).euler_number()
            for genus in GENERA:
                fibration = FibrationSpec.from_surface_name(name, genus)
                values = euler_sequence("im1", fibration, 2)
                assert values[2] == fibration.euler_number() * (1 + chi_base), (name, genus)


def test_criterion_5_specialization_consistency():
    with criterion(5, "s = t = 1 specializations match direct integer series"):
        q_max = 12
        for name in SURFACES:
            surface = registry_lookup(name)
            chi = surface.euler_number()
            assert euler_sequence("hilb", surface, q_max) == hilbert_euler_direct(chi, q_max)
            assert (
                hodge_series("incidence", surface, q_max).euler_sequence()
                == ideal_sheaf_euler_direct(chi, chi, q_max)
            )
            for genus in GENERA:
                fibration = FibrationSpec.from_surface_name(name, genus)
                assert euler_sequence("im1", fibration, q_max) == ideal_sheaf_euler_direct(
                    fibration.euler_number(), chi, q_max
                )


def test_criterion_6_local_tangent_jump():
    with criterion(6, "truncated Hom dimensions 2D + 2 and 10 + 2D for D = 1..8"):
        start = time.perf_counter()
        for d in range(1, 9):
            assert hom_dimension(LINE_IDEAL, d).dimension == 2 * d + 2, d
            assert hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, d).dimension == 10 + 2 * d, d
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


def test_criterion_7_invariant_suites():
    with criterion(7, "registry, symmetry, ring axiom, inverse and solver invariants"):
        # registry diamonds satisfy every diamond invariant (validation runs
        # in the constructor) and specialize to their Euler numbers
        diamonds = [HodgeDiamond([[1]]), curve_diamond(0), curve_diamond(2)]
        for diamond in diamonds + [registry_lookup(name) for name in SURFACES]:
            direct = sum(
                (-1) ** (i + j) * diamond.grid[i][j]
                for i in range(diamond.dim + 1)
                for j in range(diamond.dim + 1)
            )
            assert diamond.e_polynomial().eval_one() == direct

        # s/t symmetry of every coefficient of every emitted series
        for name in SURFACES:
            surface = registry_lookup(name)
            all_series = [hodge_series("hilb", surface, 6), hodge_series("incidence", surface, 6)]
            all_series += [
                hodge_series("im1", FibrationSpec.from_surface_name(name, g), 6)
                for g in GENERA
            ]
            for series in all_series:
                for poly in series.coefficients:
                    assert transposed(poly) == poly

        # polynomial ring axioms on fixed sparse samples
        k3 = registry_lookup("k3").e_polynomial()
        torus = curve_diamond(1).e_polynomial()
        p2 = registry_lookup("p2").e_polynomial()
        assert k3 * torus == torus * k3 == poly_mul(k3, torus)
        assert (k3 * torus) * p2 == k3 * (torus * p2)

        # inverse-factor identity
        for a, b, k, e in ((1, 1, 1, 1), (0, 2, 2, 3), (2, 0, 1, -4), (3, 3, 2, 20)):
            product = mul(series_product([(a, b, k, e)], 10), series_product([(a, b, k, -e)], 10))
            assert product == one(10)

        # solver accounting: the rank of the constraint rows by a reference
        # elimination plus the nullity is the number of unknowns, and the
        # basis maps verify and are independent
        for ideal, d in ((LINE_IDEAL, 5), (LINE_WITH_EMBEDDED_POINT_IDEAL, 4)):
            solution = hom_dimension(ideal, d)
            rows = dict_rows(_constraint_rows(ideal, solution.basis))
            assert reference_rank(rows, solution.n_unknowns) == solution.rank
            assert solution.rank + solution.dimension == solution.n_unknowns
            assert verify_hom_solution(solution)
            n_basis = len(solution.basis)
            flat = [
                {g * n_basis + b: 1 for g, image in enumerate(images) for b in image}
                for images in solution.basis_maps
            ]
            assert reference_rank(flat, solution.n_unknowns) == solution.dimension
