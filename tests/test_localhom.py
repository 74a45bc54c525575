import tracemalloc
from collections import Counter

import pytest

from fiberdt import linalg
from fiberdt.linalg import rank
from fiberdt.localhom import (
    LINE_IDEAL,
    LINE_WITH_EMBEDDED_POINT_IDEAL,
    POINT_IDEAL,
    SIZE_CAP,
    MonomialIdeal,
    _constraint_rows,
    hom_dimension,
    standard_monomials,
    syzygy_pairs,
    tangent_jump_report,
    verify_hom_solution,
)


# --- ideals -------------------------------------------------------------------


def test_ideal_validation():
    with pytest.raises(ValueError, match="at least one generator"):
        MonomialIdeal(())
    with pytest.raises(ValueError, match="divides"):
        MonomialIdeal(((1, 0, 0), (2, 0, 0)))
    # Non-minimal generator lists are allowed when flagged.
    MonomialIdeal(((1, 0, 0), (2, 0, 0)), minimal=False)
    with pytest.raises(ValueError, match="triple"):
        MonomialIdeal(((1, 0),))


def test_ideal_rejects_boolean_exponents():
    with pytest.raises(ValueError, match="triple"):
        MonomialIdeal.from_json([[True, 0, 0], [0, 1, 0]])


def test_ideal_json_round_trip():
    ideal = MonomialIdeal.from_json([[2, 0, 0], [1, 1, 0], [0, 2, 0], [1, 0, 1], [0, 1, 1]])
    assert ideal == LINE_WITH_EMBEDDED_POINT_IDEAL
    assert MonomialIdeal.from_json(ideal.to_json()) == ideal


# --- standard monomials --------------------------------------------------------


def test_standard_monomials_line():
    quotient = standard_monomials(LINE_IDEAL, 3)
    assert quotient.basis == ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3))


def test_standard_monomials_embedded_point():
    quotient = standard_monomials(LINE_WITH_EMBEDDED_POINT_IDEAL, 3)
    assert set(quotient.basis) == {
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 0, 3),
    }
    assert len(quotient.basis) == 6


def test_standard_monomials_point():
    for d in (0, 2, 5):
        assert standard_monomials(POINT_IDEAL, d).basis == ((0, 0, 0),)


def test_standard_monomials_complete_and_duplicate_free():
    # Independent brute-force scan over a box strictly larger than any
    # generator exponent.
    for ideal in (LINE_IDEAL, LINE_WITH_EMBEDDED_POINT_IDEAL, POINT_IDEAL):
        for d in (0, 2, 4):
            basis = standard_monomials(ideal, d).basis
            assert len(basis) == len(set(basis))
            expected = {
                (x, y, z)
                for x in range(10)
                for y in range(10)
                for z in range(d + 1)
                if not ideal.contains_monomial((x, y, z))
            }
            assert set(basis) == expected


def test_standard_monomials_unbounded():
    with pytest.raises(ValueError, match="unbounded in the w2"):
        standard_monomials(MonomialIdeal(((1, 0, 0),)), 2)
    with pytest.raises(ValueError, match="unbounded in the w1"):
        standard_monomials(MonomialIdeal(((1, 1, 0), (0, 2, 0)), minimal=False), 2)


# --- syzygy pairs ---------------------------------------------------------------


def test_syzygy_pair_counts():
    assert len(syzygy_pairs(LINE_IDEAL)) == 1
    assert len(syzygy_pairs(LINE_WITH_EMBEDDED_POINT_IDEAL)) == 10


def test_syzygy_pair_lcm():
    pairs = dict(syzygy_pairs(LINE_WITH_EMBEDDED_POINT_IDEAL))
    # generators 0 and 1 are w1^2 and w1 w2; their lcm is w1^2 w2
    assert pairs[(0, 1)] == (2, 1, 0)


# --- hom dimensions -------------------------------------------------------------


@pytest.mark.parametrize("d", range(9))
def test_line_dimension(d):
    assert hom_dimension(LINE_IDEAL, d).dimension == 2 * (d + 1)


@pytest.mark.parametrize("d", range(9))
def test_embedded_point_dimension(d):
    assert hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, d).dimension == 10 + 2 * d


def test_point_dimension():
    assert hom_dimension(POINT_IDEAL, 0).dimension == 3


def test_hand_checked_example():
    # (w1, w2) at D = 3: two unconstrained truncated series, dimension 8.
    solution = hom_dimension(LINE_IDEAL, 3)
    assert solution.dimension == 8
    assert solution.rank == 0


def test_rank_plus_nullity():
    for ideal, d in ((LINE_IDEAL, 4), (LINE_WITH_EMBEDDED_POINT_IDEAL, 3), (POINT_IDEAL, 2)):
        solution = hom_dimension(ideal, d)
        assert solution.rank + solution.dimension == solution.n_unknowns


def test_hom_dimension_eliminates_once(monkeypatch):
    calls = []
    rref = linalg.rref

    def counting_rref(rows, n_cols):
        calls.append(n_cols)
        return rref(rows, n_cols)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    for ideal, d in ((LINE_IDEAL, 2), (LINE_WITH_EMBEDDED_POINT_IDEAL, 3)):
        calls.clear()
        hom_dimension(ideal, d)
        assert len(calls) == 1, ideal


def test_basis_maps_verify_and_are_independent():
    solution = hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, 2)
    assert verify_hom_solution(solution)
    n_basis = len(solution.quotient.basis)
    flat = [
        {g * n_basis + b: c for g, image in enumerate(images) for b, c in image.items()}
        for images in solution.basis_maps
    ]
    assert rank(flat, solution.n_unknowns) == solution.dimension


def test_embedded_point_solution_shape():
    # At D = 1 the surviving parameters are the ten w1/w2 coefficients plus
    # one w3 coefficient in each of the images of w1 w3 and w2 w3; no basis
    # map may touch a constant term or the w3 coefficients of the first three
    # generator images.
    solution = hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, 1)
    assert solution.dimension == 12
    basis = solution.quotient.basis
    const_idx = basis.index((0, 0, 0))
    w3_idx = basis.index((0, 0, 1))
    for images in solution.basis_maps:
        for gen_image in images:
            assert gen_image.get(const_idx, 0) == 0
        for gen in (0, 1, 2):  # images of w1^2, w1 w2, w2^2
            assert images[gen].get(w3_idx, 0) == 0


def test_dimension_invariant_under_generator_permutation():
    gens = LINE_WITH_EMBEDDED_POINT_IDEAL.gens
    reordered = (
        tuple(reversed(gens)),
        gens[2:] + gens[:2],
        (gens[3], gens[0], gens[4], gens[1], gens[2]),
    )
    for perm in reordered:
        assert hom_dimension(MonomialIdeal(perm), 2).dimension == 14


def test_dimension_invariant_under_variable_swap():
    swapped = MonomialIdeal(
        tuple((g[1], g[0], g[2]) for g in LINE_WITH_EMBEDDED_POINT_IDEAL.gens)
    )
    for d in (0, 1, 3):
        assert (
            hom_dimension(swapped, d).dimension
            == hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, d).dimension
        )
    assert hom_dimension(MonomialIdeal(((0, 1, 0), (1, 0, 0))), 2).dimension == 6


def test_box_ideal_peak_memory():
    # 1980 unknowns, rank 0: every kernel vector is a single entry, so sparse
    # kernel vectors and basis maps stay small (dense ones took about 63 MB).
    box = MonomialIdeal(((9, 0, 0), (0, 10, 0)))
    tracemalloc.start()
    try:
        solution = hom_dimension(box, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solution.dimension == solution.n_unknowns == 1980
    assert peak < 8 * 2**20


def cylinder_generators(parts):
    """Generators of I_lambda C[w1, w2, w3]: row y of the partition holds
    the boxes w1^x w2^y with x < parts[y]."""
    gens = [(parts[0], 0, 0)]
    gens += [(parts[y], y, 0) for y in range(1, len(parts)) if parts[y] < parts[y - 1]]
    return tuple(gens) + ((0, len(parts), 0),)


def arm_leg_character(parts, d_max):
    """Sum over boxes of (t1^-(a+1) t2^l + t1^a t2^-(l+1)) (1 + t3 + ... + t3^D),
    as a multiset of weights."""
    conjugate = [sum(1 for p in parts if p > x) for x in range(parts[0])]
    weights = Counter()
    for y, width in enumerate(parts):
        for x in range(width):
            arm, leg = width - x - 1, conjugate[x] - y - 1
            for k in range(d_max + 1):
                weights[(-(arm + 1), leg, k)] += 1
                weights[(arm, -(leg + 1), k)] += 1
    return weights


@pytest.mark.parametrize("d", (0, 3))
@pytest.mark.parametrize("parts", ((1,), (2, 1), (3, 1), (2, 2), (4, 3, 1), (5, 2, 2, 1)))
def test_cylinder_arm_leg_character(parts, d):
    # The torus character of Hom(I, O/I) for a cylinder over a partition is
    # given by arms and legs (Nakajima, Lectures on Hilbert Schemes, Prop. 5.8),
    # with no elimination involved.  Entry (g, b) has weight basis[b] - gens[g].
    solution = hom_dimension(MonomialIdeal(cylinder_generators(parts)), d)
    basis, gens = solution.quotient.basis, solution.ideal.gens
    character = Counter()
    for images in solution.basis_maps:
        weights = {
            tuple(m - e for m, e in zip(basis[b], gens[g]))
            for g, image in enumerate(images)
            for b in image
        }
        assert len(weights) == 1, weights  # every basis map is weight-homogeneous
        character.update(weights)
    assert character == arm_leg_character(parts, d)


def constraint_rows_by_ideal_test(ideal, quotient, window):
    """The rows built by the rule that asks the ideal first: a product in the
    ideal is skipped, any other must lie in the window."""
    n_basis = len(quotient.basis)
    window_set = set(window.basis)
    rows = []
    for (gi, gj), lcm in syzygy_pairs(ideal):
        contributions = {}
        for g, sign in ((gi, 1), (gj, -1)):
            mult = tuple(l - e for l, e in zip(lcm, ideal.gens[g]))
            for b, mono in enumerate(quotient.basis):
                prod = tuple(x + y for x, y in zip(mono, mult))
                if ideal.contains_monomial(prod):
                    continue
                assert prod in window_set
                contributions.setdefault(prod, {})[g * n_basis + b] = sign
        rows.extend(contributions[prod] for prod in sorted(contributions))
    return rows


@pytest.mark.parametrize(
    "ideal",
    (
        LINE_IDEAL,
        LINE_WITH_EMBEDDED_POINT_IDEAL,
        POINT_IDEAL,
        MonomialIdeal(cylinder_generators((4, 3, 1))),
        MonomialIdeal(cylinder_generators((5, 2, 2, 1))),
    ),
)
def test_constraint_rows_match_ideal_first_rule(ideal):
    # The window holds standard monomials only, so testing window membership
    # first and the ideal only outside it builds the same rows.
    guard = max(g[2] for g in ideal.gens) - min(g[2] for g in ideal.gens)
    for d in (0, 4):
        quotient = standard_monomials(ideal, d)
        window = standard_monomials(ideal, d + guard)
        assert _constraint_rows(ideal, quotient, window) == constraint_rows_by_ideal_test(
            ideal, quotient, window
        )


def test_size_cap_rejects_before_enumerating():
    # generators x w1 box x w2 box x (d_max + guard + 1)
    wide = MonomialIdeal(((12, 0, 0), (0, 12, 0)))
    with pytest.raises(ValueError, match="cap"):
        hom_dimension(wide, 12)  # 2 * 12 * 12 * 13 = 3744
    assert hom_dimension(wide, 5).dimension == 2 * 144 * 6  # 1728, under the cap
    deep = MonomialIdeal(((1, 0, 0), (0, 1, 0), (0, 0, 30000000)))
    with pytest.raises(ValueError, match="cap"):
        hom_dimension(deep, 0)
    with pytest.raises(ValueError, match="generators"):
        MonomialIdeal.from_json([[a, SIZE_CAP - a, 0] for a in range(SIZE_CAP + 1)])


# --- tangent jump report ---------------------------------------------------------


def test_tangent_jump_report_passes():
    report = tangent_jump_report(range(1, 9))
    assert report["passed"]
    assert report["local_difference"] == 8
    assert report["series_family_offset"] == 2
    assert report["global_jump"] == 10
    for row in report["rows"]:
        assert row["line_dimension"] == 2 * row["d_max"] + 2
        assert row["embedded_dimension"] == 10 + 2 * row["d_max"]
        assert row["ok"]


def test_tangent_jump_report_rejects_empty_range():
    with pytest.raises(ValueError, match="at least one"):
        tangent_jump_report([])
    with pytest.raises(ValueError, match="nonnegative"):
        tangent_jump_report([-1])
