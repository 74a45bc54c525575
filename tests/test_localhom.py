import importlib.util
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import linalg_reference
from fiberdt import linalg, localhom
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
    assert standard_monomials(LINE_IDEAL, 3) == ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3))


def test_standard_monomials_embedded_point():
    basis = standard_monomials(LINE_WITH_EMBEDDED_POINT_IDEAL, 3)
    assert set(basis) == {
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 0, 3),
    }
    assert len(basis) == 6


def test_standard_monomials_point():
    for d in (0, 2, 5):
        assert standard_monomials(POINT_IDEAL, d) == ((0, 0, 0),)


def test_standard_monomials_complete_and_duplicate_free():
    # Independent brute-force scan over a box strictly larger than any
    # generator exponent.
    for ideal in (LINE_IDEAL, LINE_WITH_EMBEDDED_POINT_IDEAL, POINT_IDEAL):
        for d in (0, 2, 4):
            basis = standard_monomials(ideal, d)
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
        standard_monomials(MonomialIdeal(((1, 1, 0), (0, 2, 0))), 2)


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
    # The rank of the constraint rows by a reference elimination, plus the
    # number of basis maps, accounts for every unknown.
    for ideal, d in ((LINE_IDEAL, 4), (LINE_WITH_EMBEDDED_POINT_IDEAL, 3), (POINT_IDEAL, 2)):
        solution = hom_dimension(ideal, d)
        rows, n_unknowns = constraint_system(ideal, d)
        assert n_unknowns == solution.n_unknowns
        assert linalg_reference.rank(rows, n_unknowns) + solution.dimension == n_unknowns


def test_hom_dimension_eliminates_once(monkeypatch):
    # One solve builds its constraint rows once and eliminates them once; the
    # spanning check reads the rows the elimination read.
    calls = []
    nullspace = linalg.nullspace

    def counting_nullspace(rows, n_cols):
        calls.append(n_cols)
        return nullspace(rows, n_cols)

    builds = []

    def counting_rows(ideal, basis):
        builds.append(ideal)
        return _constraint_rows(ideal, basis)

    monkeypatch.setattr(linalg, "nullspace", counting_nullspace)
    monkeypatch.setattr(localhom, "_constraint_rows", counting_rows)
    for ideal, d in ((LINE_IDEAL, 2), (LINE_WITH_EMBEDDED_POINT_IDEAL, 3)):
        calls.clear()
        builds.clear()
        hom_dimension(ideal, d)
        assert len(calls) == 1, ideal
        assert len(builds) == 1, ideal


def test_basis_maps_verify_and_are_independent():
    solution = hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, 2)
    assert verify_hom_solution(solution)
    n_basis = len(solution.basis)
    flat = [
        {g * n_basis + b: 1 for g, image in enumerate(images) for b in image}
        for images in solution.basis_maps
    ]
    assert linalg_reference.rank(flat, solution.n_unknowns) == solution.dimension


def edited(solution, v, g, image):
    """``solution`` with the image of generator g under basis map v replaced."""
    maps = [list(images) for images in solution.basis_maps]
    maps[v][g] = image
    return solution._replace(basis_maps=tuple(map(tuple, maps)))


def test_verify_rejects_a_dropped_or_added_basis_index():
    # (w2^2, w1^2 w2, w1^3) at D = 1 has basis maps of two unknowns.
    solution = hom_dimension(MonomialIdeal(((0, 2, 0), (2, 1, 0), (3, 0, 0))), 1)
    assert verify_hom_solution(solution)
    v = next(v for v, images in enumerate(solution.basis_maps) if sum(map(len, images)) > 1)
    g = next(g for g, image in enumerate(solution.basis_maps[v]) if image)
    image = solution.basis_maps[v][g]
    # Each unknown of the map is tied to another by an equality, so dropping
    # one breaks that equality.
    assert not verify_hom_solution(edited(solution, v, g, image[1:]))
    # The constant term is in no kernel vector, so adding it breaks a
    # constraint.
    const_idx = solution.basis.index((0, 0, 0))
    assert all(const_idx not in image for images in solution.basis_maps for image in images)
    assert not verify_hom_solution(edited(solution, v, g, tuple(sorted(image + (const_idx,)))))


def merging_a_zeroed_component(monkeypatch):
    """Patch ``linalg.nullspace`` to merge a zeroed unknown's component (one
    that no kernel vector holds) into the first kept component."""
    nullspace = linalg.nullspace

    def merged(rows, n_cols):
        kernel = nullspace(rows, n_cols)
        kept = {u for component in kernel for u in component}
        dead = next(u for u in range(n_cols) if u not in kept)
        return [tuple(sorted(kernel[0] + (dead,)))] + kernel[1:]

    monkeypatch.setattr(linalg, "nullspace", merged)


def test_hom_dimension_raises_when_a_map_fails_resubstitution(monkeypatch):
    merging_a_zeroed_component(monkeypatch)
    with pytest.raises(RuntimeError, match="re-substitution"):
        hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, 1)


def test_cli_exits_3_when_a_map_fails_resubstitution(monkeypatch, tmp_path, capsys):
    from fiberdt import cli

    path = tmp_path / "embedded.json"
    path.write_text(json.dumps(LINE_WITH_EMBEDDED_POINT_IDEAL.to_json()))
    merging_a_zeroed_component(monkeypatch)
    assert cli.main(["localhom", "--dmax", "1", "--ideal-file", str(path)]) == 3
    assert "re-substitution" in capsys.readouterr().err


def patched_nullspace(monkeypatch, edit):
    """Patch ``linalg.nullspace`` to return ``edit(kernel)``."""
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda rows, n_cols: edit(nullspace(rows, n_cols)))


@pytest.mark.parametrize(
    "edit",
    (
        pytest.param(lambda kernel: [kernel[0] + kernel[1]] + kernel[2:], id="merged-components"),
        pytest.param(lambda kernel: kernel[1:], id="dropped-component"),
        pytest.param(lambda kernel: kernel[:1] + kernel, id="repeated-component"),
    ),
)
def test_hom_dimension_raises_when_the_maps_do_not_span_the_kernel(monkeypatch, edit):
    # A sum of two kernel vectors, or a kernel short of one vector, passes
    # re-substitution; only the spanning check sees it.
    patched_nullspace(monkeypatch, edit)
    with pytest.raises(RuntimeError, match="do not span the kernel"):
        hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, 1)


def test_verify_rejects_maps_that_do_not_span_the_kernel():
    solution = hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, 1)
    assert solution.dimension == 12
    maps = solution.basis_maps
    merged = tuple(tuple(sorted(a + b)) for a, b in zip(maps[0], maps[1]))
    for edited_maps in ((merged, *maps[2:]), maps[1:], (maps[0], *maps)):
        assert not verify_hom_solution(solution._replace(basis_maps=edited_maps))


def constraint_system(ideal, d_max):
    """The constraint rows of ``hom_dimension(ideal, d_max)``, as the
    reference's ``{column: int}`` rows, and the number of unknowns."""
    basis = standard_monomials(ideal, d_max)
    rows = linalg_reference.dict_rows(_constraint_rows(ideal, basis))
    return rows, len(ideal.gens) * len(basis)


def random_ideals(seed, count):
    """Seeded minimal monomial ideals with pure powers of w1 and w2, each with
    a truncation degree."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        gens = {(a, 0, 0), (0, b, 0)}
        for _ in range(rng.randint(0, 4)):
            gens.add((rng.randint(0, a), rng.randint(0, b), rng.randint(0, 2)))
        minimal = [
            g for g in gens if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)
        ]
        yield MonomialIdeal(tuple(sorted(minimal))), rng.randint(0, 3)


def test_rank_matches_the_reference_elimination():
    for ideal, d in random_ideals(seed=18, count=60):
        rows, n_unknowns = constraint_system(ideal, d)
        assert hom_dimension(ideal, d).rank == linalg_reference.rank(rows, n_unknowns), (ideal, d)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_systems(monkeypatch):
    """(ideal, d_max) of every system the localhom benchmark solves."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    systems = []
    for request in workloads.all_requests("localhom"):
        d = request.spec["d_max"]
        if request.spec["type"] == "localhom-ideal":
            systems.append((MonomialIdeal.from_json(request.spec["ideal"]), d))
        else:
            systems += [(LINE_IDEAL, d), (LINE_WITH_EMBEDDED_POINT_IDEAL, d)]
    return systems


def test_rank_matches_the_reference_elimination_on_benchmark_ideals(monkeypatch):
    if not (PERFBENCH / "workloads.py").is_file():
        pytest.skip("perfbench/ is not part of this tree")
    systems = benchmark_systems(monkeypatch)
    assert len(systems) > 20
    for ideal, d in systems:
        rows, n_unknowns = constraint_system(ideal, d)
        assert hom_dimension(ideal, d).rank == linalg_reference.rank(rows, n_unknowns), (ideal, d)


def test_embedded_point_solution_shape():
    # At D = 1 the surviving parameters are the ten w1/w2 coefficients plus
    # one w3 coefficient in each of the images of w1 w3 and w2 w3; no basis
    # map may touch a constant term or the w3 coefficients of the first three
    # generator images.
    solution = hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, 1)
    assert solution.dimension == 12
    basis = solution.basis
    const_idx = basis.index((0, 0, 0))
    w3_idx = basis.index((0, 0, 1))
    for images in solution.basis_maps:
        for gen_image in images:
            assert const_idx not in gen_image
        for gen in (0, 1, 2):  # images of w1^2, w1 w2, w2^2
            assert w3_idx not in images[gen]


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


def tangent_weights(solution):
    """The torus weight of each basis map, as an exponent triple: entry
    (g, b) sends generator g to basis monomial b, of weight basis[b] - gens[g]."""
    basis, gens = solution.basis, solution.ideal.gens
    weights = []
    for images in solution.basis_maps:
        triples = {
            tuple(m - e for m, e in zip(basis[b], gens[g]))
            for g, image in enumerate(images)
            for b in image
        }
        assert len(triples) == 1, triples  # every kernel vector is weight-homogeneous
        weights.append(triples.pop())
    return weights


@pytest.mark.parametrize("d", (0, 3))
@pytest.mark.parametrize("parts", ((1,), (2, 1), (3, 1), (2, 2), (4, 3, 1), (5, 2, 2, 1)))
def test_cylinder_arm_leg_character(parts, d):
    # The torus character of Hom(I, O/I) for a cylinder over a partition is
    # given by arms and legs (Nakajima, Lectures on Hilbert Schemes, Prop. 5.8),
    # with no elimination involved.
    solution = hom_dimension(MonomialIdeal(cylinder_generators(parts)), d)
    assert Counter(tangent_weights(solution)) == arm_leg_character(parts, d)


def kernel_changing_rows(rows, n_unknowns):
    """Indices of the ``{column: int}`` rows whose removal enlarges the
    reference kernel: the rows in no linear dependency among the rows, read
    off the reference kernel of the transposed system."""
    transposed = [{} for _ in range(n_unknowns)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            transposed[c][r] = v
    dependent = {r for vector in linalg_reference.nullspace(transposed, len(rows)) for r in vector}
    return [r for r in range(len(rows)) if r not in dependent]


@pytest.mark.parametrize("d", (2, 4))
def test_kernel_changing_rows_are_those_whose_removal_drops_the_rank(d):
    rows, n_unknowns = constraint_system(LINE_WITH_EMBEDDED_POINT_IDEAL, d)
    full = linalg_reference.rank(rows, n_unknowns)
    assert kernel_changing_rows(rows, n_unknowns) == [
        r
        for r in range(len(rows))
        if linalg_reference.rank(rows[:r] + rows[r + 1 :], n_unknowns) < full
    ]


@pytest.mark.parametrize(
    "gens, d, n_rows, n_changing",
    (
        (LINE_WITH_EMBEDDED_POINT_IDEAL.gens, 2, 22, 4),
        (LINE_WITH_EMBEDDED_POINT_IDEAL.gens, 4, 30, 8),
        (cylinder_generators((3, 2, 2, 1)), 3, 96, 36),
    ),
)
def test_resubstitution_catches_every_row_the_builder_drops(monkeypatch, gens, d, n_rows, n_changing):
    # The elimination and the spanning check both read _constraint_rows, so
    # only re-substitution, which multiplies the images out itself, sees a
    # row missing from it.  A redundant row may go without changing a map.
    ideal = MonomialIdeal(gens)
    solution = hom_dimension(ideal, d)
    rows = _constraint_rows(ideal, solution.basis)
    changing = kernel_changing_rows(linalg_reference.dict_rows(rows), solution.n_unknowns)
    assert (len(rows), len(changing)) == (n_rows, n_changing)
    for r in range(len(rows)):
        dropped = rows[:r] + rows[r + 1 :]
        monkeypatch.setattr(localhom, "_constraint_rows", lambda *_: dropped)
        if r in changing:
            with pytest.raises(RuntimeError, match="re-substitution"):
                hom_dimension(ideal, d)
        else:
            assert hom_dimension(ideal, d) == solution


def test_every_constraint_product_is_zero_or_standard(monkeypatch):
    # Why the constraints need no window: a truncated basis monomial times a
    # syzygy cofactor is in the ideal, or a standard monomial of w3-degree at
    # most d_max + guard inside the pure-power box in w1 and w2.
    built_in = (
        LINE_IDEAL,
        LINE_WITH_EMBEDDED_POINT_IDEAL,
        POINT_IDEAL,
        MonomialIdeal(cylinder_generators((4, 3, 1))),
        MonomialIdeal(cylinder_generators((5, 2, 2, 1))),
    )
    systems = list(random_ideals(seed=20, count=60))
    systems += [(ideal, d) for ideal in built_in for d in (0, 4)]
    if (PERFBENCH / "workloads.py").is_file():
        systems += benchmark_systems(monkeypatch)
    for ideal, d in systems:
        gens = ideal.gens
        guard = max(g[2] for g in gens) - min(g[2] for g in gens)
        bound1 = min(g[0] for g in gens if g[1] == g[2] == 0)
        bound2 = min(g[1] for g in gens if g[0] == g[2] == 0)
        basis = standard_monomials(ideal, d)
        for (gi, gj), lcm in syzygy_pairs(ideal):
            for g in (gi, gj):
                mult = tuple(l - e for l, e in zip(lcm, gens[g]))
                for mono in basis:
                    prod = tuple(x + y for x, y in zip(mono, mult))
                    if not ideal.contains_monomial(prod):
                        assert prod[0] < bound1 and prod[1] < bound2, (ideal, d, prod)
                        assert prod[2] <= d + guard, (ideal, d, prod)


def constraint_rows_by_window(ideal, basis, window):
    """The rows built by the rule that asks the window first: a product in
    the window of standard monomials up to w3-degree d_max + guard gets an
    entry, any other must be in the ideal and is skipped."""
    n_basis = len(basis)
    window_set = set(window)
    rows = []
    for (gi, gj), lcm in syzygy_pairs(ideal):
        contributions = {}
        for g in (gi, gj):
            mult = tuple(l - e for l, e in zip(lcm, ideal.gens[g]))
            for b, mono in enumerate(basis):
                prod = tuple(x + y for x, y in zip(mono, mult))
                if prod not in window_set:
                    assert ideal.contains_monomial(prod), (ideal, prod)
                    continue
                contributions[prod] = contributions.get(prod, ()) + (g * n_basis + b,)
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
    # The rows _constraint_rows builds by asking the ideal first equal the
    # rows of the former rule, which asked the guard window first.
    guard = max(g[2] for g in ideal.gens) - min(g[2] for g in ideal.gens)
    for d in (0, 4):
        basis = standard_monomials(ideal, d)
        window = standard_monomials(ideal, d + guard)
        assert _constraint_rows(ideal, basis) == constraint_rows_by_window(ideal, basis, window)


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


# --- degree-0 vertex of C^3 ------------------------------------------------------


def plane_partitions(n_max):
    """Every plane partition of size at most ``n_max``, as a frozenset of
    boxes (a, b, c), listed by size."""
    by_size = [{frozenset()}]
    for _ in range(n_max):
        by_size.append({pi | {box} for pi in by_size[-1] for box in outer_corners(pi)})
    return by_size


def outer_corners(pi):
    """The boxes outside ``pi`` whose lower neighbours all lie in it: the
    exponents of the minimal generators of the monomial ideal I_pi."""
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    candidates = {(0, 0, 0)} | {(a + x, b + y, c + z) for a, b, c in pi for x, y, z in steps}
    return {
        box for box in candidates - pi
        if all(box[i] == 0 or tuple(e - (j == i) for j, e in enumerate(box)) in pi for i in range(3))
    }


def macmahon_power(exponent, n_max):
    """q^0..q^n_max of M(-q) ** exponent for a rational exponent, by the
    exp-log recurrence n b_n = exponent * sum_k (-1)^k sigma_2(k) b_(n-k):
    log M(-q) is the sum over k of sigma_2(k) (-q)^k / k."""
    sigma2 = [0] + [sum(d * d for d in range(1, k + 1) if k % d == 0) for k in range(1, n_max + 1)]
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        b.append(exponent * sum((-1) ** k * sigma2[k] * b[n - k] for k in range(1, n + 1)) / n)
    return b


def test_hom_dimension_has_mnop_parity_and_sums_to_macmahon():
    # At the torus-fixed point I_pi of Hilb^n(C^3), dim Hom(I_pi, C[w]/I_pi)
    # is n mod 2 (Maulik-Nekrasov-Okounkov-Pandharipande, Compositio Math.
    # 142 (2006)), so the signed count of fixed points of size n is the q^n
    # coefficient of M(-q).  The quotient stops at the top box of pi, so the
    # truncation there is exact.
    signed_sums = []
    for n, partitions in enumerate(plane_partitions(8)):
        total = 0
        for pi in partitions:
            ideal = MonomialIdeal(tuple(sorted(outer_corners(pi))))
            dimension = hom_dimension(ideal, max((c for _, _, c in pi), default=0)).dimension
            assert dimension % 2 == n % 2, sorted(pi)
            total += (-1) ** dimension
        signed_sums.append(total)
    assert signed_sums == macmahon_power(1, 8) == [1, -1, 3, -6, 13, -24, 48, -86, 160]


@pytest.mark.parametrize("s", ((1, 13, 169), (3, -20, 200)))
def test_equivariant_vertex_sums_to_a_power_of_macmahon(s):
    # MNOP's equivariant degree-0 vertex: the sum over plane partitions pi of
    # q^|pi| times the product over the tangent weights w at I_pi of
    # -(w + s1 + s2 + s3) / w is M(-q) ** (-(s1 + s2)(s1 + s3)(s2 + s3) / (s1 s2 s3)).
    n_max = 6
    s1, s2, s3 = s
    sums = []
    for partitions in plane_partitions(n_max):
        total = Fraction(0)
        for pi in partitions:
            ideal = MonomialIdeal(tuple(sorted(outer_corners(pi))))
            solution = hom_dimension(ideal, max((c for _, _, c in pi), default=0))
            term = Fraction(1)
            for triple in tangent_weights(solution):
                w = sum(a * b for a, b in zip(triple, s))
                assert w != 0, (sorted(pi), triple)
                term *= Fraction(-(w + s1 + s2 + s3), w)
            total += term
        sums.append(total)
    exponent = Fraction(-(s1 + s2) * (s1 + s3) * (s2 + s3), s1 * s2 * s3)
    assert sums == macmahon_power(exponent, n_max)


# --- tangent jump report ---------------------------------------------------------


def test_tangent_jump_report_passes():
    report = tangent_jump_report(8)
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
        tangent_jump_report(0)
    with pytest.raises(ValueError, match="nonnegative"):
        tangent_jump_report(-1)
