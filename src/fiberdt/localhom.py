"""Truncated Hom-space dimensions for monomial-ideal local models.

A homomorphism from a monomial ideal I in C[w1, w2, w3] to the quotient ring
by I is determined by the images of the generators, subject to one relation
per generator pair: multiplying the two images by the complementary lcm
cofactors must give the same element of the quotient.  For monomial ideals
the pairwise lcm relations generate all first syzygies, so the solution
space of that linear system is exactly the Hom space.

The quotient ring is infinite along w3 for the ideals of interest, so the
unknown images are truncated at a w3-degree ``d_max`` while the constraints
are evaluated in a window extended by a guard band (the largest w3-degree of
any lcm cofactor).  The guard band ensures no constraint involving a product
that leaves the unknown window is silently dropped, which would otherwise
inflate the dimension at the top degree.

The two built-in ideals model a smooth curve locally cut out by (w1, w2) and
the same curve carrying an embedded doubled point, cut out by
(w1^2, w1 w2, w2^2, w1 w3, w2 w3).  Their truncated Hom dimensions are
2 d_max + 2 and 10 + 2 d_max, a gap of 8 at fixed truncation; matching the
two free w3-series families index by index shifts the untruncated gap to 10.
Multiplying by a cofactor is injective, so every constraint row either sets
one unknown to zero or equates two unknowns.  The kernel is read off the
connected components of that equality graph (``linalg.nullspace``), and the
kernel vectors and basis maps stay sparse: only nonzero entries are stored.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg

__all__ = [
    "MonomialIdeal",
    "TruncatedQuotient",
    "HomSolution",
    "standard_monomials",
    "syzygy_pairs",
    "hom_dimension",
    "verify_hom_solution",
    "tangent_jump_report",
    "LINE_IDEAL",
    "LINE_WITH_EMBEDDED_POINT_IDEAL",
    "POINT_IDEAL",
    "SIZE_CAP",
]

Monomial = tuple[int, int, int]

# Bound on generators x (w1 box) x (w2 box) x (guard window depth) for one
# Hom computation; it is checked from the exponents before anything is
# enumerated.  The largest benchmark ideal, the (4,3,1) cylinder at
# d_max = 12, needs 624.
SIZE_CAP = 2000


def _divides(a: Monomial, b: Monomial) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def _monomial_str(mono: Monomial) -> str:
    if mono == (0, 0, 0):
        return "1"
    parts = []
    for var, e in zip(("w1", "w2", "w3"), mono):
        if e == 1:
            parts.append(var)
        elif e > 1:
            parts.append(f"{var}^{e}")
    return "*".join(parts)


class MonomialIdeal(namedtuple("MonomialIdeal", ("gens",))):
    """An ideal of C[w1, w2, w3] given by its minimal monomial generators.

    ``gens`` is a tuple of exponent triples, no one of which divides another.
    """

    __slots__ = ()

    def __new__(cls, gens: tuple[Monomial, ...]):
        if not gens:
            raise ValueError("a monomial ideal needs at least one generator")
        for g in gens:
            if len(g) != 3 or any(
                not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in g
            ):
                raise ValueError(f"generator {g!r} is not a triple of nonnegative integers")
        for a in gens:
            for b in gens:
                if a is not b and _divides(a, b):
                    raise ValueError(
                        f"generator {_monomial_str(a)} divides {_monomial_str(b)}: "
                        "generators must be minimal"
                    )
        return super().__new__(cls, gens)

    @classmethod
    def from_json(cls, triples) -> "MonomialIdeal":
        """Build from a JSON list of exponent triples."""
        if not isinstance(triples, list) or not all(isinstance(t, list) for t in triples):
            raise ValueError("ideal document must be a list of exponent triples")
        if len(triples) > SIZE_CAP:
            raise ValueError(f"{len(triples)} generators exceed the size cap {SIZE_CAP}")
        return cls(tuple(tuple(t) for t in triples))

    def to_json(self) -> list[list[int]]:
        return [list(g) for g in self.gens]

    def contains_monomial(self, mono: Monomial) -> bool:
        return any(_divides(g, mono) for g in self.gens)

    def __str__(self) -> str:
        return "(" + ", ".join(_monomial_str(g) for g in self.gens) + ")"


LINE_IDEAL = MonomialIdeal(((1, 0, 0), (0, 1, 0)))
LINE_WITH_EMBEDDED_POINT_IDEAL = MonomialIdeal(
    ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1))
)
POINT_IDEAL = MonomialIdeal(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


class TruncatedQuotient(namedtuple("TruncatedQuotient", ("ideal", "d_max", "basis"))):
    """Basis of the quotient ring by a monomial ideal, truncated in w3.

    ``basis`` is the tuple of standard monomials (those divisible by no
    generator) whose w3-exponent is at most ``d_max``, in a fixed graded
    order.
    """

    __slots__ = ()


def _pure_powers(ideal: MonomialIdeal) -> tuple[int, int]:
    """The smallest pure powers of w1 and w2 among the generators."""
    pure1 = [g[0] for g in ideal.gens if g[1] == 0 and g[2] == 0]
    pure2 = [g[1] for g in ideal.gens if g[0] == 0 and g[2] == 0]
    if not pure1:
        raise ValueError(f"quotient by {ideal} is unbounded in the w1 direction")
    if not pure2:
        raise ValueError(f"quotient by {ideal} is unbounded in the w2 direction")
    return min(pure1), min(pure2)


def standard_monomials(ideal: MonomialIdeal, d_max: int) -> TruncatedQuotient:
    """All standard monomials with w3-exponent at most ``d_max``.

    The complement must be bounded in the w1 and w2 directions, which for a
    monomial ideal means a pure power of each of w1 and w2 appears among the
    generators; otherwise the truncated quotient is infinite and a
    ValueError is raised.
    """
    if d_max < 0:
        raise ValueError("truncation degree must be nonnegative")
    bound1, bound2 = _pure_powers(ideal)
    basis = []
    for z in range(d_max + 1):
        for total in range(bound1 + bound2 - 1):
            for x in range(min(total, bound1 - 1) + 1):
                y = total - x
                if y >= bound2:
                    continue
                mono = (x, y, z)
                if not ideal.contains_monomial(mono):
                    basis.append(mono)
    return TruncatedQuotient(ideal, d_max, tuple(basis))


def syzygy_pairs(ideal: MonomialIdeal) -> list[tuple[tuple[int, int], Monomial]]:
    """All unordered generator pairs with the lcm of their exponents.

    For a monomial ideal these pairwise relations generate the full first
    syzygy module, so they are the complete constraint set for Hom
    computations; redundancy among them only repeats rows and cannot change
    the solution space.
    """
    gens = ideal.gens
    pairs = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            lcm = tuple(max(a, b) for a, b in zip(gens[i], gens[j]))
            pairs.append(((i, j), lcm))
    return pairs


class HomSolution(
    namedtuple(
        "HomSolution",
        ("ideal", "d_max", "quotient", "dimension", "rank", "n_unknowns", "basis_maps"),
    )
):
    """Solution of a truncated Hom computation.

    ``basis_maps[v][g]`` is the image of generator g under the v-th basis
    homomorphism, as a sparse ``{index into quotient.basis: nonzero int}`` map.
    """

    __slots__ = ()


def _constraint_rows(
    ideal: MonomialIdeal, quotient: TruncatedQuotient, window: TruncatedQuotient
) -> list[dict[int, int]]:
    """Sparse constraint rows over the unknowns (gen index, basis index).

    One row per (generator pair, extended-window monomial); an unknown of the
    pair's first generator that lands on that monomial has entry 1, one of the
    second has entry -1.  Multiplying by a cofactor is injective, so no
    unknown lands twice and no entry cancels.
    Every surviving product monomial must fall inside the guard window, or
    the computation would silently lose a constraint.
    """
    gens = ideal.gens
    basis = quotient.basis
    n_basis = len(basis)
    window_set = set(window.basis)
    rows: list[dict[int, int]] = []
    for (gi, gj), lcm in syzygy_pairs(ideal):
        contributions: dict[Monomial, dict[int, int]] = {}
        for g, sign in ((gi, 1), (gj, -1)):
            mult = tuple(l - e for l, e in zip(lcm, gens[g]))
            for b, mono in enumerate(basis):
                prod = (mono[0] + mult[0], mono[1] + mult[1], mono[2] + mult[2])
                if prod not in window_set:
                    # Window monomials are standard, so only an outside
                    # product needs the ideal test: in the ideal it is zero.
                    if ideal.contains_monomial(prod):
                        continue
                    raise RuntimeError(
                        f"constraint monomial {_monomial_str(prod)} escapes the guard window"
                    )
                contributions.setdefault(prod, {})[g * n_basis + b] = sign
        rows.extend(contributions[prod] for prod in sorted(contributions))
    return rows


def hom_dimension(ideal: MonomialIdeal, d_max: int) -> HomSolution:
    """Dimension and basis of Hom(I, quotient by I), truncated at ``d_max``.

    Unknowns are the coefficients of the generator images over the truncated
    quotient basis; constraints come from every syzygy pair, evaluated with
    the guard band described in the module docstring.  Each kernel vector
    is the 0/1 indicator of a connected component of the equalities that
    holds no zeroed unknown; the rank is the number of unknowns less their
    count.  Ideals whose size (generators x w1 box x w2 box x guard window
    depth) exceeds :data:`SIZE_CAP` are rejected with a ValueError before
    any enumeration.
    """
    gens = ideal.gens
    # The largest w3 cofactor exponent of any generator pair.
    guard = max(g[2] for g in gens) - min(g[2] for g in gens)
    bound1, bound2 = _pure_powers(ideal)
    size = len(gens) * bound1 * bound2 * (d_max + guard + 1)
    if size > SIZE_CAP:
        raise ValueError(f"ideal size {size} at d_max {d_max} exceeds the cap {SIZE_CAP}")
    quotient = standard_monomials(ideal, d_max)
    n_basis = len(quotient.basis)
    n_unknowns = len(gens) * n_basis
    window = standard_monomials(ideal, d_max + guard)
    rows = _constraint_rows(ideal, quotient, window)
    null_basis = linalg.nullspace(rows, n_unknowns)
    basis_maps = tuple(tuple({} for _ in gens) for _ in null_basis)
    for images, vec in zip(basis_maps, null_basis):
        for unknown, c in vec.items():
            g, b = divmod(unknown, n_basis)
            images[g][b] = c
    solution = HomSolution(
        ideal=ideal,
        d_max=d_max,
        quotient=quotient,
        dimension=len(null_basis),
        rank=n_unknowns - len(null_basis),
        n_unknowns=n_unknowns,
        basis_maps=basis_maps,
    )
    if not verify_hom_solution(solution):
        raise RuntimeError("solved basis map fails a syzygy constraint on re-substitution")
    return solution


def _apply_map(ideal: MonomialIdeal, quotient: TruncatedQuotient, images, gen: int, mult: Monomial):
    """Multiply the image of one generator by a cofactor, in the quotient."""
    out: dict[Monomial, int] = {}
    for b, c in images[gen].items():
        mono = quotient.basis[b]
        prod = (mono[0] + mult[0], mono[1] + mult[1], mono[2] + mult[2])
        if not ideal.contains_monomial(prod):
            out[prod] = c  # multiplying by a monomial is injective: no collisions
    return out


def verify_hom_solution(solution: HomSolution) -> bool:
    """Re-substitute every basis map into every syzygy constraint.

    Returns True when all constraints hold exactly.
    """
    ideal, quotient = solution.ideal, solution.quotient
    # Both cofactors of every syzygy pair, computed once for all basis maps.
    sides = [
        [(g, tuple(l - e for l, e in zip(lcm, ideal.gens[g]))) for g in pair]
        for pair, lcm in syzygy_pairs(ideal)
    ]
    for images in solution.basis_maps:
        for (gi, mult_i), (gj, mult_j) in sides:
            lhs = _apply_map(ideal, quotient, images, gi, mult_i)
            if lhs != _apply_map(ideal, quotient, images, gj, mult_j):
                return False
    return True


def tangent_jump_report(d_values) -> dict:
    """Check the truncated Hom dimensions of the two built-in local models.

    For every truncation degree D in ``d_values`` the line model must give
    2D + 2 and the embedded-point model 10 + 2D.  The report states the
    fixed-truncation gap (8) and the series-index offset (2, one slot for
    each of the two free w3-series families) whose sum is the untruncated
    tangent-space jump of 10.  The offset is reported, not re-derived: the
    window only ever sees finitely many series coefficients.
    """
    d_values = list(d_values)
    if not d_values:
        raise ValueError("at least one truncation degree is required")
    if any(d < 0 for d in d_values):
        raise ValueError("truncation degrees must be nonnegative")
    rows = []
    all_ok = True
    for d in d_values:
        line = hom_dimension(LINE_IDEAL, d)
        embedded = hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, d)
        expected_line = 2 * d + 2
        expected_embedded = 10 + 2 * d
        ok = line.dimension == expected_line and embedded.dimension == expected_embedded
        all_ok = all_ok and ok
        rows.append(
            {
                "d_max": d,
                "line_dimension": line.dimension,
                "line_expected": expected_line,
                "line_rank": line.rank,
                "embedded_dimension": embedded.dimension,
                "embedded_expected": expected_embedded,
                "embedded_rank": embedded.rank,
                "local_difference": embedded.dimension - line.dimension,
                "ok": ok,
            }
        )
    differences = sorted({row["local_difference"] for row in rows})
    passed = all_ok and differences == [8]
    return {
        "ideals": {
            "line": LINE_IDEAL.to_json(),
            "line_with_embedded_point": LINE_WITH_EMBEDDED_POINT_IDEAL.to_json(),
        },
        "rows": rows,
        "local_difference": differences if len(differences) != 1 else differences[0],
        "series_family_offset": 2,
        "global_jump": 10,
        "note": (
            "local_difference counts free parameters at a fixed w3 truncation; "
            "each of the two free w3-series families starts one index later in "
            "the embedded-point model, so the untruncated jump is "
            "local_difference + series_family_offset."
        ),
        "passed": passed,
    }
