"""Truncated Hom-space dimensions for monomial-ideal local models.

A homomorphism from a monomial ideal I in C[w1, w2, w3] to the quotient ring
by I is determined by the images of the generators, subject to one relation
per generator pair: multiplying the two images by the complementary lcm
cofactors must give the same element of the quotient.  For monomial ideals
the pairwise lcm relations generate all first syzygies, so the solution
space of that linear system is exactly the Hom space.

The quotient ring is infinite along w3 for the ideals of interest, so the
unknown images are truncated at a w3-degree ``d_max``; the constraints are
not.  A product of a truncated basis monomial with a syzygy cofactor has
w3-degree at most ``d_max + guard``, ``guard`` being the spread of the
generators' w3 exponents, and outside the pure-power box in w1 and w2 it lies
in the ideal.  So each product is either zero in the quotient or a standard
monomial, and one of w3-degree above ``d_max`` still yields its constraint;
dropping it would inflate the dimension at the top degree.

The two built-in ideals model a smooth curve locally cut out by (w1, w2) and
the same curve carrying an embedded doubled point, cut out by
(w1^2, w1 w2, w2^2, w1 w3, w2 w3).  Their truncated Hom dimensions are
2 d_max + 2 and 10 + 2 d_max, a gap of 8 at fixed truncation; matching the
two free w3-series families index by index shifts the untruncated gap to 10.
Multiplying by a cofactor is injective, so every constraint row either sets
one unknown to zero, ``(u,)``, or equates two, ``(u, v)``.  Each component of
that equality graph with no zeroed unknown is one basis map
(``linalg.nullspace``): it sends each generator to the sum of the basis
monomials of its unknowns in the component.

The torus of C^3 grades the same system (Nakajima, Lectures on Hilbert
Schemes of Points on Surfaces, Prop. 5.8): the unknown for generator g and
basis monomial m has weight m - g, and a syzygy pair with lcm L lands its
unknowns of weight w on L + w.  :func:`verify_hom_solution` solves the system
that way, one weight at a time, sharing no code with the rows or the kernel.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg

__all__ = [
    "MonomialIdeal",
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

# Bound on generators x (w1 box) x (w2 box) x (d_max + guard + 1) for one
# Hom computation; it is checked from the exponents before anything is
# enumerated.  The largest benchmark ideal, the (4,3,1) cylinder at
# d_max = 12, needs 624.
SIZE_CAP = 2000


def _divides(a: Monomial, b: Monomial) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def _monomial_str(mono: Monomial) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(("w1", "w2", "w3"), mono) if e) or "1"


def _check_triples(gens) -> None:
    if not gens:
        raise ValueError("a monomial ideal needs at least one generator")
    for g in gens:
        if len(g) != 3 or any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in g):
            raise ValueError(f"generator {g!r} is not a triple of nonnegative integers")


def _check_size(gens, d_max: int) -> None:
    """Refuse a Hom computation over :data:`SIZE_CAP` (see :func:`hom_dimension`)
    in linear time.  A missing pure power counts as 0: standard_monomials refuses it."""
    # The largest w3 cofactor exponent of any generator pair.
    guard = max(g[2] for g in gens) - min(g[2] for g in gens)
    box1 = min((g[0] for g in gens if g[1] == g[2] == 0), default=0)
    box2 = min((g[1] for g in gens if g[0] == g[2] == 0), default=0)
    size = len(gens) * box1 * box2 * (d_max + guard + 1)
    if size > SIZE_CAP:
        raise ValueError(f"ideal size {size} at d_max {d_max} exceeds the cap {SIZE_CAP}")


class MonomialIdeal(namedtuple("MonomialIdeal", ("gens",))):
    """An ideal of C[w1, w2, w3] given by its minimal monomial generators.

    ``gens`` is a tuple of exponent triples, no one of which divides another.
    """

    __slots__ = ()

    def __new__(cls, gens: tuple[Monomial, ...]):
        _check_triples(gens)
        for i, a in enumerate(gens):
            for j, b in enumerate(gens):
                if i != j and _divides(a, b):
                    raise ValueError(
                        f"generator {_monomial_str(a)} divides {_monomial_str(b)}: "
                        "generators must be minimal"
                    )
        return super().__new__(cls, gens)

    @classmethod
    def from_json(cls, triples, d_max: int = 0) -> "MonomialIdeal":
        """Build from a JSON list of exponent triples.  One over the size cap
        at ``d_max`` is refused before the minimality scan; one over it at
        D = 0 is over it at every D."""
        if not isinstance(triples, list) or not all(isinstance(t, list) for t in triples):
            raise ValueError("ideal document must be a list of exponent triples")
        if len(triples) > SIZE_CAP:
            raise ValueError(f"{len(triples)} generators exceed the size cap {SIZE_CAP}")
        gens = tuple(tuple(t) for t in triples)
        _check_triples(gens)
        _check_size(gens, d_max)
        return cls(gens)

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


def _pure_powers(ideal: MonomialIdeal) -> tuple[int, int]:
    """The smallest pure powers of w1 and w2 among the generators."""
    pure1 = [g[0] for g in ideal.gens if g[1] == 0 and g[2] == 0]
    pure2 = [g[1] for g in ideal.gens if g[0] == 0 and g[2] == 0]
    if not pure1:
        raise ValueError(f"quotient by {ideal} is unbounded in the w1 direction")
    if not pure2:
        raise ValueError(f"quotient by {ideal} is unbounded in the w2 direction")
    return min(pure1), min(pure2)


def standard_monomials(ideal: MonomialIdeal, d_max: int) -> tuple[Monomial, ...]:
    """All standard monomials (divisible by no generator) with w3-exponent at
    most ``d_max``, in a fixed graded order.

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
    return tuple(basis)


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


class HomSolution(namedtuple("HomSolution", ("ideal", "d_max", "basis", "basis_maps"))):
    """Solution of a truncated Hom computation.

    ``basis`` is the quotient basis, :func:`standard_monomials` at ``d_max``.
    ``basis_maps[v][g]`` is the image of generator g under the v-th basis
    homomorphism, the sum of the monomials at a sorted tuple of indices into
    ``basis`` (every kernel vector is a 0/1 indicator); so the record is
    frozen and hashable.  The counts are read off the maps: the dimension is
    their number, the unknowns are one per generator and basis monomial, and
    the rank is the unknowns less the dimension.
    """

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.basis_maps)

    @property
    def n_unknowns(self) -> int:
        return len(self.ideal.gens) * len(self.basis)

    @property
    def rank(self) -> int:
        return self.n_unknowns - self.dimension


def _constraint_rows(ideal: MonomialIdeal, basis: tuple[Monomial, ...]) -> list[tuple[int, ...]]:
    """Constraint rows over the unknowns (gen index, basis index), numbered
    ``gen * len(basis) + basis index``.

    One row per (generator pair, standard product monomial): ``(u, v)`` when
    an unknown u of the pair's first generator and an unknown v of the
    second land on that monomial (x_u = x_v), ``(u,)`` when only one does
    (x_u = 0).  A product in the ideal is zero and yields nothing.
    Multiplying by a cofactor is injective, so no generator lands twice on
    one monomial.
    """
    gens = ideal.gens
    n_basis = len(basis)
    rows: list[tuple[int, ...]] = []
    for (gi, gj), lcm in syzygy_pairs(ideal):
        landed: dict[Monomial, tuple[int, ...]] = {}
        for g in (gi, gj):
            mult = tuple(l - e for l, e in zip(lcm, gens[g]))
            for b, mono in enumerate(basis):
                prod = (mono[0] + mult[0], mono[1] + mult[1], mono[2] + mult[2])
                if not ideal.contains_monomial(prod):
                    landed[prod] = landed.get(prod, ()) + (g * n_basis + b,)
        rows.extend(landed[prod] for prod in sorted(landed))
    return rows


def hom_dimension(ideal: MonomialIdeal, d_max: int) -> HomSolution:
    """Dimension and basis of Hom(I, quotient by I), truncated at ``d_max``.

    Unknowns are the coefficients of the generator images over the truncated
    quotient basis; constraints come from every syzygy pair, untruncated as
    described in the module docstring.  Each kernel vector is the 0/1
    indicator of a connected component of the equalities that holds no
    zeroed unknown.  Ideals whose size (generators x w1 box x w2 box x
    (d_max + guard + 1)) exceeds :data:`SIZE_CAP` are rejected with a
    ValueError before any enumeration.  Basis maps that
    :func:`verify_hom_solution` rejects raise RuntimeError.
    """
    gens = ideal.gens
    _check_size(gens, d_max)
    basis = standard_monomials(ideal, d_max)
    n_basis = len(basis)
    basis_maps = []
    for component in linalg.nullspace(_constraint_rows(ideal, basis), len(gens) * n_basis):
        images: list[list[int]] = [[] for _ in gens]
        for unknown in component:  # sorted, so each image comes out sorted
            g, b = divmod(unknown, n_basis)
            images[g].append(b)
        basis_maps.append(tuple(map(tuple, images)))
    solution = HomSolution(ideal, d_max, basis, tuple(basis_maps))
    if not verify_hom_solution(solution):
        raise RuntimeError("solved basis maps are not the kernel solved one torus weight at a time")
    return solution


def verify_hom_solution(solution: HomSolution) -> bool:
    """Solve the Hom system again, one torus weight w at a time, and compare.

    Generator g's unknown at w is the coefficient of g + w, when that is a
    basis monomial.  A syzygy pair with lcm L equates its two unknowns, or
    zeroes the one it has, when L + w is a standard monomial; by the guard
    argument of the module docstring, the standard monomials up to w3-degree
    ``d_max + guard`` hold every such L + w.  So a weight has at most one
    unknown per generator, and each connected set with no zeroed unknown is
    one map.  Returns True when the basis is :func:`standard_monomials` at
    ``d_max`` and the basis maps are exactly these maps, each once.
    """
    ideal, d_max = solution.ideal, solution.d_max
    gens = ideal.gens
    guard = max(g[2] for g in gens) - min(g[2] for g in gens)
    window = standard_monomials(ideal, d_max + guard)
    basis = tuple(mono for mono in window if mono[2] <= d_max)
    if basis != solution.basis:
        return False
    standard = set(window)
    by_weight: dict[Monomial, dict[int, int]] = {}  # weight -> {generator: basis index}
    for b, mono in enumerate(basis):
        for g, gen in enumerate(gens):
            weight = (mono[0] - gen[0], mono[1] - gen[1], mono[2] - gen[2])
            by_weight.setdefault(weight, {})[g] = b
    pairs = syzygy_pairs(ideal)
    kernel = set()
    for w, unknowns in by_weight.items():
        label = {g: g for g in unknowns}  # generator -> its connected set's label
        zeroed = []
        for (i, j), lcm in pairs:
            if i not in unknowns and j not in unknowns:
                continue
            if (lcm[0] + w[0], lcm[1] + w[1], lcm[2] + w[2]) not in standard:
                continue  # L + w lies in the ideal: the constraint is 0 = 0
            if j not in unknowns:
                zeroed.append(i)
            elif i not in unknowns:
                zeroed.append(j)
            else:
                old, new = label[i], label[j]
                for g, l in label.items():
                    if l == old:
                        label[g] = new
        for kept in set(label.values()).difference(label[g] for g in zeroed):
            images = ((unknowns[g],) if label.get(g) == kept else () for g in range(len(gens)))
            kernel.add(tuple(images))
    return len(solution.basis_maps) == len(kernel) and set(solution.basis_maps) == kernel


def tangent_jump_report(d_max: int) -> dict:
    """Check the truncated Hom dimensions of the two built-in local models.

    For every truncation degree D from 1 to ``d_max`` the line model must
    give 2D + 2 and the embedded-point model 10 + 2D.  The report states the
    fixed-truncation gap (8) and the series-index offset (2, one slot for
    each of the two free w3-series families) whose sum is the untruncated
    tangent-space jump of 10.  The offset is reported, not re-derived: the
    truncation only ever sees finitely many series coefficients.  A
    negative ``d_max`` or 0 raises ValueError.
    """
    if d_max < 0:
        raise ValueError("truncation degrees must be nonnegative")
    if d_max == 0:
        raise ValueError("at least one truncation degree is required")
    rows = []
    for d in range(1, d_max + 1):
        line = hom_dimension(LINE_IDEAL, d)
        embedded = hom_dimension(LINE_WITH_EMBEDDED_POINT_IDEAL, d)
        expected_line = 2 * d + 2
        expected_embedded = 10 + 2 * d
        ok = line.dimension == expected_line and embedded.dimension == expected_embedded
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
    passed = all(row["ok"] for row in rows) and differences == [8]
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
