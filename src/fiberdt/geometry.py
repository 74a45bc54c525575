"""Hodge diamonds, a small registry of standard surfaces, and curve
fibrations over surfaces.

The virtual Hodge polynomial used throughout is normalized as
e(V) = sum over (i, j) of (-1)^(i+j) h^{i,j}(V) s^i t^j, so that evaluating
at s = t = 1 recovers the topological Euler number.
"""

from __future__ import annotations

from collections import namedtuple

from .polyseries import BivariatePolynomial

__all__ = [
    "InvalidDiamond",
    "HodgeDiamond",
    "FibrationSpec",
    "curve_diamond",
    "registry_lookup",
    "surface_names",
    "surface_with_euler_number",
    "K_TRIVIAL_SURFACE_NAMES",
]


class InvalidDiamond(ValueError):
    """A Hodge grid violating one of the diamond invariants; the message
    names the invariant, so callers can report exactly what failed."""

    def __init__(self, invariant: str, detail: str):
        super().__init__(f"invalid Hodge diamond ({invariant}): {detail}")


class HodgeDiamond(namedtuple("HodgeDiamond", ("grid",))):
    """The grid h^{i,j} of a connected smooth projective variety.

    Validation enforces conjugation symmetry h^{i,j} = h^{j,i}, Serre duality
    h^{i,j} = h^{d-i,d-j} and the normalization h^{0,0} = 1.
    """

    __slots__ = ()

    def __new__(cls, grid):
        try:
            grid = tuple(tuple(row) for row in grid)
        except TypeError:
            raise InvalidDiamond("shape", "grid must be a sequence of rows")
        n = len(grid)
        if n == 0 or any(len(row) != n for row in grid):
            raise InvalidDiamond("shape", f"grid must be square and nonempty, got rows {[len(r) for r in grid]}")
        d = n - 1
        for i, row in enumerate(grid):
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise InvalidDiamond(
                        "nonnegative integers", f"h^{{{i},{j}}} = {v!r}"
                    )
        for i in range(n):
            for j in range(i + 1, n):
                if grid[i][j] != grid[j][i]:
                    raise InvalidDiamond(
                        "conjugation symmetry",
                        f"h^{{{i},{j}}} = {grid[i][j]} differs from h^{{{j},{i}}} = {grid[j][i]}",
                    )
        for i in range(n):
            for j in range(n):
                if grid[i][j] != grid[d - i][d - j]:
                    raise InvalidDiamond(
                        "Serre duality",
                        f"h^{{{i},{j}}} = {grid[i][j]} differs from h^{{{d - i},{d - j}}} = {grid[d - i][d - j]}",
                    )
        if grid[0][0] != 1:
            raise InvalidDiamond("h^{0,0} = 1", f"h^{{0,0}} = {grid[0][0]}")
        return super().__new__(cls, grid)

    @property
    def dim(self) -> int:
        return len(self.grid) - 1

    def hodge(self, i: int, j: int) -> int:
        if not (0 <= i <= self.dim and 0 <= j <= self.dim):
            raise ValueError(f"Hodge indices ({i}, {j}) outside 0..{self.dim}")
        return self.grid[i][j]

    def e_polynomial(self) -> BivariatePolynomial:
        """sum of (-1)^(i+j) h^{i,j} s^i t^j over the diamond."""
        terms = {}
        for i, row in enumerate(self.grid):
            for j, v in enumerate(row):
                if v:
                    terms[(i, j)] = -v if (i + j) % 2 else v
        return BivariatePolynomial(terms)

    def euler_number(self) -> int:
        return self.e_polynomial().eval_one()

    @classmethod
    def from_json(cls, doc) -> "HodgeDiamond":
        """Build from the document form {"dim": d, "h": [[...], ...]}, with d
        an int."""
        if not isinstance(doc, dict) or "dim" not in doc or "h" not in doc:
            raise InvalidDiamond("shape", 'document must contain "dim" and "h"')
        diamond = cls(doc["h"])
        # type() rather than ==, which would take 2.0 and True as 2 and 1.
        if type(doc["dim"]) is not int or diamond.dim != doc["dim"]:
            raise InvalidDiamond(
                "shape", f'"dim" field {doc["dim"]!r} does not match grid size {diamond.dim}'
            )
        return diamond

    def to_json(self) -> dict:
        return {"dim": self.dim, "h": [list(row) for row in self.grid]}


def curve_diamond(genus: int) -> HodgeDiamond:
    """Diamond of a smooth projective curve of the given genus."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    return HodgeDiamond([[1, genus], [genus, 1]])


_SURFACES = {
    "p2": HodgeDiamond([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "p1xp1": HodgeDiamond([[1, 0, 0], [0, 2, 0], [0, 0, 1]]),
    "k3": HodgeDiamond([[1, 0, 1], [0, 20, 0], [1, 0, 1]]),
    "abelian": HodgeDiamond([[1, 2, 1], [2, 4, 2], [1, 2, 1]]),
}

#: Registry surfaces whose canonical class vanishes identically.  Only these
#: qualify for the Donaldson-Thomas path; surfaces with merely torsion
#: canonical class are deliberately left unflagged.
K_TRIVIAL_SURFACE_NAMES = frozenset({"k3", "abelian"})


def surface_names() -> tuple[str, ...]:
    return tuple(sorted(_SURFACES))


def registry_lookup(name: str) -> HodgeDiamond:
    """Return the diamond of the registry surface ``name``: p2, p1xp1, k3 or
    abelian.  Curves come from :func:`curve_diamond`."""
    try:
        return _SURFACES[name]
    except KeyError:
        known = ", ".join(surface_names())
        raise ValueError(f"unknown geometry {name!r}; known names: {known}") from None


def surface_with_euler_number(chi: int) -> HodgeDiamond:
    """Some valid surface diamond with the requested Euler number.

    Used to drive Euler-level cross-checks at an arbitrary target chi; the
    grid is [[1, g, 0], [g, x, g], [0, g, 1]] with x chosen so that
     2 + x - 4 g = chi.
    """
    if chi >= 3:
        genus, middle = 0, chi - 2
    else:
        genus = -((chi - 3) // 4)  # smallest g >= 1 making the middle entry positive
        middle = chi - 2 + 4 * genus
    return HodgeDiamond([[1, genus, 0], [genus, middle, genus], [0, genus, 1]])


class FibrationSpec(namedtuple("FibrationSpec", ("base", "fiber_genus", "base_canonical_trivial"))):
    """A 3-fold presented as a Zariski-locally trivial curve fibration.

    The base surface is given by its Hodge diamond, the fiber by its genus.
    ``base_canonical_trivial`` records whether the base came from a registry
    entry flagged as having K = 0.
    """

    __slots__ = ()

    def __new__(cls, base: HodgeDiamond, fiber_genus: int, base_canonical_trivial: bool = False):
        if base.dim != 2:
            raise ValueError(f"fibration base must be a surface, got dimension {base.dim}")
        if fiber_genus < 0:
            raise ValueError("fiber genus must be nonnegative")
        return super().__new__(cls, base, fiber_genus, base_canonical_trivial)

    @classmethod
    def from_surface_name(cls, name: str, fiber_genus: int) -> "FibrationSpec":
        return cls(registry_lookup(name), fiber_genus, name in K_TRIVIAL_SURFACE_NAMES)

    @property
    def beta_dot_kx(self) -> int:
        """The fiber class beta against the canonical class of the 3-fold.

        A fiber F has trivial normal bundle, so adjunction gives
        K_X|_F = K_F, of degree 2g - 2.
        """
        return 2 * self.fiber_genus - 2

    def e_polynomial(self) -> BivariatePolynomial:
        """e of the total space: fibers multiply over a locally trivial fibration."""
        return curve_diamond(self.fiber_genus).e_polynomial() * self.base.e_polynomial()

    def euler_number(self) -> int:
        return self.e_polynomial().eval_one()
