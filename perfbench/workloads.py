"""Seeded request plans for the three benchmark workloads.

A workload is a fixed list of slots.  Each slot has a small pool of
variants of similar cost; the seed picks one variant per slot and the order
of the slots, so every seed runs the same kind and amount of work on
different inputs.  A round of a run is the chosen list, in order, and every
round of a run repeats it.

Every variant of every pool is listed by :func:`all_requests`, which is what
``make_digests.py`` runs to record the expected sha256 of each output.

Requests are argument lists for the ``fiberdt`` CLI.  Surface diamonds and
ideals that the seed chooses are written as fixture files under the run's
work directory and named by relative path, so a request's key (its argument
list without ``--cache``) does not depend on where the checkout lives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("series-dense", "series-cached", "localhom")

FIXTURE_DIR = "fixtures"


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its checks need to know about it.

    ``spec`` describes the expected output independently of fiberdt: for
    series the kind, format and the Euler numbers chi(S) and chi(X) of the
    chosen geometry; for dt the table length; for localhom the ideal, the
    truncation degree and, for cylinders, the partition size.
    """

    argv: tuple[str, ...]
    spec: dict
    fixtures: dict = field(default_factory=dict)
    cache_role: str | None = None  # "miss" or "hit" for --cache requests

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# geometry inputs
# ---------------------------------------------------------------------------

REGISTRY = {
    "p2": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "p1xp1": ((1, 0, 0), (0, 2, 0), (0, 0, 1)),
    "k3": ((1, 0, 1), (0, 20, 0), (1, 0, 1)),
    "abelian": ((1, 2, 1), (2, 4, 2), (1, 2, 1)),
}


def diamond(h01: int, h02: int, h11: int) -> tuple[tuple[int, ...], ...]:
    """A valid surface diamond with the given h^{0,1}, h^{0,2} and h^{1,1}."""
    return ((1, h01, h02), (h01, h11, h01), (h02, h01, 1))


def euler_number(grid) -> int:
    return sum((-1) ** (i + j) * v for i, row in enumerate(grid) for j, v in enumerate(row))


def _surface_arg(grid) -> tuple[str, dict]:
    """The --surface argument for a grid, and the fixture file it needs."""
    for name, known in REGISTRY.items():
        if known == tuple(tuple(r) for r in grid):
            return name, {}
    flat = "-".join(str(v) for v in (grid[0][1], grid[0][2], grid[1][1]))
    path = f"{FIXTURE_DIR}/surface-{flat}.json"
    return path, {path: {"dim": 2, "h": [list(r) for r in grid]}}


def series_request(kind, grid, q_max, *, genus=None, fmt="json", euler=False, cache_role=None):
    surface, fixtures = _surface_arg(grid)
    argv = ["series", kind, "--surface", surface]
    if genus is not None:
        argv += ["--genus", str(genus)]
    argv += ["--qmax", str(q_max)]
    if euler:
        argv.append("--euler")
    argv += ["--format", fmt]
    chi_s = euler_number(grid)
    chi_x = (2 - 2 * genus) * chi_s if kind == "im1" else chi_s
    spec = {"type": "series", "kind": kind, "format": fmt, "euler": euler,
            "q_max": q_max, "chi_s": chi_s, "chi_x": chi_x}
    return Request(tuple(argv), spec, fixtures, cache_role)


def dt_request(surface, m_max):
    argv = ("dt", "--surface", surface, "--mmax", str(m_max), "--format", "json")
    return Request(argv, {"type": "dt", "m_max": m_max})


# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------


def partition_generators(parts) -> list[tuple[int, int]]:
    """Minimal generators w1^a w2^b of the monomial ideal of a partition.

    The partition's boxes (x, y) with x < parts[y] are the standard
    monomials; one generator sits at each outer corner.
    """
    gens = []
    previous = None
    for y in range(len(parts) + 1):
        width = parts[y] if y < len(parts) else 0
        if previous is None or width < previous:
            gens.append((width, y))
        previous = width
    return gens


def cylinder_ideal(parts) -> list[list[int]]:
    """The ideal of the partition, extended along w3 (no w3 in any generator)."""
    return [[a, b, 0] for a, b in partition_generators(parts)]


def embedded_point_ideal(inner, outer) -> list[list[int]]:
    """I_outer + w3 I_inner: the cylinder over ``inner`` with the boxes of
    ``outer`` not in ``inner`` added at w3 = 0, an embedded point on the curve.
    """
    gens = {(a, b, 0) for a, b in partition_generators(outer)}
    gens |= {(a, b, 1) for a, b in partition_generators(inner)}
    minimal = [
        g for g in gens
        if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)
    ]
    return [list(g) for g in sorted(minimal)]


def ideal_request(gens, d_max, *, cylinder_size=None):
    text = "_".join("".join(str(e) for e in g) for g in gens)
    path = f"{FIXTURE_DIR}/ideal-{text}.json"
    argv = ("localhom", "--dmax", str(d_max), "--ideal-file", path, "--format", "json")
    spec = {"type": "localhom-ideal", "ideal": gens, "d_max": d_max,
            "cylinder_size": cylinder_size}
    return Request(argv, spec, {path: gens})


def builtin_localhom_request(d_max):
    argv = ("localhom", "--dmax", str(d_max), "--format", "json")
    return Request(argv, {"type": "localhom-builtin", "d_max": d_max})


# ---------------------------------------------------------------------------
# slots
# ---------------------------------------------------------------------------
# Each slot is a list of interchangeable variants; a variant is one request or,
# for series-cached, a miss followed by its hits.  Truncation orders and pools
# were chosen so that every variant of a slot costs about the same.


def _dense_slots():
    # Off-diagonal diamonds: 2-D coefficients with about q^2 terms.  Regular
    # surfaces with p_g > 0 (k3-like), irregular ones with q > 0, and ones with
    # both; h^{1,1} varies within a range that keeps integer sizes alike.
    k3_like = [diamond(0, p, h) for p in (1, 2) for h in (12, 16, 20)]
    irregular = [diamond(2, 0, h) for h in (6, 8, 10, 12)]
    mixed = [diamond(1, 1, h) for h in (6, 8, 10, 12)]
    return [
        [series_request("hilb", REGISTRY["k3"], 21)],
        [series_request("incidence", REGISTRY["abelian"], 16)],
        [series_request("im1", g, 21, genus=0) for g in k3_like],
        [series_request("im1", g, 20, genus=1) for g in irregular],
        [series_request("im1", g, 16, genus=2) for g in mixed],
        [series_request("hilb", g, 21) for g in irregular],
        [series_request("incidence", g, 21) for g in k3_like],
        [dt_request("k3", 20)],
        [dt_request("abelian", 15)],
    ]


_HIT_FORMATS = (("json", False), ("csv", False), ("text", False), ("json", True))


def _cached_key(kind, grid, q_max, genus=None):
    """A miss in json, then hits of the same key in every output form."""
    miss = series_request(kind, grid, q_max, genus=genus, cache_role="miss")
    hits = [
        series_request(kind, grid, q_max, genus=genus, fmt=fmt, euler=euler, cache_role="hit")
        for fmt, euler in _HIT_FORMATS
    ]
    return (miss, *hits)


def _cached_slots():
    # Diagonal diamonds (h^{0,1} = h^{0,2} = 0) keep every coefficient on the
    # s = t diagonal, so q_max can sit at the cap of 50.
    diagonal = [diamond(0, 0, h) for h in (3, 4, 5, 6)]
    return [
        [_cached_key("hilb", REGISTRY["p2"], 50)],
        # Genus 0 has a two-term e(C) and runs cheaper; it is covered by series-dense.
        [_cached_key("im1", REGISTRY["p1xp1"], 50, genus=g) for g in (1, 2)],
        [_cached_key("incidence", g, 50) for g in diagonal],
        [_cached_key("im1", g, 50, genus=1) for g in diagonal],
        [_cached_key("hilb", REGISTRY["k3"], 12), _cached_key("hilb", REGISTRY["abelian"], 10)],
    ]


def _conjugate(parts):
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def _cylinder_pool(shapes, d_max):
    """Cylinders over the shapes and over their conjugates (w1 and w2 swapped)."""
    closed = sorted({s for p in shapes for s in (p, _conjugate(p))})
    return [ideal_request(cylinder_ideal(s), d_max, cylinder_size=sum(s)) for s in closed]


def _embedded_pool(inner, outer, d_max):
    """An embedded-point ideal and its mirror image under w1 <-> w2."""
    shapes = sorted({(inner, outer), (_conjugate(inner), _conjugate(outer))})
    return [ideal_request(embedded_point_ideal(i, o), d_max) for i, o in shapes]


def _localhom_slots():
    # The variants of a slot cost the same: a shape and its mirror image, or
    # hooks (a, 1, ..., 1) of one size, whose dense elimination runs the same
    # number of row operations on a matrix of the same size.  The seed changes
    # the ideals, not the work of a round.
    return [
        [builtin_localhom_request(12)],
        _cylinder_pool([(4, 3, 1)], 12),
        _cylinder_pool([(4, 2, 1)], 10),
        _cylinder_pool([(7, 1), (6, 1, 1), (5, 1, 1, 1)], 10),
        _cylinder_pool([(5, 1), (4, 1, 1)], 12),
        _cylinder_pool([(4, 1), (3, 1, 1)], 10),
        _embedded_pool((1, 1, 1), (2, 1, 1), 12),
        _embedded_pool((2, 1, 1), (2, 2, 1), 10),
    ]


_SLOTS = {"series-dense": _dense_slots, "series-cached": _cached_slots, "localhom": _localhom_slots}


def _as_group(variant) -> tuple[Request, ...]:
    return variant if isinstance(variant, tuple) else (variant,)


def plan(workload: str, seed: int) -> list[Request]:
    """The round's request list for a seed: one variant per slot, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    groups = [_as_group(rng.choice(slot)) for slot in _SLOTS[workload]()]
    rng.shuffle(groups)
    return [request for group in groups for request in group]


def all_requests(workload: str) -> list[Request]:
    """Every request any seed can produce, each key once."""
    seen = {}
    for slot in _SLOTS[workload]():
        for variant in slot:
            for request in _as_group(variant):
                seen.setdefault(request.key, request)
    return list(seen.values())


def write_fixtures(requests, work_dir: Path) -> None:
    (work_dir / FIXTURE_DIR).mkdir(parents=True, exist_ok=True)
    for request in requests:
        for rel, doc in request.fixtures.items():
            (work_dir / rel).write_text(json.dumps(doc) + "\n")
