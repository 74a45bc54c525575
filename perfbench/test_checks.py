"""Tests of the benchmark's own output checks.

The checks must accept what fiberdt emits today, reproduce known values by
their own arithmetic, and reject a document with one coefficient changed or
one term moved.  Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import checks
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from fiberdt import cli  # noqa: E402


def render(tmp_path, *args) -> str:
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 0
    return out.read_text()


def series_case(tmp_path, kind, surface, q_max, fmt, *, genus=None, euler=False):
    grid = workloads.REGISTRY[surface]
    request = workloads.series_request(kind, grid, q_max, genus=genus, fmt=fmt, euler=euler)
    return render(tmp_path, *request.argv), request.spec


def reseal(doc: dict) -> str:
    """Recompute a JSON document's checksum after editing it."""
    payload = {k: v for k, v in doc.items() if k != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# known values
# ---------------------------------------------------------------------------


def test_sigma_recurrence_gives_partition_numbers():
    assert checks.euler_product(1, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_sigma_recurrence_gives_k3_hilbert_euler_numbers():
    assert checks.euler_product(24, 4) == [1, 24, 324, 3200, 25650]


def test_labelled_shift():
    # incidence: q/(1-q) chi(S) prod; im1 over k3 x elliptic curve: chi(X) = 0.
    assert checks.expected_euler("incidence", 3, 3, 3) == [0, 3, 12, 39]
    assert checks.expected_euler("im1", 24, 0, 5) == [0] * 6


@pytest.mark.parametrize("n, betti", [(2, [1, 2, 3, 2, 1]), (3, [1, 2, 5, 6, 5, 2, 1])])
def test_betti_numbers_of_hilbert_schemes_of_p2(tmp_path, n, betti):
    text, spec = series_case(tmp_path, "hilb", "p2", n, "json")
    checks.check_series(text, spec)
    terms = checks.parse_json(text, spec)[n]
    assert all(i == j for i, j in terms)  # P2^[n] has only (p, p) classes
    assert [terms.get((k, k), 0) for k in range(2 * n + 1)] == betti


def test_quotient_size_of_a_cylinder():
    gens = workloads.cylinder_ideal((4, 2, 1, 1))
    assert checks.quotient_size(gens, 12) == 8 * 13


def test_embedded_point_model_is_the_builtin_one():
    assert workloads.embedded_point_ideal((1,), (2, 1)) == sorted(
        [[2, 0, 0], [1, 1, 0], [0, 2, 0], [1, 0, 1], [0, 1, 1]]
    )


# ---------------------------------------------------------------------------
# acceptance of real output, rejection of perturbed output
# ---------------------------------------------------------------------------

SERIES_CASES = [
    ("hilb", "abelian", 4, None),
    ("incidence", "k3", 4, None),
    ("im1", "abelian", 4, 2),
]


def _moved_term(terms, d):
    """A term and a destination that break Serre duality for dimension d."""
    for (i, j), c in terms.items():
        if (i, j) != (0, 0) and (i + 1, j) not in terms and (d - i - 1, d - j) not in terms:
            return (i, j), (i + 1, j)
    raise AssertionError("no movable term")


@pytest.mark.parametrize("kind, surface, q_max, genus", SERIES_CASES)
def test_hodge_json_checks(tmp_path, kind, surface, q_max, genus):
    text, spec = series_case(tmp_path, kind, surface, q_max, "json", genus=genus)
    checks.check_series(text, spec)

    doc = json.loads(text)
    doc["coefficients"][2]["terms"][0]["c"] = str(int(doc["coefficients"][2]["terms"][0]["c"]) + 1)
    with pytest.raises(checks.CheckError, match="checksum"):
        checks.check_series(json.dumps(doc), spec)
    with pytest.raises(checks.CheckError, match="Euler"):
        checks.check_series(reseal(doc), spec)

    doc = json.loads(text)
    q = 3
    entry = doc["coefficients"][q]
    d = checks.coefficient_dimension(kind, q)
    (i, j), (i2, j2) = _moved_term({(t["i"], t["j"]): t["c"] for t in entry["terms"]}, d)
    for t in entry["terms"]:
        if (t["i"], t["j"]) == (i, j):
            t["i"], t["j"] = i2, j2
    entry["terms"].sort(key=lambda t: (t["i"], t["j"]))
    with pytest.raises(checks.CheckError, match="Serre"):
        checks.check_series(reseal(doc), spec)


@pytest.mark.parametrize("kind, surface, q_max, genus", SERIES_CASES)
def test_hodge_csv_checks(tmp_path, kind, surface, q_max, genus):
    text, spec = series_case(tmp_path, kind, surface, q_max, "csv", genus=genus)
    checks.check_series(text, spec)
    lines = text.splitlines()
    rows = [line.split(",") for line in lines]
    index = next(k for k, r in enumerate(rows) if r[0] == "3" and r[2] != "")
    q, m, i, j, c = rows[index]

    changed = lines.copy()
    changed[index] = ",".join([q, m, i, j, str(int(c) + 1)])
    with pytest.raises(checks.CheckError, match="Euler"):
        checks.check_series("\n".join(changed) + "\n", spec)

    terms = {(int(r[2]), int(r[3])): r[4] for r in rows[1:] if r[0] == "3"}
    (i, j), (i2, j2) = _moved_term(terms, checks.coefficient_dimension(kind, 3))
    moved = [
        ",".join([r[0], r[1], str(i2), str(j2), r[4]]) if r[0] == "3" and r[2:4] == [str(i), str(j)] else line
        for r, line in zip(rows, lines)
    ]
    with pytest.raises(checks.CheckError, match="Serre"):
        checks.check_series("\n".join(moved) + "\n", spec)


@pytest.mark.parametrize("kind, surface, q_max, genus", SERIES_CASES)
def test_hodge_text_checks(tmp_path, kind, surface, q_max, genus):
    text, spec = series_case(tmp_path, kind, surface, q_max, "text", genus=genus)
    checks.check_series(text, spec)
    lines = text.splitlines()
    label, _, poly = lines[4].partition(": ")  # the q^3 line
    terms = checks._parse_poly(poly, "q^3")

    (i, j), c = next(iter(terms.items()))
    changed = terms | {(i, j): c + 1}
    (i, j), (i2, j2) = _moved_term(terms, checks.coefficient_dimension(kind, 3))
    moved = {k if k != (i, j) else (i2, j2): v for k, v in terms.items()}
    for bad, reason in ((changed, "Euler"), (moved, "Serre")):
        body = " + ".join(f"{v}*s^{a}*t^{b}" for (a, b), v in bad.items()).replace("+ -", "- ")
        edited = lines.copy()
        edited[4] = f"{label}: {body}"
        with pytest.raises(checks.CheckError, match=reason):
            checks.check_series("\n".join(edited) + "\n", spec)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_euler_checks(tmp_path, fmt):
    text, spec = series_case(tmp_path, "incidence", "k3", 6, fmt, euler=True)
    checks.check_series(text, spec)
    values = [str(v) for v in checks.PARSERS[fmt](text, spec)]
    changed = text.replace(f"\"{values[4]}\"" if fmt == "json" else values[4], str(int(values[4]) + 1), 1)
    swapped = text.replace(values[4], "SWAP").replace(values[5], values[4]).replace("SWAP", values[5])
    for bad in (changed, swapped):
        if fmt == "json":
            bad = reseal(json.loads(bad))
        with pytest.raises(checks.CheckError, match="Euler"):
            checks.check_series(bad, spec)


def test_dt_checks(tmp_path):
    request = workloads.dt_request("abelian", 4)
    text = render(tmp_path, *request.argv)
    checks.check_dt(text, request.spec)
    for field, value in (("dt", 1), ("dimension", 6), ("euler", -1)):
        doc = json.loads(text)
        doc["rows"][1][field] = value
        with pytest.raises(checks.CheckError):
            checks.check_dt(json.dumps(doc), request.spec)


def test_localhom_checks(tmp_path):
    gens = workloads.cylinder_ideal((2, 1))
    request = workloads.ideal_request(gens, 3, cylinder_size=3)
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(gens))
    argv = [str(path) if a.startswith(workloads.FIXTURE_DIR) else a for a in request.argv]
    text = render(tmp_path, *argv)
    checks.check_localhom_ideal(text, request.spec)
    for changes in ({"dimension": 23}, {"dimension": 23, "rank": 13}, {"quotient_basis_size": 11}):
        doc = json.loads(text) | changes
        with pytest.raises(checks.CheckError):
            checks.check_localhom_ideal(json.dumps(doc), request.spec)


def test_localhom_builtin_checks(tmp_path):
    request = workloads.builtin_localhom_request(3)
    text = render(tmp_path, *request.argv)
    checks.check_localhom_builtin(text, request.spec)
    doc = json.loads(text)
    doc["rows"][2]["embedded_dimension"] += 1
    with pytest.raises(checks.CheckError, match="embedded"):
        checks.check_localhom_builtin(json.dumps(doc), request.spec)


def test_every_pool_request_has_a_digest():
    digests = json.loads((Path(__file__).parent / "digests.json").read_text())
    for workload in workloads.WORKLOADS:
        for request in workloads.all_requests(workload):
            assert request.key in digests


def test_plans_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.plan(workload, 5) == workloads.plan(workload, 5)
        assert set(r.key for r in workloads.plan(workload, 5)) <= set(
            r.key for r in workloads.all_requests(workload)
        )
