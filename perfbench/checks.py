"""Independent checks of fiberdt outputs.

Nothing here imports fiberdt: every expected value is derived from the
request's own inputs by separate arithmetic, so a fault in the program and a
fault in a check would have to coincide to go unnoticed.

* Euler specialization: prod_k (1 - q^k)^(-chi) by the sigma recurrence
  n a_n = chi sum_k sigma(k) a_(n-k); the labelled kinds are first shifted by
  q/(1 - q) times chi(S) (incidence) or chi(X) (im1).
* Serre duality: the q^n coefficient of a Hodge series is symmetric under
  (i, j) -> (d - i, d - j), with d the dimension of the space it counts, and
  its constant term h^{0,0} is 1.
* dt tables: every Donaldson-Thomas number vanishes, with dimension 2m + 3.
* localhom: rank + dimension = unknowns = generators x quotient size, the
  quotient size is counted here by brute force, and a cylinder over a
  partition of n has dimension 2n(D + 1); the built-in models give 2D + 2 and
  10 + 2D.
* JSON checksums are recomputed with hashlib.

Each check raises :class:`CheckError` naming what failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

LABELED_KINDS = ("incidence", "im1")


class CheckError(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# expected values
# ---------------------------------------------------------------------------


def sigma(n: int) -> int:
    """Sum of the divisors of n."""
    return sum(d for d in range(1, n + 1) if n % d == 0)


def euler_product(chi: int, q_max: int) -> list[int]:
    """Coefficients of prod_{k >= 1} (1 - q^k)^(-chi) up to q^q_max."""
    a = [1]
    for n in range(1, q_max + 1):
        total = chi * sum(sigma(k) * a[n - k] for k in range(1, n + 1))
        _require(total % n == 0, f"sigma recurrence left a remainder at n={n}")
        a.append(total // n)
    return a


def expected_euler(kind: str, chi_s: int, chi_x: int, q_max: int) -> list[int]:
    """The s = t = 1 specialization every series output must have."""
    a = euler_product(chi_s, q_max)
    if kind not in LABELED_KINDS:
        return a
    factor = chi_s if kind == "incidence" else chi_x
    out, running = [0], 0
    for n in range(1, q_max + 1):
        running += a[n - 1]
        out.append(factor * running)
    return out


def coefficient_dimension(kind: str, q: int) -> int | None:
    """Dimension of the space whose class is the q^q coefficient (None for
    the empty q^0 coefficient of a labelled kind)."""
    if kind == "hilb":
        return 2 * q
    if q == 0:
        return None
    m = q - 1
    return 2 * m + 2 if kind == "incidence" else 2 * m + 3


# ---------------------------------------------------------------------------
# parsing the three output formats into {q: {(i, j): c}} or [value, ...]
# ---------------------------------------------------------------------------


def _add_term(terms: dict, i: int, j: int, c: int, where: str) -> None:
    _require((i, j) not in terms, f"{where}: duplicate term ({i}, {j})")
    _require(c != 0, f"{where}: stored zero term ({i}, {j})")
    terms[(i, j)] = c


def parse_json(text: str, spec: dict):
    doc = json.loads(text)
    payload = {k: v for k, v in doc.items() if k != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    _require(
        doc.get("checksum") == hashlib.sha256(canonical.encode()).hexdigest(),
        "checksum does not match the payload",
    )
    _require(doc["kind"] == spec["kind"], f"kind {doc['kind']!r}, expected {spec['kind']!r}")
    _require(doc["q_max"] == spec["q_max"], f"q_max {doc['q_max']}, expected {spec['q_max']}")
    _require(doc["euler"] is spec["euler"], "euler flag does not match the request")
    entries = doc["coefficients"]
    _require([e["q"] for e in entries] == list(range(spec["q_max"] + 1)), "q entries out of order")
    for e in entries:
        label = e["q"] - 1 if spec["kind"] in LABELED_KINDS and e["q"] >= 1 else None
        _require(e["m"] == label, f"q^{e['q']}: label {e['m']}, expected {label}")
    if spec["euler"]:
        return [int(e["value"]) for e in entries]
    series = []
    for e in entries:
        terms: dict = {}
        for t in e["terms"]:
            _add_term(terms, t["i"], t["j"], int(t["c"]), f"q^{e['q']}")
        _require(list(terms) == sorted(terms), f"q^{e['q']}: terms not sorted")
        series.append(terms)
    return series


def parse_csv(text: str, spec: dict):
    rows = list(csv.reader(io.StringIO(text)))
    if spec["euler"]:
        _require(rows[0] == ["q", "m", "value"], "Euler CSV header")
        _require([int(r[0]) for r in rows[1:]] == list(range(spec["q_max"] + 1)), "q rows out of order")
        return [int(r[2]) for r in rows[1:]]
    _require(rows[0] == ["q", "m", "i", "j", "c"], "Hodge CSV header")
    series = [dict() for _ in range(spec["q_max"] + 1)]
    seen = set()
    for row in rows[1:]:
        q = int(row[0])
        seen.add(q)
        if row[2] == "":
            _require(row[4] == "0" and not series[q], f"q^{q}: misplaced zero marker")
            continue
        _add_term(series[q], int(row[2]), int(row[3]), int(row[4]), f"q^{q}")
    _require(seen == set(range(spec["q_max"] + 1)), "CSV does not cover every q")
    return series


def _parse_poly(text: str, where: str) -> dict:
    terms: dict = {}
    if text == "0":
        return terms
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        c, i, j = 1, 0, 0
        for factor in token.lstrip("-").split("*"):
            if factor[0] in "st":
                exponent = int(factor[2:]) if "^" in factor else 1
                if factor[0] == "s":
                    i = exponent
                else:
                    j = exponent
            else:
                c = int(factor)
        _add_term(terms, i, j, sign * c, where)
    return terms


def parse_text(text: str, spec: dict):
    lines = text.rstrip("\n").split("\n")
    _require(lines[0].startswith(f"# kind={spec['kind']} "), "text header")
    body = lines[1:]
    _require(len(body) == spec["q_max"] + 1, "text does not have one line per q")
    out = []
    for q, line in enumerate(body):
        label, _, value = line.partition(": ")
        expected = f"q^{q} (m={q - 1})" if spec["kind"] in LABELED_KINDS and q >= 1 else f"q^{q}"
        _require(label == expected, f"line label {label!r}, expected {expected!r}")
        out.append(int(value) if spec["euler"] else _parse_poly(value, f"q^{q}"))
    return out


PARSERS = {"json": parse_json, "csv": parse_csv, "text": parse_text}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_euler(values, spec: dict) -> None:
    expected = expected_euler(spec["kind"], spec["chi_s"], spec["chi_x"], spec["q_max"])
    for q, (got, want) in enumerate(zip(values, expected)):
        _require(got == want, f"Euler q^{q}: {got}, expected {want}")
    _require(len(values) == len(expected), "Euler sequence has the wrong length")


def check_hodge(series, spec: dict) -> None:
    kind = spec["kind"]
    check_euler([sum(terms.values()) for terms in series], spec)
    for q, terms in enumerate(series):
        d = coefficient_dimension(kind, q)
        if d is None:
            _require(not terms, "q^0 of a labelled series must vanish")
            continue
        _require(terms.get((0, 0)) == 1, f"q^{q}: h^{{0,0}} is {terms.get((0, 0))}, expected 1")
        for (i, j), c in terms.items():
            _require(
                terms.get((d - i, d - j)) == c,
                f"q^{q}: Serre duality fails at ({i}, {j}) for dimension {d}",
            )


def check_series(text: str, spec: dict) -> None:
    parsed = PARSERS[spec["format"]](text, spec)
    if spec["euler"]:
        check_euler(parsed, spec)
    else:
        check_hodge(parsed, spec)


def check_dt(text: str, spec: dict) -> None:
    doc = json.loads(text)
    rows = doc["rows"]
    _require([r["m"] for r in rows] == list(range(spec["m_max"] + 1)), "dt rows out of order")
    for r in rows:
        m = r["m"]
        _require(r["dimension"] == 2 * m + 3, f"m={m}: dimension {r['dimension']}, expected {2 * m + 3}")
        _require(r["euler"] == 0, f"m={m}: Euler number {r['euler']}, expected 0 for chi(X) = 0")
        _require(r["dt"] == 0, f"m={m}: DT number {r['dt']}, expected 0")


def quotient_size(gens, d_max: int) -> int:
    """Standard monomials of the ideal with w3-degree at most d_max, counted
    directly; the ideal must contain pure powers of w1 and w2."""
    b1 = min(g[0] for g in gens if g[1] == 0 and g[2] == 0)
    b2 = min(g[1] for g in gens if g[0] == 0 and g[2] == 0)
    return sum(
        1
        for x in range(b1)
        for y in range(b2)
        for z in range(d_max + 1)
        if not any(g[0] <= x and g[1] <= y and g[2] <= z for g in gens)
    )


def check_localhom_ideal(text: str, spec: dict) -> None:
    doc = json.loads(text)
    gens, d_max = spec["ideal"], spec["d_max"]
    _require(doc["ideal"] == gens and doc["d_max"] == d_max, "report is for another request")
    size = quotient_size(gens, d_max)
    _require(doc["quotient_basis_size"] == size, f"quotient size {doc['quotient_basis_size']}, expected {size}")
    _require(doc["n_unknowns"] == len(gens) * size, "unknowns are not generators x quotient size")
    _require(doc["rank"] + doc["dimension"] == doc["n_unknowns"], "rank + dimension != unknowns")
    n = spec["cylinder_size"]
    if n is not None:
        want = 2 * n * (d_max + 1)
        _require(doc["dimension"] == want, f"dimension {doc['dimension']}, expected 2n(D+1) = {want}")


def check_localhom_builtin(text: str, spec: dict) -> None:
    doc = json.loads(text)
    rows = doc["rows"]
    _require([r["d_max"] for r in rows] == list(range(1, spec["d_max"] + 1)), "rows out of order")
    for r in rows:
        d = r["d_max"]
        _require(r["line_dimension"] == 2 * d + 2, f"D={d}: line model {r['line_dimension']}")
        _require(r["embedded_dimension"] == 10 + 2 * d, f"D={d}: embedded model {r['embedded_dimension']}")
    _require(doc["passed"] is True, "report does not pass")


CHECKS = {
    "series": check_series,
    "dt": check_dt,
    "localhom-ideal": check_localhom_ideal,
    "localhom-builtin": check_localhom_builtin,
}


def check_output(text: str, spec: dict) -> None:
    """Run every independent check that applies to one output."""
    try:
        CHECKS[spec["type"]](text, spec)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None
