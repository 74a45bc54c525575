"""JSON and CSV wire formats for series documents.

Polynomial coefficients serialize as sorted sparse term lists with the
integer rendered as a decimal string, since values outgrow 64-bit integers
long before the configured truncation cap.  All emission is deterministic:
identical inputs yield byte-identical documents, and re-ingesting an emitted
document reproduces the coefficients exactly.

One writer, :func:`series_to_json`, renders a Hodge series document straight
from the series: each term is rendered once in the compact form of
:func:`canonical_json`, whose sha256 is the document's checksum, and once in
the indented form of ``json.dumps(..., sort_keys=True, indent=2)`` that is
emitted.  No dict per term is built.  Euler documents are small and stay
dicts; the readers take parsed JSON either way.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

from .polyseries import BivariatePolynomial, TruncatedSeries

__all__ = [
    "polynomial_from_terms",
    "series_to_json",
    "series_from_document",
    "euler_to_document",
    "euler_from_document",
    "series_to_csv",
    "series_from_csv",
    "euler_to_csv",
    "euler_from_csv",
    "canonical_json",
    "attach_checksum",
    "checksum_ok",
]

SERIES_SCHEMA = "fiberdt.series.v1"

#: Series kinds whose q^(n+1) coefficient carries the moduli label n.
LABELED_KINDS = frozenset({"incidence", "im1"})


def polynomial_from_terms(terms) -> BivariatePolynomial:
    out = {}
    for term in terms:
        i, j, c = term["i"], term["j"], int(term["c"])
        if (i, j) in out:
            raise ValueError(f"duplicate term ({i}, {j}) in polynomial document")
        out[(i, j)] = c
    return BivariatePolynomial(out)


def _label(kind: str, q: int) -> int | None:
    if kind in LABELED_KINDS and q >= 1:
        return q - 1
    return None


def _metadata(kind: str, surface_doc, surface_name, genus, q_max: int, euler: bool) -> dict:
    return {
        "schema": SERIES_SCHEMA,
        "kind": kind,
        "surface_name": surface_name,
        "surface": surface_doc,
        "genus": genus,
        "q_max": q_max,
        "euler": euler,
    }


def series_from_document(doc: dict) -> TruncatedSeries:
    if doc.get("schema") != SERIES_SCHEMA or doc.get("euler"):
        raise ValueError("not a Hodge series document")
    entries = doc["coefficients"]
    if [e["q"] for e in entries] != list(range(doc["q_max"] + 1)):
        raise ValueError("coefficient entries must cover q^0..q^q_max in order")
    return TruncatedSeries(
        doc["q_max"], [polynomial_from_terms(e["terms"]) for e in entries]
    )


def euler_to_document(
    values: tuple[int, ...],
    *,
    kind: str,
    surface_doc,
    surface_name: str | None = None,
    genus: int | None = None,
) -> dict:
    doc = _metadata(kind, surface_doc, surface_name, genus, len(values) - 1, euler=True)
    doc["coefficients"] = [
        {"q": m, "m": _label(kind, m), "value": str(v)} for m, v in enumerate(values)
    ]
    return attach_checksum(doc)


def euler_from_document(doc: dict) -> tuple[int, ...]:
    if doc.get("schema") != SERIES_SCHEMA or not doc.get("euler"):
        raise ValueError("not an Euler series document")
    entries = doc["coefficients"]
    if [e["q"] for e in entries] != list(range(doc["q_max"] + 1)):
        raise ValueError("coefficient entries must cover q^0..q^q_max in order")
    return tuple(int(e["value"]) for e in entries)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# Each term and each coefficient entry in the compact form of canonical_json
# and in the indented form of json.dumps(..., sort_keys=True, indent=2).
_TERM = '{"c":"%s","i":%d,"j":%d}'
_TERM_INDENTED = '        {\n          "c": "%s",\n          "i": %d,\n          "j": %d\n        }'
_ENTRY = '{"m":%s,"q":%d,"terms":[%s]}'
_ENTRY_INDENTED = '    {\n      "m": %s,\n      "q": %d,\n      "terms": %s\n    }'


def series_to_json(
    series: TruncatedSeries,
    *,
    kind: str,
    surface_doc,
    surface_name: str | None = None,
    genus: int | None = None,
) -> str:
    """The Hodge series document as ``json.dumps(doc, sort_keys=True,
    indent=2) + "\n"``, with its checksum.

    The metadata head goes through ``json.dumps`` with a placeholder for
    ``coefficients``; the term lists are rendered by format strings.
    """
    meta = _metadata(kind, surface_doc, surface_name, genus, series.q_max, euler=False)
    compact_before, compact_after = canonical_json({**meta, "coefficients": None}).split(
        '"coefficients":null'
    )
    digest = hashlib.sha256(f'{compact_before}"coefficients":['.encode())
    entries = []
    for q, poly in enumerate(series.coefficients):
        label = _label(kind, q)
        m = "null" if label is None else label
        rows = [(str(c), i, j) for (i, j), c in sorted(poly.terms.items())]
        entry = _ENTRY % (m, q, ",".join([_TERM % row for row in rows]))
        digest.update((f",{entry}" if q else entry).encode())
        terms = ",\n".join([_TERM_INDENTED % row for row in rows])
        body = "[\n" + terms + "\n      ]" if rows else "[]"
        entries.append(_ENTRY_INDENTED % (m, q, body))
    digest.update(f"]{compact_after}".encode())
    head = json.dumps(
        {**meta, "checksum": digest.hexdigest(), "coefficients": None}, sort_keys=True, indent=2
    )
    before, after = head.split('\n  "coefficients": null,')
    coefficients = ",\n".join(entries)
    return f'{before}\n  "coefficients": [\n{coefficients}\n  ],{after}\n'


def _payload_checksum(doc: dict) -> str:
    payload = {k: v for k, v in doc.items() if k != "checksum"}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def attach_checksum(doc: dict) -> dict:
    doc["checksum"] = _payload_checksum(doc)
    return doc


def checksum_ok(doc) -> bool:
    """Whether ``doc`` is a JSON object whose checksum matches its payload."""
    return isinstance(doc, dict) and doc.get("checksum") == _payload_checksum(doc)


# ---------------------------------------------------------------------------
# CSV.  Hodge rows are q,m,i,j,c with one marker row (empty i and j) for a
# zero coefficient so every q in 0..q_max appears; Euler rows are q,m,value.
# ---------------------------------------------------------------------------


def series_to_csv(series: TruncatedSeries, *, kind: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "m", "i", "j", "c"])
    for m, poly in enumerate(series.coefficients):
        label = _label(kind, m)
        label_field = "" if label is None else label
        items = sorted(poly.terms.items())
        if not items:
            writer.writerow([m, label_field, "", "", "0"])
            continue
        for (i, j), c in items:
            writer.writerow([m, label_field, i, j, str(c)])
    return buf.getvalue()


def series_from_csv(text: str) -> TruncatedSeries:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["q", "m", "i", "j", "c"]:
        raise ValueError("not a Hodge series CSV document")
    polys: dict[int, dict[tuple[int, int], int]] = {}
    for row in rows[1:]:
        if not row:
            continue
        q = int(row[0])
        terms = polys.setdefault(q, {})
        if row[2] == "":
            continue  # zero-coefficient marker
        terms[(int(row[2]), int(row[3]))] = int(row[4])
    if not polys or sorted(polys) != list(range(max(polys) + 1)):
        raise ValueError("CSV rows must cover q^0..q^q_max")
    q_max = max(polys)
    return TruncatedSeries(q_max, [BivariatePolynomial(polys[m]) for m in range(q_max + 1)])


def euler_to_csv(values: tuple[int, ...], *, kind: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "m", "value"])
    for m, v in enumerate(values):
        label = _label(kind, m)
        writer.writerow([m, "" if label is None else label, str(v)])
    return buf.getvalue()


def euler_from_csv(text: str) -> tuple[int, ...]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["q", "m", "value"]:
        raise ValueError("not an Euler series CSV document")
    values: dict[int, int] = {}
    for row in rows[1:]:
        if not row:
            continue
        values[int(row[0])] = int(row[2])
    if not values or sorted(values) != list(range(max(values) + 1)):
        raise ValueError("CSV rows must cover q^0..q^q_max")
    return tuple(values[m] for m in range(max(values) + 1))
