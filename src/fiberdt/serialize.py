"""JSON and CSV wire formats for series documents.

Polynomial coefficients serialize as sorted sparse term lists with the
integer rendered as a decimal string, since values outgrow 64-bit integers
long before the configured truncation cap.  All emission is deterministic:
identical inputs yield byte-identical documents, and re-ingesting an emitted
document reproduces the coefficients exactly.

The writers define the JSON format.  :func:`series_to_json` and
:func:`euler_to_json` render a document straight from its values: each
coefficient entry is rendered once in the compact form of
:func:`canonical_json`, fed to the sha256 that is the document's checksum,
and once in the indented form of ``json.dumps(..., sort_keys=True,
indent=2)`` that is emitted.  No dict per entry is built.  The one Hodge
reader, :func:`series_from_document`, rebuilds each coefficient and accepts
its entry only when it is the compact entry the writer renders from that
coefficient; the same entries feed the checksum.  The readers take parsed
JSON.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

from .polyseries import BivariatePolynomial, TruncatedSeries

__all__ = [
    "series_to_json",
    "series_from_document",
    "euler_to_json",
    "euler_from_document",
    "series_to_csv",
    "series_from_csv",
    "euler_to_csv",
    "euler_from_csv",
    "canonical_json",
]

SERIES_SCHEMA = "fiberdt.series.v1"

#: Series kinds whose q^(n+1) coefficient carries the moduli label n.
LABELED_KINDS = frozenset({"incidence", "im1"})


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


def euler_from_document(doc: dict) -> tuple[int, ...]:
    if doc.get("schema") != SERIES_SCHEMA or not doc.get("euler"):
        raise ValueError("not an Euler series document")
    entries = doc["coefficients"]
    if [e["q"] for e in entries] != list(range(doc["q_max"] + 1)):
        raise ValueError("coefficient entries must cover q^0..q^q_max in order")
    return tuple(int(e["value"]) for e in entries)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# Each coefficient entry, Hodge (with its terms) or Euler, in the compact form
# of canonical_json and in the indented form of json.dumps(..., sort_keys=True,
# indent=2).
_TERM = '{"c":"%s","i":%d,"j":%d}'
_TERM_INDENTED = '        {\n          "c": "%s",\n          "i": %d,\n          "j": %d\n        }'
_ENTRY = '{"m":%s,"q":%d,"terms":[%s]}'
_ENTRY_INDENTED = '    {\n      "m": %s,\n      "q": %d,\n      "terms": %s\n    }'
_EULER_ENTRY = '{"m":%s,"q":%d,"value":"%s"}'
_EULER_ENTRY_INDENTED = '    {\n      "m": %s,\n      "q": %d,\n      "value": "%s"\n    }'


def _label_json(kind: str, q: int) -> str:
    label = _label(kind, q)
    return "null" if label is None else str(label)


def _term_rows(poly: BivariatePolynomial) -> list[tuple[str, int, int]]:
    return [(str(c), i, j) for (i, j), c in sorted(poly.terms.items())]


def _hodge_entry(m: str, q: int, rows) -> str:
    """The compact coefficient entry of a Hodge document."""
    return _ENTRY % (m, q, ",".join([_TERM % row for row in rows]))


def _checksum(meta: dict, entries) -> str:
    """The sha256 of ``canonical_json({**meta, "coefficients": [...]})``,
    fed with the compact coefficient entries one at a time as ``entries``
    yields them."""
    before, after = canonical_json({**meta, "coefficients": None}).split('"coefficients":null')
    digest = hashlib.sha256(f'{before}"coefficients":['.encode())
    for q, entry in enumerate(entries):
        digest.update((f",{entry}" if q else entry).encode())
    digest.update(f"]{after}".encode())
    return digest.hexdigest()


def _document(meta: dict, checksum: str, entries: list[str]) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` of the document
    with this metadata, checksum and indented coefficient entries."""
    head = json.dumps({**meta, "checksum": checksum, "coefficients": None}, sort_keys=True, indent=2)
    before, after = head.split('\n  "coefficients": null,')
    coefficients = ",\n".join(entries)
    return f'{before}\n  "coefficients": [\n{coefficients}\n  ],{after}\n'


def series_to_json(
    series: TruncatedSeries,
    *,
    kind: str,
    surface_doc,
    surface_name: str | None = None,
    genus: int | None = None,
) -> str:
    """The Hodge series document as ``json.dumps(doc, sort_keys=True,
    indent=2) + "\n"``, with its checksum."""
    meta = _metadata(kind, surface_doc, surface_name, genus, series.q_max, euler=False)
    indented = []

    def entries():
        for q, poly in enumerate(series.coefficients):
            m, rows = _label_json(kind, q), _term_rows(poly)
            terms = ",\n".join([_TERM_INDENTED % row for row in rows])
            indented.append(_ENTRY_INDENTED % (m, q, f"[\n{terms}\n      ]" if rows else "[]"))
            yield _hodge_entry(m, q, rows)

    return _document(meta, _checksum(meta, entries()), indented)


def euler_to_json(
    values: tuple[int, ...],
    *,
    kind: str,
    surface_doc,
    surface_name: str | None = None,
    genus: int | None = None,
) -> str:
    """The Euler series document as ``json.dumps(doc, sort_keys=True,
    indent=2) + "\n"``, with its checksum."""
    meta = _metadata(kind, surface_doc, surface_name, genus, len(values) - 1, euler=True)
    rows = [(_label_json(kind, q), q, str(v)) for q, v in enumerate(values)]
    checksum = _checksum(meta, [_EULER_ENTRY % row for row in rows])
    return _document(meta, checksum, [_EULER_ENTRY_INDENTED % row for row in rows])


def series_from_document(
    doc, *, kind: str, surface_doc, genus: int | None, q_max: int
) -> TruncatedSeries:
    """The series of a parsed Hodge series document of this request.

    ``doc`` must be exactly what :func:`series_to_json` writes for this
    kind, surface, genus and q_max, under any ``surface_name``, checksum
    included; anything else raises ``ValueError``.  Each coefficient is
    built by the validating constructor, and its entry is accepted only when
    it equals, as compact JSON, the entry the writer renders from that
    coefficient.  Those entries feed the checksum, so the document is not
    encoded again.
    """
    try:
        return _read_series(doc, kind, surface_doc, genus, q_max)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"not a Hodge series document: {exc!r}") from None


def _read_series(doc, kind, surface_doc, genus, q_max) -> TruncatedSeries:
    name = doc["surface_name"]
    meta = _metadata(kind, surface_doc, name, genus, q_max, euler=False)
    # Compared as text, so that no true passes for a 1 and no 0 for false.
    blank = {"checksum": None, "coefficients": None}
    if canonical_json({**doc, **blank}) != canonical_json({**meta, **blank}):
        raise ValueError("not the Hodge series document of this request: metadata")
    if not (name is None or type(name) is str):
        raise ValueError("surface_name must be a string or null")
    entries = doc["coefficients"]
    if len(entries) != q_max + 1:
        raise ValueError("coefficient entries must cover q^0..q^q_max")
    coeffs = []

    def checked():
        for q, entry in enumerate(entries):
            poly = BivariatePolynomial({(t["i"], t["j"]): int(t["c"]) for t in entry["terms"]})
            text = _hodge_entry(_label_json(kind, q), q, _term_rows(poly))
            if canonical_json(entry) != text:
                raise ValueError(f"q^{q}: not a coefficient entry of the writer")
            coeffs.append(poly)
            yield text

    if doc["checksum"] != _checksum(meta, checked()):
        raise ValueError("checksum mismatch")
    return TruncatedSeries(q_max, coeffs)


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
