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
emitted.  No dict per term is built.  Its one reader,
:func:`series_from_document`, accepts only what the writer emits and feeds
the checksum from the same templates while it reads the terms.  Euler
documents are small and stay dicts; the readers take parsed JSON either way.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import operator
import re
from itertools import chain, islice

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


def _digest_head(meta: dict):
    """A sha256 fed with the compact document up to the first coefficient
    entry, and the compact text that follows the last one."""
    before, after = canonical_json({**meta, "coefficients": None}).split('"coefficients":null')
    return hashlib.sha256(f'{before}"coefficients":['.encode()), f"]{after}"


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
    digest, compact_after = _digest_head(meta)
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
    digest.update(compact_after.encode())
    head = json.dumps(
        {**meta, "checksum": digest.hexdigest(), "coefficients": None}, sort_keys=True, indent=2
    )
    before, after = head.split('\n  "coefficients": null,')
    coefficients = ",\n".join(entries)
    return f'{before}\n  "coefficients": [\n{coefficients}\n  ],{after}\n'


# The c of a term as series_to_json writes it: str() of a nonzero int.
_DECIMAL = re.compile("-?[1-9][0-9]*").fullmatch
_C, _I, _J = map(operator.itemgetter, "cij")


def series_from_document(doc) -> TruncatedSeries:
    """The series of a parsed Hodge series document, checked and read in one walk.

    ``doc`` must be exactly what :func:`series_to_json` writes, checksum
    included; anything else raises ``ValueError``.  The checksum is fed with
    each entry rendered by the writer's compact templates while the terms are
    read, so the document is not encoded again.
    """
    try:
        return _read_series(doc)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a Hodge series document: {exc!r}") from None


def _read_series(doc) -> TruncatedSeries:
    kind, q_max = doc["kind"], doc["q_max"]
    if type(kind) is not str or type(q_max) is not int or q_max < 0:
        raise ValueError("not a Hodge series document: kind or q_max")
    name = doc["surface_name"]
    if not (name is None or type(name) is str):
        raise ValueError("surface_name must be a string or null")
    meta = _metadata(kind, doc["surface"], name, doc["genus"], q_max, euler=False)
    head = {k: v for k, v in doc.items() if k not in ("checksum", "coefficients")}
    # Compared as text, so that no true passes for a 1 and no 0 for false.
    if len(doc) != len(meta) + 2 or canonical_json(head) != canonical_json(meta):
        raise ValueError("not a Hodge series document: metadata")
    entries = doc["coefficients"]
    if type(entries) is not list or len(entries) != q_max + 1:
        raise ValueError("coefficient entries must cover q^0..q^q_max")
    digest, compact_after = _digest_head(meta)
    coeffs = []
    for q, entry in enumerate(entries):
        label = _label(kind, q)
        if (
            type(entry) is not dict
            or len(entry) != 3
            or type(entry["q"]) is not int
            or entry["q"] != q
            or type(entry["m"]) is not type(label)
            or entry["m"] != label
            or type(entry["terms"]) is not list
        ):
            raise ValueError(f"q^{q}: not a coefficient entry of the writer")
        terms = entry["terms"]
        cs = list(map(_C, terms))
        iss = list(map(_I, terms))
        js = list(map(_J, terms))
        keys = list(zip(iss, js))
        # Each term has exactly c, i and j; the exponents are ints (no bools),
        # nonnegative and strictly increasing; each c is str() of a nonzero int.
        if not (
            set(map(len, terms)) <= {3}
            and set(map(type, iss)) | set(map(type, js)) <= {int}
            and min(iss, default=0) >= 0
            and min(js, default=0) >= 0
            and set(map(type, cs)) <= {str}
            and all(map(_DECIMAL, cs))
            and all(map(operator.lt, keys, islice(keys, 1, None)))
        ):
            raise ValueError(f"q^{q}: terms differ from the writer's")
        coeffs.append(BivariatePolynomial._raw(dict(zip(keys, map(int, cs)))))
        m = "null" if label is None else label
        rendered = ",".join([_TERM] * len(terms)) % tuple(chain.from_iterable(zip(cs, iss, js)))
        text = _ENTRY % (m, q, rendered)
        digest.update((f",{text}" if q else text).encode())
    digest.update(compact_after.encode())
    if doc["checksum"] != digest.hexdigest():
        raise ValueError("checksum mismatch")
    return TruncatedSeries._raw(q_max, tuple(coeffs))


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
