"""JSON, CSV and text formats for series documents.

Polynomial coefficients serialize as sorted sparse term lists with the
integer rendered as a decimal string, since values outgrow 64-bit integers
long before the configured truncation cap.  All emission is deterministic:
identical inputs yield byte-identical documents.

The writers define every format, text included: :func:`series_to_text`
renders each polynomial itself.  :func:`series_to_json` and
:func:`euler_to_json` render each coefficient entry once, in the indented
form of ``json.dumps(..., sort_keys=True, indent=2)`` that is emitted.  The
checksum is the sha256 of the compact form of :func:`canonical_json`, which
is those entries with spaces and newlines deleted: no value inside an entry
contains either.  The one reader, :func:`series_from_document`, reads a
``--cache`` entry: it takes only the coefficients from the text, rebuilds
the series with the validating constructors, renders it again with the
writer under the request's own head (kind, surface, surface_name, genus and
q_max) and accepts only identical bytes.  So an entry reads back exactly
when it is, byte for byte, the JSON output of the request.  No other format
is read back.
"""

from __future__ import annotations

import hashlib
import json

from .polyseries import BivariatePolynomial, TruncatedSeries

__all__ = [
    "series_to_json",
    "series_from_document",
    "euler_to_json",
    "series_to_csv",
    "euler_to_csv",
    "series_to_text",
    "canonical_json",
]

SERIES_SCHEMA = "fiberdt.series.v1"

#: Series kinds whose q^(n+1) coefficient carries the moduli label n.
LABELED_KINDS = frozenset({"incidence", "im1"})

# What the reader turns into ValueError: a value of the wrong type or shape, a
# number out of range, or JSON nested deeper than json.loads recurses.
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError)


def _label(kind: str, q: int, unlabeled: str) -> str:
    """The moduli label of the q^q coefficient as text, or ``unlabeled``."""
    return str(q - 1) if kind in LABELED_KINDS and q >= 1 else unlabeled


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


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# Each coefficient entry, Hodge (with its terms) or Euler, as json.dumps(...,
# sort_keys=True, indent=2) renders it inside the document.
_TERM = '        {\n          "c": "%s",\n          "i": %d,\n          "j": %d\n        }'
_ENTRY = '    {\n      "m": %s,\n      "q": %d,\n      "terms": %s\n    }'
_EULER_ENTRY = '    {\n      "m": %s,\n      "q": %d,\n      "value": "%s"\n    }'


def _document(meta: dict, coefficients: str) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` of the document
    with this metadata and these indented coefficient entries, joined by
    ``",\n"``, under its checksum: the sha256 of ``canonical_json`` of the
    document without it.  The head keeps ``canonical_json``, because a
    ``surface_name`` may contain spaces."""
    before, after = canonical_json({**meta, "coefficients": None}).split('"coefficients":null')
    digest = hashlib.sha256(f'{before}"coefficients":['.encode())
    digest.update(coefficients.encode().translate(None, b" \n"))
    digest.update(f"]{after}".encode())
    doc = {**meta, "checksum": digest.hexdigest(), "coefficients": None}
    before, after = json.dumps(doc, sort_keys=True, indent=2).split('\n  "coefficients": null,')
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
    return _document(meta, ",\n".join(_hodge_entries(series, kind)))


def _hodge_entries(series: TruncatedSeries, kind: str):
    """The indented coefficient entries; only their join outlives the call."""
    for q, poly in enumerate(series.coefficients):
        terms = ",\n".join([_TERM % (c, i, j) for (i, j), c in sorted(poly.terms.items())])
        yield _ENTRY % (_label(kind, q, "null"), q, f"[\n{terms}\n      ]" if terms else "[]")


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
    entries = [_EULER_ENTRY % (_label(kind, q, "null"), q, v) for q, v in enumerate(values)]
    return _document(meta, ",\n".join(entries))


def series_from_document(
    text: str, *, kind: str, surface_doc, surface_name: str | None, genus: int | None, q_max: int
) -> TruncatedSeries:
    """The series of the Hodge series document of this request.

    ``text`` must be exactly what :func:`series_to_json` writes for this
    kind, surface, surface_name, genus and q_max, checksum included;
    anything else raises ``ValueError``.
    """
    try:
        # The parsed document is dropped once the series is built, so that a
        # large entry is not held twice while it is rendered.
        series = TruncatedSeries(
            BivariatePolynomial({(t["i"], t["j"]): int(t["c"]) for t in entry["terms"]})
            for entry in json.loads(text)["coefficients"]
        )
        written = series_to_json(
            series, kind=kind, surface_doc=surface_doc, surface_name=surface_name, genus=genus
        )
    except _MALFORMED as exc:
        raise ValueError(f"not a Hodge series document: {exc!r}") from None
    # The head is rendered with the series' own q_max, so a document of
    # another truncation order would otherwise read back.
    if series.q_max != q_max or text != written:
        raise ValueError("not the Hodge series document the writer renders for this request")
    return series


# ---------------------------------------------------------------------------
# CSV.  Hodge rows are q,m,i,j,c with one marker row (empty i and j) for a
# zero coefficient so every q in 0..q_max appears; Euler rows are q,m,value.
# No field holds a comma, a quote or a newline, so none is quoted.
# ---------------------------------------------------------------------------


def series_to_csv(series: TruncatedSeries, *, kind: str) -> str:
    lines = ["q,m,i,j,c\n"]
    for q, poly in enumerate(series.coefficients):
        head = f"{q},{_label(kind, q, '')}"
        rows = [f"{head},{i},{j},{c}\n" for (i, j), c in sorted(poly.terms.items())]
        lines += rows or [f"{head},,,0\n"]
    return "".join(lines)


def euler_to_csv(values: tuple[int, ...], *, kind: str) -> str:
    rows = [f"{q},{_label(kind, q, '')},{v}\n" for q, v in enumerate(values)]
    return "q,m,value\n" + "".join(rows)


def series_to_text(coefficients, *, kind: str, surface_name: str | None, euler: bool) -> str:
    """A header line, then one line per coefficient: a polynomial, or with
    ``euler`` an Euler number."""
    suffix = " euler" if euler else ""
    name = surface_name or "custom"
    lines = [f"# kind={kind} surface={name} q_max={len(coefficients) - 1}{suffix}"]
    for q, value in enumerate(coefficients):
        label = _label(kind, q, "")
        text = value if euler else _polynomial_text(value)
        lines.append(f"q^{q} (m={label}): {text}" if label else f"q^{q}: {text}")
    return "\n".join(lines) + "\n"


def _polynomial_text(poly: BivariatePolynomial) -> str:
    """The terms by total degree, then (i, j), as "c*s^i*t^j" with a unit
    coefficient or exponent left out and a negative term subtracted."""
    chunks = []
    for (i, j), c in sorted(sorted(poly.terms.items()), key=lambda term: sum(term[0])):
        s = "" if not i else "s" if i == 1 else f"s^{i}"
        t = "" if not j else "t" if j == 1 else f"t^{j}"
        monomial = f"{s}*{t}" if s and t else s or t
        prefix = "" if c == 1 else "-" if c == -1 else f"{c}*"
        chunks.append(prefix + monomial if monomial else str(c))
    return " + ".join(chunks).replace("+ -", "- ") or "0"
