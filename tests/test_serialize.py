import hashlib
import json

import pytest

from fiberdt import serialize
from fiberdt import formulas
from fiberdt.formulas import nested_hodge_series
from fiberdt.geometry import FibrationSpec, HodgeDiamond, registry_lookup
from fiberdt.polyseries import BivariatePolynomial, TruncatedSeries
from series_reference import one


def sample_series():
    return nested_hodge_series(registry_lookup("k3"), 3)


def written(series, **keywords):
    """The parsed output of the series JSON writer."""
    return json.loads(serialize.series_to_json(series, **keywords))


def writer_layout(doc):
    """``doc`` as text in the layout the JSON writers emit."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reference_checksum(doc):
    """The checksum of a document: the sha256 of ``canonical_json`` of the
    document without its checksum."""
    payload = {k: v for k, v in doc.items() if k != "checksum"}
    return hashlib.sha256(serialize.canonical_json(payload).encode()).hexdigest()


def with_checksum(doc):
    """``doc`` under the checksum that matches its payload."""
    doc["checksum"] = reference_checksum(doc)
    return doc


#: The request of the documents written from sample_series().
SAMPLE_REQUEST = dict(kind="incidence", surface_doc=None, surface_name=None, genus=None, q_max=3)


def reference_document(series, *, kind, surface_doc, surface_name=None, genus=None):
    """The series document built as dicts, one per term: the layout that
    ``series_to_json`` renders without building it."""
    doc = {
        "schema": "fiberdt.series.v1",
        "kind": kind,
        "surface_name": surface_name,
        "surface": surface_doc,
        "genus": genus,
        "q_max": series.q_max,
        "euler": False,
        "coefficients": [
            {
                "q": q,
                "m": q - 1 if kind in ("incidence", "im1") and q >= 1 else None,
                "terms": [
                    {"i": i, "j": j, "c": str(c)} for (i, j), c in sorted(poly.terms.items())
                ],
            }
            for q, poly in enumerate(series.coefficients)
        ],
    }
    return with_checksum(doc)


def reference_euler_document(values, *, kind, surface_doc, surface_name=None, genus=None):
    """The Euler document built as dicts: the layout that ``euler_to_json``
    renders without building it."""
    doc = {
        "schema": "fiberdt.series.v1",
        "kind": kind,
        "surface_name": surface_name,
        "surface": surface_doc,
        "genus": genus,
        "q_max": len(values) - 1,
        "euler": True,
        "coefficients": [
            {"q": q, "m": q - 1 if kind in ("incidence", "im1") and q >= 1 else None, "value": str(v)}
            for q, v in enumerate(values)
        ],
    }
    return with_checksum(doc)


def test_polynomial_terms_sorted_and_stringly():
    poly = BivariatePolynomial({(2, 0): -7, (0, 0): 1, (1, 1): 10**30})
    series = TruncatedSeries([poly])
    text = serialize.series_to_json(series, kind="hilb", surface_doc=None)
    terms = json.loads(text)["coefficients"][0]["terms"]
    assert terms == [
        {"i": 0, "j": 0, "c": "1"},
        {"i": 1, "j": 1, "c": str(10**30)},
        {"i": 2, "j": 0, "c": "-7"},
    ]
    request = dict(kind="hilb", surface_doc=None, surface_name=None, genus=None, q_max=0)
    assert serialize.series_from_document(text, **request) == series


def test_document_round_trip():
    series = sample_series()
    text = serialize.series_to_json(
        series, kind="incidence", surface_doc=registry_lookup("k3").to_json(), surface_name="k3"
    )
    doc = json.loads(text)
    assert doc["checksum"] == reference_checksum(doc)
    assert serialize.series_from_document(
        text, kind="incidence", surface_doc=registry_lookup("k3").to_json(), surface_name="k3",
        genus=None, q_max=3,
    ) == series


def test_document_labels():
    series = sample_series()
    doc = written(series, kind="incidence", surface_doc=registry_lookup("k3").to_json())
    assert [entry["m"] for entry in doc["coefficients"]] == [None, 0, 1, 2]
    hilb_doc = written(one(2), kind="hilb", surface_doc=None)
    assert [entry["m"] for entry in hilb_doc["coefficients"]] == [None, None, None]


@pytest.mark.parametrize(
    "edit",
    (
        pytest.param(lambda d: d.update(q_max=True), id="bool-q_max"),
        pytest.param(lambda d: d.update(extra=1), id="extra-key"),
        pytest.param(lambda d: d["coefficients"][2]["terms"].reverse(), id="unsorted-terms"),
        pytest.param(lambda d: d["coefficients"][1].update(m=0.0), id="float-label"),
        pytest.param(
            lambda d: d["coefficients"][1].update(
                terms=[{"c": "1", "i": 0, "j": 0}, {"c": "2", "i": 0, "j": 0}]
            ),
            id="duplicate-term",
        ),
        # int() accepts "+1", "1_0" and " 1"; none of these terms is the writer's.
        pytest.param(lambda d: d["coefficients"][1]["terms"][0].update(c="0"), id="zero-c"),
        pytest.param(lambda d: d["coefficients"][1]["terms"][0].update(i=-1), id="negative-exponent"),
        pytest.param(lambda d: d["coefficients"][1]["terms"][0].update(c="+1"), id="plus-c"),
        pytest.param(lambda d: d["coefficients"][1]["terms"][0].update(c="1_0"), id="underscore-c"),
        pytest.param(lambda d: d["coefficients"][1]["terms"][0].update(c=" 1"), id="space-c"),
        pytest.param(lambda d: d["coefficients"][1]["terms"][0].update(c=1), id="integer-c"),
        pytest.param(lambda d: d["coefficients"][1]["terms"][2].update(i=1.0), id="float-exponent"),
        pytest.param(lambda d: d.update(surface_name=["k3"]), id="list-surface_name"),
        pytest.param(lambda d: d.pop("checksum"), id="no-checksum"),
        # Another number of coefficient entries than the request's q_max + 1.
        pytest.param(lambda d: d["coefficients"].pop(1), id="entry-dropped"),
        pytest.param(
            lambda d: d["coefficients"].append({"m": 3, "q": 4, "terms": []}), id="entry-added"
        ),
        pytest.param(lambda d: d["coefficients"].clear(), id="no-entries"),
    ),
)
def test_series_reader_rejects_what_the_writer_cannot_emit(edit):
    doc = written(sample_series(), kind="incidence", surface_doc=None)
    edit(doc)
    if "checksum" in doc:
        with_checksum(doc)  # the checksum matches the edited payload
    with pytest.raises(ValueError):
        serialize.series_from_document(writer_layout(doc), **SAMPLE_REQUEST)


@pytest.mark.parametrize(
    "field, value, message",
    (
        pytest.param("c", "+1", "writer", id="plus-c"),
        pytest.param("c", " 1", "writer", id="space-c"),
        pytest.param("c", "01", "writer", id="leading-zero-c"),
        pytest.param("c", "\u0661", "writer", id="non-ascii-c"),
        pytest.param("c", 1, "writer", id="integer-c"),
        pytest.param("i", 0.0, "pairs of nonnegative ints", id="float-exponent"),
        pytest.param("i", False, "pairs of nonnegative ints", id="bool-exponent"),
        pytest.param("x", 1, "writer", id="extra-term-key"),
    ),
)
def test_series_reader_rejects_a_respelled_entry_under_the_writers_checksum(field, value, message):
    # Each edit keeps the coefficient, so the writer's rendering of the rebuilt
    # series, checksum included, would match the document everywhere but in
    # the respelled entry.  A float or bool exponent is not even rebuilt: the
    # polynomial constructor takes only ints.
    doc = written(sample_series(), kind="incidence", surface_doc=None)
    assert doc["coefficients"][1]["terms"][0] == {"c": "1", "i": 0, "j": 0}
    doc["coefficients"][1]["terms"][0][field] = value
    with pytest.raises(ValueError, match=message):
        serialize.series_from_document(writer_layout(doc), **SAMPLE_REQUEST)


def test_series_reader_rejects_a_stale_checksum():
    doc = written(sample_series(), kind="incidence", surface_doc=None)
    doc["coefficients"][1]["terms"][0]["c"] = "2"
    with pytest.raises(ValueError, match="writer"):
        serialize.series_from_document(writer_layout(doc), **SAMPLE_REQUEST)
    # The same edit under its own checksum is a document the writer renders,
    # so only the stale checksum rejected it.
    edited = serialize.series_from_document(writer_layout(with_checksum(doc)), **SAMPLE_REQUEST)
    assert edited.coefficients[1].terms[0, 0] == 2


@pytest.mark.parametrize(
    "own, name",
    ((None, "k3"), ("k3", None), ("k3", "K3"), ("k3", "k3 "), ("null", None), ("", None)),
)
def test_series_reader_rejects_another_surface_name(own, name):
    # The reader renders under the request's surface_name: a document the
    # writer rendered under another name is not the request's output.
    text = serialize.series_to_json(
        sample_series(), kind="incidence", surface_doc=None, surface_name=own
    )
    request = {**SAMPLE_REQUEST, "surface_name": name}
    with pytest.raises(ValueError, match="writer"):
        serialize.series_from_document(text, **request)
    assert serialize.series_from_document(text, **{**request, "surface_name": own}) == sample_series()


def test_checksum_detects_payload_change():
    doc = written(sample_series(), kind="incidence", surface_doc=None)
    doc["q_max"] = 7
    assert doc["checksum"] != reference_checksum(doc)


def test_document_json_stable():
    doc1 = written(sample_series(), kind="incidence", surface_doc=None)
    doc2 = written(sample_series(), kind="incidence", surface_doc=None)
    assert serialize.canonical_json(doc1) == serialize.canonical_json(doc2)


def csv_rows(text, header):
    """The fields of each row of a CSV document of a labeled kind under this
    header, checking the moduli label of each q: ``m`` is empty at q = 0 and
    q - 1 from q = 1 on."""
    lines = text.split("\n")
    assert lines[0] == header and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    for q, m, *_ in rows:
        assert m == ("" if q == "0" else str(int(q) - 1))
    return rows


def test_csv_round_trip_with_zero_coefficients():
    series = sample_series()  # q^0 coefficient is the zero polynomial
    text = serialize.series_to_csv(series, kind="incidence")
    rows = csv_rows(text, "q,m,i,j,c")
    assert rows[0] == ["0", "", "", "", "0"]  # the marker row of a zero coefficient
    terms = [{} for _ in series.coefficients]
    for q, _, i, j, c in rows[1:]:
        terms[int(q)][int(i), int(j)] = int(c)
    assert TruncatedSeries(BivariatePolynomial(t) for t in terms) == series


def test_euler_csv_round_trip():
    values = (0, 24, 600, -3, 10**25)
    text = serialize.euler_to_csv(values, kind="im1")
    rows = csv_rows(text, "q,m,value")
    assert [int(q) for q, _, _ in rows] == list(range(len(values)))
    assert tuple(int(v) for _, _, v in rows) == values


def test_euler_document_round_trip():
    values = tuple(range(5))
    doc = json.loads(serialize.euler_to_json(values, kind="hilb", surface_doc=None))
    assert doc["checksum"] == reference_checksum(doc)
    assert tuple(int(entry["value"]) for entry in doc["coefficients"]) == values


def test_series_document_rejects_gaps():
    doc = written(sample_series(), kind="incidence", surface_doc=None)
    doc["coefficients"] = doc["coefficients"][:-1]
    with_checksum(doc)
    with pytest.raises(ValueError, match="writer"):
        serialize.series_from_document(writer_layout(doc), **SAMPLE_REQUEST)


def test_series_reader_rejects_a_document_of_another_q_max():
    # The q_max = 3 document is the writer's bytes for its own request, and the
    # writer renders the head with the series' q_max: only the reader's own
    # check tells it from the q_max = 5 document.
    text = serialize.series_to_json(sample_series(), kind="incidence", surface_doc=None)
    assert serialize.series_from_document(text, **SAMPLE_REQUEST) == sample_series()
    with pytest.raises(ValueError, match="writer"):
        serialize.series_from_document(text, **{**SAMPLE_REQUEST, "q_max": 5})


@pytest.mark.parametrize("q_max", (0, 1, 21))
@pytest.mark.parametrize("kind", ("hilb", "incidence", "im1"))
@pytest.mark.parametrize("surface_name", ("k3", "abelian", None))
def test_dump_series_document_equals_json_dumps(surface_name, kind, q_max):
    # abelian has negative coefficients; incidence and im1 have a zero q^0
    # coefficient ("terms": []) and labels m, hilb has "m": null throughout;
    # a custom surface has "surface_name": null.
    if surface_name is None:
        surface = HodgeDiamond.from_json({"dim": 2, "h": [[1, 1, 2], [1, 7, 1], [2, 1, 1]]})
    else:
        surface = registry_lookup(surface_name)
    genus = 1 if kind == "im1" else None
    if kind == "hilb":
        series = formulas.hilbert_hodge_series(surface, q_max)
    elif kind == "incidence":
        series = formulas.nested_hodge_series(surface, q_max)
    else:
        series = formulas.ideal_sheaf_hodge_series(FibrationSpec(surface, genus), q_max)
    keywords = dict(kind=kind, surface_doc=surface.to_json(), surface_name=surface_name, genus=genus)
    text = serialize.series_to_json(series, **keywords)
    assert text == json.dumps(reference_document(series, **keywords), sort_keys=True, indent=2) + "\n"
    doc = json.loads(text)
    assert doc["checksum"] == reference_checksum(doc)
    assert serialize.series_from_document(text, **keywords, q_max=q_max) == series


def test_dump_series_document_negative_and_zero_coefficients():
    series = TruncatedSeries([
        BivariatePolynomial({(0, 0): -1, (3, 1): -(10**40)}),
        BivariatePolynomial(),
        BivariatePolynomial({(1, 1): 5}),
    ])
    doc = reference_document(series, kind="im1", surface_doc=None, genus=2)
    assert doc["coefficients"][1]["terms"] == []
    text = serialize.series_to_json(series, kind="im1", surface_doc=None, genus=2)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("q_max", (0, 1, 21))
@pytest.mark.parametrize("kind", ("hilb", "incidence", "im1"))
@pytest.mark.parametrize("surface_name", ("k3", None))
def test_euler_to_json_equals_json_dumps(surface_name, kind, q_max):
    # Negative values, and values above 2^64 from q = 1 on.
    values = tuple((-1) ** q * (2**64 + q) if q % 3 else q - 5 for q in range(q_max + 1))
    genus = 1 if kind == "im1" else None
    keywords = dict(
        kind=kind, surface_doc=registry_lookup("k3").to_json(), surface_name=surface_name, genus=genus
    )
    text = serialize.euler_to_json(values, **keywords)
    reference = reference_euler_document(values, **keywords)
    assert text == json.dumps(reference, sort_keys=True, indent=2) + "\n"
