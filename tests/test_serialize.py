import hashlib
import json

import pytest

from fiberdt import serialize
from fiberdt import formulas
from fiberdt.formulas import nested_hodge_series
from fiberdt.geometry import FibrationSpec, HodgeDiamond, registry_lookup
from fiberdt.polyseries import BivariatePolynomial, TruncatedSeries


def sample_series():
    return nested_hodge_series(registry_lookup("k3"), 3)


def written(series, **keywords):
    """The parsed output of the series JSON writer."""
    return json.loads(serialize.series_to_json(series, **keywords))


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
    doc["checksum"] = hashlib.sha256(serialize.canonical_json(doc).encode()).hexdigest()
    return doc


def test_polynomial_terms_sorted_and_stringly():
    poly = BivariatePolynomial({(2, 0): -7, (0, 0): 1, (1, 1): 10**30})
    doc = written(TruncatedSeries(0, [poly]), kind="hilb", surface_doc=None)
    terms = doc["coefficients"][0]["terms"]
    assert terms == [
        {"i": 0, "j": 0, "c": "1"},
        {"i": 1, "j": 1, "c": str(10**30)},
        {"i": 2, "j": 0, "c": "-7"},
    ]
    assert serialize.polynomial_from_terms(terms) == poly


def test_polynomial_from_terms_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        serialize.polynomial_from_terms(
            [{"i": 0, "j": 0, "c": "1"}, {"i": 0, "j": 0, "c": "2"}]
        )


def test_document_round_trip():
    series = sample_series()
    doc = written(
        series, kind="incidence", surface_doc=registry_lookup("k3").to_json(), surface_name="k3"
    )
    assert serialize.checksum_ok(doc)
    assert serialize.series_from_document(doc) == series


def test_document_labels():
    series = sample_series()
    doc = written(series, kind="incidence", surface_doc=registry_lookup("k3").to_json())
    assert [entry["m"] for entry in doc["coefficients"]] == [None, 0, 1, 2]
    hilb_doc = written(TruncatedSeries.one(2), kind="hilb", surface_doc=None)
    assert [entry["m"] for entry in hilb_doc["coefficients"]] == [None, None, None]


@pytest.mark.parametrize(
    "edit",
    (
        pytest.param(lambda d: d.update(q_max=True), id="bool-q_max"),
        pytest.param(lambda d: d.update(extra=1), id="extra-key"),
        pytest.param(lambda d: d["coefficients"][2]["terms"].reverse(), id="unsorted-terms"),
        pytest.param(lambda d: d["coefficients"][1].update(m=0.0), id="float-label"),
    ),
)
def test_series_reader_rejects_what_the_writer_cannot_emit(edit):
    doc = written(sample_series(), kind="incidence", surface_doc=None)
    edit(doc)
    serialize.attach_checksum(doc)  # the checksum matches the edited payload
    with pytest.raises(ValueError):
        serialize.series_from_document(doc)


def test_series_reader_rejects_a_stale_checksum():
    doc = written(sample_series(), kind="incidence", surface_doc=None)
    doc["coefficients"][1]["terms"][0]["c"] = "2"
    with pytest.raises(ValueError, match="checksum"):
        serialize.series_from_document(doc)


def test_checksum_detects_payload_change():
    doc = written(sample_series(), kind="incidence", surface_doc=None)
    doc["q_max"] = 7
    assert not serialize.checksum_ok(doc)


def test_document_json_stable():
    doc1 = written(sample_series(), kind="incidence", surface_doc=None)
    doc2 = written(sample_series(), kind="incidence", surface_doc=None)
    assert serialize.canonical_json(doc1) == serialize.canonical_json(doc2)


def test_csv_round_trip_with_zero_coefficients():
    series = sample_series()  # q^0 coefficient is the zero polynomial
    text = serialize.series_to_csv(series, kind="incidence")
    assert serialize.series_from_csv(text) == series


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError, match="CSV"):
        serialize.series_from_csv("a,b,c\n1,2,3\n")


def test_euler_csv_round_trip():
    values = (0, 24, 600, -3, 10**25)
    text = serialize.euler_to_csv(values, kind="im1")
    assert serialize.euler_from_csv(text) == values


def test_euler_document_round_trip():
    values = tuple(range(5))
    doc = serialize.euler_to_document(values, kind="hilb", surface_doc=None)
    assert serialize.euler_from_document(doc) == values
    with pytest.raises(ValueError, match="Euler"):
        serialize.euler_from_document(written(sample_series(), kind="hilb", surface_doc=None))


def test_series_document_rejects_gaps():
    doc = written(sample_series(), kind="incidence", surface_doc=None)
    doc["coefficients"] = doc["coefficients"][:-1]
    serialize.attach_checksum(doc)
    with pytest.raises(ValueError, match="q\\^0"):
        serialize.series_from_document(doc)


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
        series = formulas.ideal_sheaf_hodge_series(FibrationSpec(surface, genus, 0, False), q_max)
    keywords = dict(kind=kind, surface_doc=surface.to_json(), surface_name=surface_name, genus=genus)
    text = serialize.series_to_json(series, **keywords)
    assert text == json.dumps(reference_document(series, **keywords), sort_keys=True, indent=2) + "\n"
    doc = json.loads(text)
    assert serialize.checksum_ok(doc)
    assert serialize.series_from_document(doc) == series


def test_dump_series_document_negative_and_zero_coefficients():
    series = TruncatedSeries(
        2, [BivariatePolynomial({(0, 0): -1, (3, 1): -(10**40)}), 0, BivariatePolynomial({(1, 1): 5})]
    )
    doc = reference_document(series, kind="im1", surface_doc=None, genus=2)
    assert doc["coefficients"][1]["terms"] == []
    text = serialize.series_to_json(series, kind="im1", surface_doc=None, genus=2)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
