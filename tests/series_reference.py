"""Reference arithmetic for truncated series, in plain dicts.

Tests check the packed engine ``series_product`` against products built here
term by term.  Only the constructors, ``.coefficients`` and ``.terms`` are
used, so the reference shares no code with the engine or with
``BivariatePolynomial.__mul__``.
"""

from fiberdt.polyseries import BivariatePolynomial, TruncatedSeries


def _add_product(acc, a, b):
    """Add the terms of the polynomial product a b into the dict ``acc``."""
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            key = (i1 + i2, j1 + j2)
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def poly_mul(a, b):
    """The product of two polynomials."""
    return BivariatePolynomial(_add_product({}, a, b))


def one(q_max):
    """The series 1 truncated at q_max."""
    return TruncatedSeries(q_max, [1])


def mul(x, y):
    """The product of two series with the same truncation order."""
    assert x.q_max == y.q_max, (x.q_max, y.q_max)
    out = [{} for _ in x.coefficients]
    for u, a in enumerate(x.coefficients):
        for v, b in enumerate(y.coefficients[: x.q_max + 1 - u]):
            _add_product(out[u + v], a, b)
    return TruncatedSeries(x.q_max, [BivariatePolynomial(terms) for terms in out])


def scaled(series, factor):
    """Every coefficient of the series times the polynomial ``factor``."""
    return TruncatedSeries(series.q_max, [poly_mul(c, factor) for c in series.coefficients])
