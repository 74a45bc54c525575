"""Reference arithmetic for truncated series, in plain dicts.

Tests check the packed engine ``series_product`` against products built here
term by term.  Only the constructors, ``.q_max``, ``.coefficients`` and
``.terms`` are used, so the reference shares no code with the engine or with
``BivariatePolynomial.__mul__``.
"""

from math import comb

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


def transposed(poly):
    """The polynomial with s and t exchanged."""
    return BivariatePolynomial({(j, i): c for (i, j), c in poly.terms.items()})


def coefficient_majorant(factors, q_max):
    """Largest coefficient up to q^q_max of the product of (1 - q^k) ** (-|e|)
    over the factors (a, b, k, e) with k <= q_max, merged by k: the slot
    bound of the engine, by its own univariate recurrence on plain ints."""
    exponents = {}
    for _, _, k, e in factors:
        if k <= q_max:
            exponents[k] = exponents.get(k, 0) + abs(e)
    coeffs = [1] + [0] * q_max
    for k, e in exponents.items():
        steps = [(n * k, comb(e - 1 + n, n)) for n in range(1, q_max // k + 1)]
        for m in range(q_max, k - 1, -1):
            coeffs[m] += sum(c * coeffs[m - shift] for shift, c in steps if shift <= m)
    return max(coeffs)


def padded(q_max, coefficients):
    """The series with these leading coefficients, then zeros up to q^q_max."""
    zeros = [BivariatePolynomial()] * (q_max + 1 - len(coefficients))
    return TruncatedSeries([*coefficients, *zeros])


def one(q_max):
    """The series 1 truncated at q_max."""
    return padded(q_max, [BivariatePolynomial({(0, 0): 1})])


def mul(x, y):
    """The product of two series with the same truncation order."""
    assert x.q_max == y.q_max, (x.q_max, y.q_max)
    out = [{} for _ in x.coefficients]
    for u, a in enumerate(x.coefficients):
        for v, b in enumerate(y.coefficients[: x.q_max + 1 - u]):
            _add_product(out[u + v], a, b)
    return TruncatedSeries(BivariatePolynomial(terms) for terms in out)


def scaled(series, factor):
    """Every coefficient of the series times the polynomial ``factor``."""
    return TruncatedSeries(poly_mul(c, factor) for c in series.coefficients)


def goettsche_hilbert(grid, q_max):
    """The Hilbert-scheme series of a surface with Hodge grid ``grid``, from
    Goettsche's formula in plethystic form.

    The series is Exp of the sum over k of e(S)(s, t) (st)^(k-1) q^k, whose
    logarithm L has r L_r = sum over k dividing r of k times the Adams
    operation psi_(r/k) (s -> s^(r/k), t -> t^(r/k)) of e(S) (st)^(k-1).  The
    coefficients then follow from m Z_m = sum over r of (r L_r) Z_(m-r),
    where every division by m is exact.  Only plain dicts and ints are used.
    """
    e = {
        (i, j): (-1) ** (i + j) * h
        for i, row in enumerate(grid)
        for j, h in enumerate(row)
        if h
    }
    rl = [{} for _ in range(q_max + 1)]
    for r in range(1, q_max + 1):
        for k in (k for k in range(1, r + 1) if r % k == 0):
            n = r // k
            for (i, j), c in e.items():
                key = (n * (i + k - 1), n * (j + k - 1))
                rl[r][key] = rl[r].get(key, 0) + k * c
    z = [{(0, 0): 1}]
    for m in range(1, q_max + 1):
        acc = {}
        for r in range(1, m + 1):
            for (i1, j1), c1 in rl[r].items():
                for (i2, j2), c2 in z[m - r].items():
                    key = (i1 + i2, j1 + j2)
                    acc[key] = acc.get(key, 0) + c1 * c2
        assert all(c % m == 0 for c in acc.values()), m
        z.append({key: c // m for key, c in acc.items() if c})
    return TruncatedSeries(BivariatePolynomial(terms) for terms in z)
