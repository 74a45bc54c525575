import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from fiberdt.polyseries import (
    BivariatePolynomial,
    TruncatedSeries,
    series_product,
)
from fiberdt import formulas, polyseries
from fiberdt.cli import HODGE_CAP
from fiberdt.geometry import HodgeDiamond, registry_lookup
from series_reference import coefficient_majorant, mul, one, padded, poly_mul, scaled, transposed

ONE = BivariatePolynomial({(0, 0): 1})
ZERO = BivariatePolynomial()
S = BivariatePolynomial({(1, 0): 1})
T = BivariatePolynomial({(0, 1): 1})
ST = BivariatePolynomial({(1, 1): 1})


def poly(d):
    return BivariatePolynomial(d)


# --- strategies -------------------------------------------------------------

exponents = st.tuples(st.integers(0, 6), st.integers(0, 6))
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=5).map(BivariatePolynomial)


# --- polynomial arithmetic --------------------------------------------------


def test_mul_hand_expansion():
    one_plus_st = poly({(0, 0): 1, (1, 1): 1})
    one_minus_s = poly({(0, 0): 1, (1, 0): -1})
    assert one_plus_st * one_minus_s == poly({(0, 0): 1, (1, 0): -1, (1, 1): 1, (2, 1): -1})


def test_mul_identity():
    p = poly({(3, 2): 7, (1, 1): -2})
    assert p * ONE == p


def test_genus_one_factorization():
    one_minus_s = poly({(0, 0): 1, (1, 0): -1})
    one_minus_t = poly({(0, 0): 1, (0, 1): -1})
    assert one_minus_s * one_minus_t == poly({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


def test_no_stored_zeros():
    p = poly({(1, 1): 3, (2, 2): 0})
    assert (2, 2) not in p.terms
    # (1 + s)(1 - s) = 1 - s^2: the two s terms cancel and are not stored.
    product = poly({(0, 0): 1, (1, 0): 1}) * poly({(0, 0): 1, (1, 0): -1})
    assert dict(product.terms) == {(0, 0): 1, (2, 0): -1}


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        poly({(-1, 0): 1})


@pytest.mark.parametrize(
    "terms",
    (
        {(0, 0): 0.5},
        {(0.5, 1): 1},
        {(0, 0): True},
        {(True, 0): 1},
        {(0, 1.0): 1},
        {(0, 0): "1"},
        {(0, 0, 0): 1},
        {(0,): 1},
        {0: 1},
        {"ab": 1},
    ),
    ids=repr,
)
def test_constructor_takes_only_int_pairs_and_int_coefficients(terms):
    # type() checks: a bool is not taken as 0 or 1, a float not as an int.
    with pytest.raises(ValueError, match="pairs of nonnegative ints"):
        BivariatePolynomial(terms)


def test_polynomials_meet_no_int():
    # Neither product nor equality coerces an int to a constant polynomial.
    with pytest.raises(TypeError):
        ONE * 2
    with pytest.raises(TypeError):
        2 * ONE
    assert ONE != 1 and ZERO != 0
    for gone in ("zero", "constant", "__rmul__"):
        assert not hasattr(BivariatePolynomial, gone)


def test_eval_one_k3():
    k3 = poly({(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1})
    assert k3.eval_one() == 24


def test_eval_one_zero_and_torus():
    assert ZERO.eval_one() == 0
    assert poly({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}).eval_one() == 0


@given(polys, polys)
def test_eval_one_is_ring_homomorphism(a, b):
    assert (a * b).eval_one() == a.eval_one() * b.eval_one()


@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert a * b == b * a == poly_mul(a, b)
    assert (a * b) * c == a * (b * c)


@given(polys, polys)
def test_transposing_s_and_t_is_multiplicative(a, b):
    assert transposed(a * b) == transposed(a) * transposed(b)
    assert transposed(transposed(a)) == a


# --- truncated series -------------------------------------------------------


def test_series_coefficient_layout():
    s = TruncatedSeries(iter([ONE, ST, ZERO, ZERO]))
    assert s.coefficients == (ONE, ST, ZERO, ZERO)
    assert s.q_max == 3


@pytest.mark.parametrize("coefficients", ([], [ONE, 0], [1], [{(0, 0): 1}]), ids=repr)
def test_series_takes_one_or_more_polynomials(coefficients):
    with pytest.raises(ValueError, match="at least one coefficient, each a BivariatePolynomial"):
        TruncatedSeries(coefficients)


# --- factor expansion -------------------------------------------------------


def hand_factor(a, b, k, e, q_max):
    """(1 - s^a t^b q^k) ** (-e) written out term by term with math.comb."""
    coeffs = [ZERO] * (q_max + 1)
    coeffs[0] = ONE
    n = 1
    while n * k <= q_max:
        c = comb(e - 1 + n, n) if e >= 0 else (-1) ** n * comb(-e, n)
        coeffs[n * k] = poly({(a * n, b * n): c})
        n += 1
    return TruncatedSeries(coeffs)


def test_series_factor_geometric():
    f = series_product([(1, 1, 1, 1)], 2)
    assert f == TruncatedSeries([ONE, ST, poly({(2, 2): 1})])


def test_series_factor_trivial_exponent():
    assert series_product([(2, 3, 1, 0)], 5) == one(5)


def test_series_factor_above_truncation():
    assert series_product([(1, 1, 7, 5)], 6) == one(6)


def test_series_factor_invalid_q_exponent():
    with pytest.raises(ValueError):
        series_product([(1, 1, 0, 1)], 4)


@pytest.mark.parametrize("a,b,k,e", [(1, 1, 1, 1), (0, 2, 2, 3), (2, 0, 1, -4), (1, 2, 3, -2)])
def test_series_factor_inverse_pair(a, b, k, e):
    q_max = 8
    product = mul(series_product([(a, b, k, e)], q_max), series_product([(a, b, k, -e)], q_max))
    assert product == one(q_max)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4), st.integers(-5, 5))
def test_series_factor_inverse_pair_random(a, b, k, e):
    q_max = 6
    product = mul(series_product([(a, b, k, e)], q_max), series_product([(a, b, k, -e)], q_max))
    assert product == one(q_max)


def test_series_product_empty():
    assert series_product([], 5) == one(5)


def test_series_product_start_is_keyword_only():
    assert series_product([], 2, start=ST) == padded(2, [ST])
    # An int start is the constant polynomial; the Euler route seeds with e(X).
    assert series_product([], 2, start=-3) == padded(2, [poly({(0, 0): -3})])
    assert series_product([], 2, start=0) == padded(2, [])
    with pytest.raises(TypeError):
        series_product([], 2, ST)


def test_series_product_single_factor():
    # (1 - s t q^2) ** -3 = 1 + 3 s t q^2 + 6 s^2 t^2 q^4 + 10 s^3 t^3 q^6
    expected = TruncatedSeries(
        [ONE, ZERO, poly({(1, 1): 3}), ZERO, poly({(2, 2): 6}), ZERO, poly({(3, 3): 10})]
    )
    assert series_product([(1, 1, 2, 3)], 6) == expected
    assert series_product([(1, 1, 2, 3)], 6) == hand_factor(1, 1, 2, 3, 6)


def random_poly(rng):
    """Up to four terms with exponents below 4 and coefficients in -9..9."""
    return poly(
        {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))}
    )


def test_series_product_matches_generic_multiplication():
    # Reference: the generic series product of factors expanded by hand.  The
    # fixed cases pin |e| > q_max / k, k > q_max, e = 0, a repeated factor and
    # a factor with its inverse; the seeded random lists mix all of them.
    cases = [
        ([(2, 1, 1, -9)], 4),
        ([(2, 1, 6, -1), (1, 1, 1, 7), (0, 0, 1, 0)], 5),
        ([(1, 0, 2, 3), (1, 0, 2, 3)], 6),
        ([(1, 2, 1, 4), (1, 2, 1, -4)], 6),
        # The largest coefficient, -300 at q^3, sits below q_max.
        ([(0, 0, 3, -300)], 4),
        # Diagonal (a = b for every kept factor) next to a box factor that
        # is skipped, and surface-like lists with both layouts.
        ([(1, 1, 1, 2), (2, 2, 2, -3), (0, 5, 9, 1), (4, 0, 2, 0)], 8),
        ([(i + k - 1, i + k - 1, k, 1 + i) for k in range(1, 7) for i in range(3)], 6),
        ([(i + k - 1, j + k - 1, k, (-1) ** (i + j) * 2) for k in range(1, 7)
          for i in range(3) for j in range(3)], 6),
    ]
    # Lists whose largest |coefficient| is exactly the majorant that sizes
    # the slots, on either side of each width read as an array in C (8, 16,
    # 32 and 64 bits: 2 (2^(B-1) - 1) + 1 < 2^B <= 2 * 2^(B-1) + 1) and of the
    # 64-bit boundary where decoding leaves C for the byte path.
    exact = [
        ([(1, 0, 1, -127)], 1),
        ([(0, 1, 1, 128)], 1),
        ([(2, 2, 1, -128)], 1),
        ([(1, 0, 1, -(2**15 - 1))], 1),
        ([(1, 1, 1, -(2**15))], 1),
        ([(0, 1, 1, -(2**31 - 1))], 1),
        ([(1, 0, 1, -(2**31))], 1),
        ([(1, 0, 1, -(2**63 - 1))], 1),
        ([(1, 0, 1, -(2**63))], 1),
        ([(1, 1, 1, 3), (2, 2, 2, 5), (3, 3, 3, 2)], 9),
        ([(1, 0, 1, 3), (2, 0, 2, 5), (3, 0, 3, 1)], 9),
    ]
    for factors, q_max in exact:
        got = series_product(factors, q_max)
        largest = max(abs(c) for poly in got.coefficients for c in poly.terms.values())
        assert largest == coefficient_majorant(factors, q_max), factors
    cases += exact
    rng = random.Random(20240517)
    for _ in range(300):
        factors = [
            (rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 9), rng.randint(-6, 6))
            for _ in range(rng.randint(0, 5))
        ]
        if factors and rng.random() < 0.3:
            factors.append(rng.choice(factors))
        if factors and rng.random() < 0.3:
            a, b, k, e = rng.choice(factors)
            factors.append((a, b, k, -e))
        cases.append((factors, rng.randint(0, 7)))
    for _ in range(100):
        factors = []
        for _ in range(rng.randint(1, 5)):
            a = rng.randint(0, 3)
            factors.append((a, a, rng.randint(1, 9), rng.randint(-6, 6)))
        cases.append((factors, rng.randint(0, 7)))
    # Wide slots (byte path) with negative coefficients, diagonal and box.
    cases += [
        ([(1, 1, 1, -(2**70)), (2, 2, 2, 3)], 4),
        ([(1, 0, 1, -(2**70)), (0, 1, 2, 3)], 4),
    ]
    # A start for each case: band (a non-diagonal start with diagonal
    # factors), box with a start, start = 0 and negative coefficients.
    starts = [
        poly({(0, 1): -2, (1, 0): 5, (3, 3): 1}),
        poly({(2, 0): -1, (0, 0): 7}),
        ZERO,
        ONE,
        poly({(0, 4): 3, (1, 1): -(2**65)}),
    ]
    for n, (factors, q_max) in enumerate(cases):
        expected = one(q_max)
        for factor in factors:
            expected = mul(expected, hand_factor(*factor, q_max))
        got = series_product(iter(factors), q_max)
        assert got == expected, (factors, q_max)
        start = starts[n % len(starts)] if n % 3 else random_poly(rng)
        seeded = series_product(iter(factors), q_max, start=start)
        assert seeded == scaled(expected, start), (factors, q_max, start)
        for coefficient in (*got.coefficients, *seeded.coefficients):
            assert 0 not in coefficient.terms.values()


def test_slot_bound_is_the_former_majorant():
    # The engine sizes its slots by its own product at s = t = 1, in the
    # scalar layout; the former univariate recurrence gives the same value.
    # Seeded lists mix negative exponents, exponents up to the Hodge-number
    # cap and k above q_max; the surface lists are those of the CLI requests.
    rng = random.Random(20261021)
    cases = []
    for _ in range(80):
        cap = HODGE_CAP if rng.random() < 0.25 else 30
        factors = [
            (rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 60), rng.choice((-1, 1)) * rng.randint(1, cap))
            for _ in range(rng.randint(1, 8))
        ]
        cases.append((factors, rng.randint(0, 50)))
    dense = HodgeDiamond([[1, HODGE_CAP, HODGE_CAP], [HODGE_CAP] * 3, [HODGE_CAP, HODGE_CAP, 1]])
    for surface, q_max in ((registry_lookup("k3"), 21), (registry_lookup("abelian"), 50), (dense, 50)):
        cases.append((list(formulas._surface_factors(surface, q_max)), q_max))
    for factors, q_max in cases:
        kept = [f for f in factors if f[2] <= q_max]
        assert polyseries._coefficient_majorant(kept, q_max) == coefficient_majorant(factors, q_max), (
            factors,
            q_max,
        )


@pytest.mark.parametrize("factor", [(1, 1, -2, 1), (-1, 0, 1, 1), (0, -1, 1, 1), (-1, 0, 9, 1), (0, -1, 9, 0)])
def test_series_product_rejects_invalid_factors(factor):
    # Checked for every factor, also those above the truncation order.
    with pytest.raises(ValueError):
        series_product([(1, 1, 1, 1), factor], 4)


def test_series_product_euler_chi_three():
    # For a surface with chi = 3 the Euler specialization of the full product
    # is the three-color partition series 1, 3, 9, 22.
    factors = [(i + k - 1, i + k - 1, k, 1) for k in range(1, 4) for i in range(3)]
    series = series_product(factors, 3)
    assert series.euler_sequence() == (1, 3, 9, 22)


def test_series_product_skips_high_k():
    factors = [(1, 1, 1, 2), (1, 1, 99, 7)]
    assert series_product(factors, 4) == series_product([(1, 1, 1, 2)], 4)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 3), st.integers(-3, 3)), max_size=4))
def test_series_product_swap_covariance(factors):
    q_max = 5
    swapped_factors = [(b, a, k, e) for (a, b, k, e) in factors]
    swapped = series_product(swapped_factors, q_max).coefficients
    assert tuple(map(transposed, series_product(factors, q_max).coefficients)) == swapped
