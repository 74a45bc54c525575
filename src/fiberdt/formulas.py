"""Generating series for Hilbert schemes of points, nested Hilbert schemes
and the one-extra-point ideal-sheaf moduli of a curve-fibered 3-fold, plus
their Euler specializations and the resulting Donaldson-Thomas numbers.

Index convention: the nested and ideal-sheaf series carry an overall factor
of q, so their q^0 coefficient vanishes and the coefficient of q^(m+1) is the
class of the space labelled m.  The convention is anchored by the m = 0
identifications (the coefficient of q^1 equals the class of the surface,
respectively of the 3-fold) and validated against the partition oracles at
the Euler level.

The Euler sequences are computed at s = t = 1: the same packed product runs
on the specialized factors (1 - q^k) ** (-e(surface)), seeded with the Euler
number of the 3-fold, so no Hodge series is built for them.

Every series function has a parallel "direct" integer route computed by a
univariate recurrence on plain ints; the two routes share no code with the
polynomial machinery and are compared coefficient by coefficient in the test
suite and by the CLI.
"""

from __future__ import annotations

from functools import lru_cache

from .geometry import FibrationSpec, HodgeDiamond
from .polyseries import TruncatedSeries, series_product

__all__ = [
    "hilbert_hodge_series",
    "hilbert_euler_series",
    "hilbert_euler",
    "nested_hodge_series",
    "ideal_sheaf_hodge_series",
    "ideal_sheaf_euler_sequence",
    "ideal_sheaf_euler",
    "moduli_dimension",
    "dt_table",
    "dt_invariant",
    "hilbert_euler_direct",
    "ideal_sheaf_euler_direct",
]


def _require_surface(diamond: HodgeDiamond) -> None:
    if diamond.dim != 2:
        raise ValueError(f"expected a surface diamond, got dimension {diamond.dim}")


def _surface_factors(surface: HodgeDiamond, q_max: int):
    """Factor list (a, b, k, e) of the Hilbert-scheme product for a surface.

    For each k >= 1 and each (i, j) with a nonzero signed Hodge number
    e^{i,j} = (-1)^(i+j) h^{i,j}, the product picks up the factor
    (1 - s^(i+k-1) t^(j+k-1) q^k) ** (-e^{i,j}).
    """
    for k in range(1, q_max + 1):
        for i in range(3):
            for j in range(3):
                h = surface.hodge(i, j)
                if h:
                    e = -h if (i + j) % 2 else h
                    yield (i + k - 1, j + k - 1, k, e)


@lru_cache(maxsize=64)
def _hilbert_hodge_series_cached(surface: HodgeDiamond, q_max: int) -> TruncatedSeries:
    return series_product(_surface_factors(surface, q_max), q_max)


def hilbert_hodge_series(surface: HodgeDiamond, q_max: int) -> TruncatedSeries:
    """Hodge-polynomial series of the Hilbert schemes of points of a surface.

    The coefficient of q^m is e of the Hilbert scheme of m points; in
    particular the q^0 coefficient is 1 and the q^1 coefficient is e of the
    surface itself.
    """
    _require_surface(surface)
    return _hilbert_hodge_series_cached(surface, q_max)


def _euler_factors(chi: int, q_max: int):
    # The surface factors at s = t = 1: the e^{i,j} of each k add up to chi.
    return ((0, 0, k, chi) for k in range(1, q_max + 1))


def hilbert_euler_series(surface: HodgeDiamond, q_max: int) -> tuple[int, ...]:
    """Euler specialization (s = t = 1) of :func:`hilbert_hodge_series`.

    It is computed at s = t = 1, as the product over k of
    (1 - q^k) ** (-e(surface)), without the Hodge series.
    """
    _require_surface(surface)
    return series_product(_euler_factors(surface.euler_number(), q_max), q_max).euler_sequence()


def hilbert_euler(surface: HodgeDiamond, m: int) -> int:
    """Euler number of the Hilbert scheme of m points on the surface."""
    if m < 0:
        raise ValueError("point count must be nonnegative")
    return hilbert_euler_series(surface, m)[m]


def _extra_point_series(factors, e, q_max: int) -> TruncatedSeries:
    # q times e times the product of the factors; after the shift by q only
    # the product's terms below q^q_max survive.  e seeds the packed product
    # rather than scaling its result.
    if not q_max:
        return TruncatedSeries.zero(0)
    product = series_product(factors, q_max - 1, start=e)
    return TruncatedSeries(q_max, [0, *product.coefficients])


def nested_hodge_series(surface: HodgeDiamond, q_max: int) -> TruncatedSeries:
    """Hodge series of the nested Hilbert schemes (pairs of subschemes of
    lengths m and m + 1, one inside the other).

    Equals q/(1 - s t q) times e(surface) times the Hilbert-scheme product;
    the coefficient of q^(m+1) is the class of the (m, m+1) nested space.
    """
    _require_surface(surface)
    factors = [(1, 1, 1, 1), *_surface_factors(surface, q_max - 1)]
    return _extra_point_series(factors, surface.e_polynomial(), q_max)


def ideal_sheaf_hodge_series(fibration: FibrationSpec, q_max: int) -> TruncatedSeries:
    """Hodge series of the one-extra-point ideal-sheaf moduli spaces of the
    fibered 3-fold.

    Same shape as :func:`nested_hodge_series` with e(surface) replaced by e of
    the total space; the coefficient of q^(m+1) is the class of the moduli
    space labelled m (m fiber curves plus one floating point).
    """
    factors = [(1, 1, 1, 1), *_surface_factors(fibration.base, q_max - 1)]
    return _extra_point_series(factors, fibration.e_polynomial(), q_max)


def ideal_sheaf_euler_sequence(fibration: FibrationSpec, q_max: int) -> tuple[int, ...]:
    """Euler specialization of :func:`ideal_sheaf_hodge_series`.

    It is computed at s = t = 1, as q/(1 - q) times e of the 3-fold times the
    product over k of (1 - q^k) ** (-e(base)), without the Hodge series.
    """
    factors = [(0, 0, 1, 1), *_euler_factors(fibration.base.euler_number(), q_max - 1)]
    return _extra_point_series(factors, fibration.euler_number(), q_max).euler_sequence()


def ideal_sheaf_euler(fibration: FibrationSpec, m: int) -> int:
    """Euler number of the moduli space labelled m (coefficient of q^(m+1))."""
    if m < 0:
        raise ValueError("moduli label must be nonnegative")
    return ideal_sheaf_euler_sequence(fibration, m + 1)[m + 1]


def moduli_dimension(m: int) -> int:
    """Dimension of the moduli space labelled m.

    The space is a blow-up of (Hilbert scheme of m points) x (3-fold), which
    has dimension 2m + 3, and blowing up preserves dimension.
    """
    if m < 0:
        raise ValueError("moduli label must be nonnegative")
    return 2 * m + 3


def dt_table(fibration: FibrationSpec, m_max: int) -> tuple[tuple[int, int], ...]:
    """(Euler number, Donaldson-Thomas number) of every moduli space labelled
    0..m_max, all read off one ideal-sheaf series.

    Requires the trivial-canonical setting: base surface flagged K = 0,
    elliptic fiber (genus 1) and vanishing beta.K, so each moduli space is
    smooth with obstruction bundle dual to its tangent bundle and the
    invariant is (-1)^dim times the Euler number.
    """
    if not fibration.base_canonical_trivial:
        raise ValueError(
            "Donaldson-Thomas evaluation requires a base surface with trivial "
            "canonical class (K = 0: registry surfaces k3 or abelian)"
        )
    if fibration.fiber_genus != 1:
        raise ValueError("Donaldson-Thomas evaluation requires an elliptic fiber (genus 1)")
    if fibration.beta_dot_kx != 0:
        raise ValueError("Donaldson-Thomas evaluation requires beta.K = 0")
    if m_max < 0:
        raise ValueError("moduli label must be nonnegative")
    euler = ideal_sheaf_euler_sequence(fibration, m_max + 1)
    return tuple(
        (euler[m + 1], (-1) ** moduli_dimension(m) * euler[m + 1]) for m in range(m_max + 1)
    )


def dt_invariant(fibration: FibrationSpec, m: int) -> int:
    """Donaldson-Thomas number of the moduli space labelled m; see
    :func:`dt_table` for the hypotheses."""
    return dt_table(fibration, m)[-1][1]


# ---------------------------------------------------------------------------
# Direct integer routes.  Univariate recurrences on plain int lists; kept
# deliberately separate from the polynomial machinery above.
# ---------------------------------------------------------------------------


def hilbert_euler_direct(chi: int, q_max: int) -> tuple[int, ...]:
    """Coefficients of the product over k of (1 - q^k) ** (-chi).

    The coefficient of q^m is the Euler number of the Hilbert scheme of m
    points on any surface with Euler number chi.

    Computed by the recurrence n a_n = chi * sum over k <= n of
    sigma(k) a_(n-k), where sigma(k) is the sum of the divisors of k: the
    logarithmic derivative of the product.  Every division by n is exact.
    """
    sigma = [0] * (q_max + 1)
    for d in range(1, q_max + 1):
        for multiple in range(d, q_max + 1, d):
            sigma[multiple] += d
    out = [1] + [0] * q_max
    for n in range(1, q_max + 1):
        out[n] = chi * sum(sigma[k] * out[n - k] for k in range(1, n + 1)) // n
    return tuple(out)


def ideal_sheaf_euler_direct(chi_total: int, chi_base: int, q_max: int) -> tuple[int, ...]:
    """Euler sequence of the ideal-sheaf series: q/(1-q) times the Euler
    number of the 3-fold times the Hilbert product of the base surface.

    With ``chi_total = chi_base`` this is the Euler sequence of the nested
    series.
    """
    prod = hilbert_euler_direct(chi_base, q_max)
    out = [0] * (q_max + 1)
    running = 0
    for n in range(1, q_max + 1):
        running += prod[n - 1]
        out[n] = chi_total * running
    return tuple(out)
