"""Generating series for Hilbert schemes of points, nested Hilbert schemes
and the one-extra-point ideal-sheaf moduli of a curve-fibered 3-fold, plus
their Euler specializations and the resulting Donaldson-Thomas numbers.

Each series has a kind ("hilb", "incidence" or "im1") and is built from a
geometry (a surface, or for "im1" a fibration over one).  Three functions
take the same (kind, geometry) pair by one rule: :func:`hodge_series` builds
the Hodge series, :func:`euler_sequence` its Euler numbers, and
:func:`verify_series` checks a Hodge series.

Index convention: the nested and ideal-sheaf series carry an overall factor
of q, so their q^0 coefficient vanishes and the coefficient of q^(m+1) is the
class of the space labelled m.  The convention is anchored by the m = 0
identifications (the coefficient of q^1 equals the class of the surface,
respectively of the 3-fold) and validated against the partition oracles at
the Euler level.

:func:`euler_sequence` runs the same engine at s = t = 1, in its scalar
layout, on the factors (1 - q^k) ** (-e(surface)): no Hodge series is built.

Every series has a parallel "direct" integer route computed by a univariate
recurrence on plain ints; the direct routes share no code with the
polynomial machinery and are compared coefficient by coefficient by
:func:`verify_series` and :func:`euler_sequence`.
"""

from __future__ import annotations

from .geometry import FibrationSpec, HodgeDiamond
from .polyseries import BivariatePolynomial, TruncatedSeries, series_product

__all__ = [
    "hodge_series",
    "euler_sequence",
    "moduli_dimension",
    "dt_table",
    "hilbert_euler_direct",
    "ideal_sheaf_euler_direct",
    "verify_series",
]


def _surface_factors(surface: HodgeDiamond, q_max: int):
    """Factor list (a, b, k, e) of the Hilbert-scheme product for a surface.

    For each k >= 1 and each term e^{i,j} s^i t^j of e(surface), the product
    picks up the factor (1 - s^(i+k-1) t^(j+k-1) q^k) ** (-e^{i,j}).
    """
    signed = surface.e_polynomial().terms.items()
    for k in range(1, q_max + 1):
        for (i, j), e in signed:
            yield (i + k - 1, j + k - 1, k, e)


def _extra_point_series(factors, e, q_max: int) -> TruncatedSeries:
    # q times e times the product of the factors; after the shift by q only
    # the product's terms below q^q_max survive.  e seeds the packed product
    # rather than scaling its result.
    product = series_product(factors, q_max - 1, start=e).coefficients if q_max else ()
    return TruncatedSeries((BivariatePolynomial(), *product))


def _series_surface(kind: str, geometry) -> HodgeDiamond:
    """The surface S of the series of the given kind built from ``geometry``:
    a surface :class:`HodgeDiamond` for "hilb" and "incidence", a
    :class:`FibrationSpec` over S for "im1".  Another kind or geometry raises
    ``ValueError``."""
    if kind not in ("hilb", "incidence", "im1"):
        raise ValueError(f"unknown series kind {kind!r}")
    if isinstance(geometry, FibrationSpec) != (kind == "im1"):
        wanted = "a FibrationSpec" if kind == "im1" else "a surface HodgeDiamond"
        raise ValueError(f"{kind} series are built from {wanted}")
    surface = geometry.base if kind == "im1" else geometry
    if surface.dim != 2:
        raise ValueError(f"expected a surface diamond, got dimension {surface.dim}")
    return surface


def hodge_series(
    kind: str, geometry: HodgeDiamond | FibrationSpec, q_max: int
) -> TruncatedSeries:
    """Hodge-polynomial series of the given kind, truncated at q^q_max.

    "hilb" is the product of the :func:`_surface_factors` of the surface S;
    its coefficient of q^m is e of the Hilbert scheme of m points.
    "incidence" (nested Hilbert schemes) and "im1" (ideal-sheaf moduli of the
    fibered 3-fold X) are q/(1 - s t q) times e(S), respectively e(X), times
    that product; the coefficient of q^(m+1) is the class of the space
    labelled m.  ``kind`` and ``geometry`` are taken as by
    :func:`verify_series`, which checks the result; this function does not.
    """
    surface = _series_surface(kind, geometry)
    if kind == "hilb":
        return series_product(_surface_factors(surface, q_max), q_max)
    factors = [(1, 1, 1, 1), *_surface_factors(surface, q_max - 1)]
    return _extra_point_series(factors, geometry.e_polynomial(), q_max)


def _surface_and_direct(kind: str, geometry, q_max: int):
    """(e(S), e of ``geometry``, direct integer Euler series) of the series of
    the given kind built from ``geometry``, taken as by :func:`hodge_series`."""
    chi_s, chi = _series_surface(kind, geometry).euler_number(), geometry.euler_number()
    if kind == "hilb":
        return chi_s, chi, hilbert_euler_direct(chi_s, q_max)
    return chi_s, chi, ideal_sheaf_euler_direct(chi, chi_s, q_max)


def euler_sequence(
    kind: str, geometry: HodgeDiamond | FibrationSpec, q_max: int
) -> tuple[int, ...]:
    """Euler numbers (s = t = 1) of the series of the given kind, built
    without its Hodge series: the product over k of (1 - q^k) ** (-e(S)),
    for "incidence" and "im1" times q/(1 - q) and e(S) or e(X).  ``kind`` and
    ``geometry`` are taken as by :func:`verify_series`; a mismatch with the
    direct integer series raises ``RuntimeError``."""
    chi_s, chi, expected = _surface_and_direct(kind, geometry, q_max)
    # The surface factors at s = t = 1: the e^{i,j} of each k add up to e(S).
    factors = [(0, 0, k, chi_s) for k in range(1, q_max + 1)]
    if kind == "hilb":
        values = series_product(factors, q_max).euler_sequence()
    else:
        values = _extra_point_series([(0, 0, 1, 1), *factors], chi, q_max).euler_sequence()
    if values != expected:
        raise RuntimeError("Euler specialization disagrees with the direct integer series")
    return values


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

    Requires the trivial-canonical setting: base surface flagged K = 0 and
    elliptic fiber (genus 1), which is exactly beta.K = 2g - 2 = 0, so each
    moduli space is smooth with obstruction bundle dual to its tangent bundle
    and the invariant is (-1)^dim times the Euler number.

    The Euler column is the checked :func:`euler_sequence`, and every
    invariant is checked against the vanishing that the setting forces;
    either failure raises ``RuntimeError``.
    """
    if not fibration.base_canonical_trivial:
        raise ValueError(
            "Donaldson-Thomas evaluation requires a base surface with trivial "
            "canonical class (K = 0: registry surfaces k3 or abelian)"
        )
    if fibration.beta_dot_kx != 0:
        raise ValueError(
            "Donaldson-Thomas evaluation requires an elliptic fiber (genus 1, so "
            f"beta.K = 0), got genus {fibration.fiber_genus}"
        )
    if m_max < 0:
        raise ValueError("moduli label must be nonnegative")
    euler = euler_sequence("im1", fibration, m_max + 1)
    table = tuple(
        (euler[m + 1], (-1) ** moduli_dimension(m) * euler[m + 1]) for m in range(m_max + 1)
    )
    for m, (_, value) in enumerate(table):
        if value != 0:
            raise RuntimeError(f"expected a vanishing Donaldson-Thomas number at m={m}, got {value}")
    return table


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
    if q_max < 0:
        raise ValueError("truncation order must be nonnegative")
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


def verify_series(
    kind: str, geometry: HodgeDiamond | FibrationSpec, series: TruncatedSeries
) -> None:
    """Check a Hodge series of the given kind against the routes that do not
    build it.

    ``geometry`` is what the series was built from: the surface
    (a :class:`HodgeDiamond`) for "hilb" and "incidence", the
    :class:`FibrationSpec` for "im1".  Every coefficient must be symmetric
    under swapping s and t, and the s = t = 1 specialization must equal the
    direct integer series of ``geometry``.  The class of each space, smooth,
    projective and connected, has c_00 = 1 and Poincare duality c_ij =
    c_(d-i, d-j) (Goettsche-Soergel, Math. Ann. 296, 1993): at q^m, d is 2m,
    or ``moduli_dimension(m - 1)`` for "im1", and the q^0 of a labelled kind
    is 0.  A failure raises ``RuntimeError``; an unknown kind or a geometry of
    the other kind raises ``ValueError``.
    """
    expected = _surface_and_direct(kind, geometry, series.q_max)[2]
    undual = None  # the first q^m that fails duality, raised after the Euler check
    for m, poly in enumerate(series.coefficients):
        terms = poly.terms
        if kind != "hilb" and m == 0:
            dual = not terms
        else:
            d = moduli_dimension(m - 1) if kind == "im1" else 2 * m
            dual = terms.get((0, 0)) == 1
        for (i, j), c in terms.items():
            if terms.get((j, i)) != c:
                raise RuntimeError(f"q^{m} coefficient is not symmetric under swapping s and t")
            dual = dual and terms.get((d - i, d - j)) == c
        if not dual and undual is None:
            undual = m
    if series.euler_sequence() != expected:
        raise RuntimeError("Euler specialization disagrees with the direct integer series")
    if undual is not None:
        raise RuntimeError(f"q^{undual} coefficient fails the Poincare duality check")
