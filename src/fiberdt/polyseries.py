"""Exact arithmetic for sparse bivariate polynomials and truncated q-series.

The two grading variables are called s and t throughout.  Series live in a
third formal variable q and are truncated at a fixed order ``q_max``.  All
coefficients are arbitrary-precision Python integers, so every identity
checked elsewhere in the package holds exactly; there is no floating point
anywhere in this module.

Polynomials are stored sparsely, as a map from exponent pairs to nonzero
integers.  The map is kept in canonical form (zero coefficients are pruned
eagerly), so structural equality of the maps is polynomial equality.  All
values are immutable after construction and safe to share between threads.

:func:`series_product` is the one engine for products of factors
(1 - s^a t^b q^k) ** (-e) = sum of c_n (s^a t^b q^k)^n, times a polynomial
``start`` in s and t.  It seeds q^0 with ``start`` and applies each factor in
place: for m from q_max down to k it adds c_n s^(an) t^(bn) times the
coefficient of q^(m - nk) into that of q^m, so every read predates the
factor.  A factor with a small positive e is cheaper as e passes, each a
division by 1 - s^a t^b q^k with a single shifted add per m, for m from k up;
the engine takes whichever needs fewer big-int steps.  Each factor acts
linearly, so the result is start times the product without a separate
scaling pass.

The engine is Kronecker-packed (Harvey, J. Symbolic Comput. 44, 2009): each
q-coefficient is one Python int, the sum of c_ij 2^(B slot(i, j)), so that
multiplying by s^(an) t^(bn) is a left shift and the recurrence above runs on
plain ints.  The layout follows from the factors and the start:

* band, when every kept factor has a = b: slot(i, j) = (i - j + D) +
  (2 D + 1) j, with D the largest |i - j| of the start.  Diagonal factors
  keep i - j, so every term stays in the band; D = 0 is the diagonal layout
  slot(i, i) = i.
* box otherwise: slot(i, j) = j + W i, where W - 1 bounds every t-degree of
  the result (deg_t of the start plus the largest q_max b / k, which is
  2 q_max for surface factors).  Slots run in sorted (i, j) order.

The slot width B is the bit length of 2 M + 1 rounded up to 8, 16, 32 or 64
bits, or above 64 to whole bytes.  Here M is the sum of the |coefficients| of
the start times the largest coefficient up to q^q_max of the product of
(1 - q^k) ** (-|e|) over the same factors; M bounds every |c_ij| of the
result.  Decoding adds 2^(B-1) to every slot and calls ``int.to_bytes``
once.  Up to 64 bits an XOR with the same offset turns each slot back into
two's complement, which a signed ``array`` of that item size reads, and
``itertools.compress`` keeps the (i, j) keys of the nonzero slots, all in C.
Wider slots (the abelian surface at q_max = 50, or Hodge numbers near the
CLI cap) read each byte-aligned slot back less 2^(B-1).
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping

__all__ = [
    "BivariatePolynomial",
    "TruncatedSeries",
    "series_product",
]


class BivariatePolynomial:
    """A polynomial in s and t with integer coefficients.

    The constructor accepts any mapping from exponent pairs ``(i, j)`` to
    integers; zero coefficients are dropped and negative exponents rejected.
    The one arithmetic operation is multiplication, which returns a new
    object.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        cleaned: dict[tuple[int, int], int] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair ({i}, {j})")
                if c:
                    cleaned[(i, j)] = c
        self._terms = cleaned

    @classmethod
    def _raw(cls, terms: dict[tuple[int, int], int]) -> "BivariatePolynomial":
        # Internal fast path: `terms` must already be canonical.
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls._raw({})

    @classmethod
    def constant(cls, c: int) -> "BivariatePolynomial":
        return cls._raw({(0, 0): c} if c else {})

    @property
    def terms(self) -> Mapping[tuple[int, int], int]:
        """Read-only view of the canonical exponent-to-coefficient map."""
        return MappingProxyType(self._terms)

    def eval_one(self) -> int:
        """Value at s = t = 1, i.e. the sum of all coefficients.

        This specialization sends the class of a smooth variety to its
        topological Euler number, and it is a ring homomorphism.
        """
        return sum(self._terms.values())

    def swap_variables(self) -> "BivariatePolynomial":
        """Exchange s and t (transpose every exponent pair)."""
        return BivariatePolynomial._raw({(j, i): c for (i, j), c in self._terms.items()})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivariatePolynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __mul__(self, other: "BivariatePolynomial | int") -> "BivariatePolynomial":
        other = _as_poly(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return BivariatePolynomial._raw({})
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # Single-monomial multiplier: exponent shift, no collisions.
            ((di, dj), dc), = b.items()
            return BivariatePolynomial._raw(
                {(i + di, j + dj): c * dc for (i, j), c in a.items()}
            )
        out: dict[tuple[int, int], int] = {}
        for (i2, j2), c2 in b.items():
            for (i1, j1), c1 in a.items():
                key = (i1 + i2, j1 + j2)
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return BivariatePolynomial._raw(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for (i, j), c in sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0])):
            vars_part = "*".join(
                p for p in (_power("s", i), _power("t", j)) if p
            )
            if vars_part:
                if c == 1:
                    body = vars_part
                elif c == -1:
                    body = "-" + vars_part
                else:
                    body = f"{c}*{vars_part}"
            else:
                body = str(c)
            chunks.append(body)
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"BivariatePolynomial({self._terms!r})"


def _power(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def _as_poly(value: "BivariatePolynomial | int") -> BivariatePolynomial:
    if isinstance(value, BivariatePolynomial):
        return value
    if isinstance(value, int):
        return BivariatePolynomial.constant(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a polynomial")


_ZERO = BivariatePolynomial.zero()
_BIG_ENDIAN = sys.byteorder == "big"
# The signed array typecode of each item size in bytes (1, 2, 4 and 8).
_SIGNED_TYPECODES = {array(code).itemsize: code for code in "lqihb"}


class TruncatedSeries:
    """A power series in q truncated at order ``q_max``.

    The coefficient of q^m is a :class:`BivariatePolynomial`, stored at index
    m of the one stored field, a tuple of length ``q_max + 1``.  Series have
    no arithmetic of their own: :func:`series_product` builds every product.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, q_max: int, coefficients: Iterable[BivariatePolynomial | int] = ()):
        if q_max < 0:
            raise ValueError("truncation order must be nonnegative")
        coeffs = [_as_poly(c) for c in coefficients]
        if len(coeffs) > q_max + 1:
            raise ValueError(
                f"{len(coeffs)} coefficients supplied for truncation order {q_max}"
            )
        coeffs.extend([_ZERO] * (q_max + 1 - len(coeffs)))
        self._coeffs = tuple(coeffs)

    @classmethod
    def _raw(cls, coeffs: tuple[BivariatePolynomial, ...]) -> "TruncatedSeries":
        obj = object.__new__(cls)
        obj._coeffs = coeffs
        return obj

    @classmethod
    def zero(cls, q_max: int) -> "TruncatedSeries":
        return cls(q_max)

    @property
    def q_max(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[BivariatePolynomial, ...]:
        return self._coeffs

    def euler_sequence(self) -> tuple[int, ...]:
        """Integer sequence obtained by evaluating every coefficient at s = t = 1."""
        return tuple(c.eval_one() for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __str__(self) -> str:
        body = " ; ".join(f"q^{m}: {c}" for m, c in enumerate(self._coeffs))
        return f"TruncatedSeries[{body}]"

    __repr__ = __str__


def series_product(
    factors: Iterable[tuple[int, int, int, int]],
    q_max: int,
    *,
    start: BivariatePolynomial | int = 1,
) -> TruncatedSeries:
    """``start`` times the product of (1 - s^a t^b q^k) ** (-e) over (a, b, k, e)
    quadruples.

    Every factor must have k >= 1 and a, b >= 0.  Those with k > q_max or e = 0
    are 1 up to the truncation order and are skipped: an infinite product is
    finite."""
    if q_max < 0:
        raise ValueError("truncation order must be nonnegative")
    start = _as_poly(start)
    kept = []
    for a, b, k, e in factors:
        if k < 1:
            raise ValueError("q exponent of a factor must be at least 1")
        if a < 0 or b < 0:
            raise ValueError("factor exponents in s and t must be nonnegative")
        if k <= q_max and e != 0:
            kept.append((a, b, k, e))
    diagonal = all(a == b for a, b, _, _ in kept)
    if diagonal:
        # Band: diagonal factors keep i - j, so it stays within the -D..D of
        # the start and s^i t^j sits in slot (i - j + D) + width j.
        half = max((abs(i - j) for i, j in start.terms), default=0)
        width = 2 * half + 1
    else:
        # Box: s^i t^j sits in slot j + width i; no t-exponent of the result
        # exceeds deg_t(start) plus the largest q_max b / k.
        half = 0
        width = 1 + max((j for _, j in start.terms), default=0) + max(
            b * q_max // k for _, b, k, _ in kept
        )

    def slot(i: int, j: int) -> int:
        return i - j + half + width * j if diagonal else j + width * i

    bound = sum(map(abs, start.terms.values())) * _coefficient_majorant(kept, q_max)
    size = ((2 * bound + 1).bit_length() + 7) // 8
    # 1, 2, 4 or 8 bytes, the widths that _unpack reads as an array in C.
    bits = 8 * (1 << (size - 1).bit_length() if size <= 8 else size)
    coeffs = [0] * (q_max + 1)
    coeffs[0] = sum(c << bits * slot(i, j) for (i, j), c in start.terms.items())
    for a, b, k, e in kept:
        n_max = q_max // k if e > 0 else min(q_max // k, -e)
        shift = bits * (slot(a, b) - slot(0, 0))
        if e > 0 and e * (q_max + 1 - k) <= sum(min(m // k, n_max) for m in range(k, q_max + 1)):
            # Fewer big-int steps as e divisions by 1 - x q^k, each a shift
            # and an add per m that reads the updated coefficients.
            for _ in range(e):
                for m in range(k, q_max + 1):
                    coeffs[m] += coeffs[m - k] << shift
            continue
        steps = [
            (n * k, n * shift, comb(e - 1 + n, n) if e > 0 else (-1) ** n * comb(-e, n))
            for n in range(1, n_max + 1)
        ]
        for m in range(q_max, k - 1, -1):
            acc = coeffs[m]
            for q_shift, bit_shift, c in steps:
                if q_shift > m:
                    break
                src = coeffs[m - q_shift]
                if src:
                    acc += (c * src) << bit_shift
            coeffs[m] = acc
    # The (i, j) of every slot that any coefficient reaches, built once.
    slots = range(max(v.bit_length() for v in coeffs) // bits + 1)
    if diagonal:
        keys = [(r - half + j, j) for j, r in (divmod(n, width) for n in slots)]
    else:
        keys = [divmod(n, width) for n in slots]
    return TruncatedSeries._raw(tuple(_unpack(v, bits, keys) for v in coeffs))


def _coefficient_majorant(kept: list[tuple[int, int, int, int]], q_max: int) -> int:
    """Largest coefficient up to q^q_max of the product of (1 - q^k) ** (-|e|).

    Each |c_n| of a factor is at most the matching coefficient of
    (1 - q^k) ** (-|e|), so this bounds every |coefficient| of the product.
    Factors are merged by k first.
    """
    exponents: dict[int, int] = {}
    for _, _, k, e in kept:
        exponents[k] = exponents.get(k, 0) + abs(e)
    coeffs = [1] + [0] * q_max
    for k, e in exponents.items():
        steps = [(n * k, comb(e - 1 + n, n)) for n in range(1, q_max // k + 1)]
        for m in range(q_max, k - 1, -1):
            coeffs[m] += sum(c * coeffs[m - shift] for shift, c in steps if shift <= m)
    return max(coeffs)


def _unpack(value: int, bits: int, keys: list[tuple[int, int]]) -> BivariatePolynomial:
    # Adding 2^(bits-1) to every slot makes all of them nonnegative, so one
    # to_bytes call exposes each slot as a byte-aligned little-endian field.
    if not value:
        return _ZERO
    size = bits // 8
    # The top nonzero slot s has |value| > 2^(bits s - 1), so this covers it.
    n_slots = value.bit_length() // bits + 1
    half = 1 << (bits - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * n_slots, "little")
    typecode = _SIGNED_TYPECODES.get(size)
    if typecode:
        # XOR with the offset turns each slot back into two's complement, which
        # the array reads; compress keeps the keys of the nonzero slots.
        slots = array(typecode, ((value + offset) ^ offset).to_bytes(size * n_slots, "little"))
        if _BIG_ENDIAN:
            slots.byteswap()
        return BivariatePolynomial._raw(dict(zip(compress(keys, slots), filter(None, slots))))
    data = (value + offset).to_bytes(size * n_slots, "little")
    from_bytes = int.from_bytes
    terms: dict[tuple[int, int], int] = {}
    for slot in range(n_slots):
        c = from_bytes(data[slot * size : (slot + 1) * size], "little") - half
        if c:
            terms[keys[slot]] = c
    return BivariatePolynomial._raw(terms)
