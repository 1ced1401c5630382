"""Exact counting of commuting matrix tuples in GL_n over finite fields.

The counts are polynomials in the field size q with integer coefficients,
built by one memoized recursion over factorization types that stays in
*count space*: every value it produces is itself an integer polynomial, so
it needs no denominators and no polynomial GCDs.

A commuting tuple whose first matrix is semisimple of type t (the
factorization type of its characteristic polynomial) decomposes the space
into blocks, one per (degree d, size s) pair of t; on such a block the rest
of the tuple commutes inside GL_s over the degree-d extension field.  The
first matrix's centralizer is C_t = prod GL_s(F_{q^d}), and its index

    [GL_r : C_t] = |GL_r(q)| / prod |GL_s(q^d)|

is a polynomial with integer coefficients, because the divisor is monic.
With N_t the number of characteristic polynomials of type t, the recursion
is

    V(j, r) = sum over types t of weight r of
              F(t) * prod over pairs (d, s) of t of V(j - 1, s)(q^d)

in two kinds that differ only in the leaf and the type factor F(t):

- ``"ss"``: leaf V(0, r) = 1 and F(t) = N_t * [GL_r : C_t].  V(j, r) counts
  commuting j-tuples of semisimple elements of GL_r(F_q), so the
  all-semisimple count is V_ss(k, n).
- ``"mixed"``: leaf V(0, r) = (q - 1) q^(r-1), the number of candidate
  characteristic polynomials of one free commuting matrix on the block, and
  F(t) = N_t.  Mixed k-tuples (k - 1 semisimple plus one free) number
  |GL_n(q)| * V_mixed(k - 2, n), and simultaneous-conjugation classes of
  commuting semisimple k-tuples number V_mixed(k - 1, n).

The memo is keyed by (kind, level, r) and holds the value at q; a child
needed at q^d is the stored value with q^d substituted, so the field power
is not part of the key.  Each level sum is one product of Python ints per
type: every polynomial is evaluated at one power of two, wide enough that
the sum's coefficients read back exactly (Kronecker substitution).

Integrality is certified inside the recursion.  Each type count comes as
an integer polynomial D_t * N_t over a known denominator D_t, so each level
sum is accumulated with every N_t scaled by the lcm of the D_t for that
weight and divided back exactly, coefficient by coefficient.  The
centralizer index is |GL_r| over the centralizer order, both a power of q
times factors q^m - 1, divided one factor at a time.  Either division
leaving a remainder raises IntegralityViolation instead of rounding, since
it would mean the recursion or the type combinatorics is wrong.  Results
become ``UnivariatePoly`` only at the ``CountingPolynomial`` boundary,
which checks once more that every coefficient is an int.

``ss_weight`` and ``mixed_weight`` present the same values in the older
per-block weight form, as rational functions at a field power q^m; they are
views for callers, not part of the counting path.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Literal

from . import Refusal, record
from .exactpoly import (  # noqa: F401  (to_laurent: perfbench/spans.py looks up engine.to_laurent)
    IntPoly,
    LaurentPoly,
    NotLaurent,
    RationalFunction,
    UnivariatePoly,
    int_mul,
    to_laurent,
)
from .typecomb import FactorizationType, enumerate_types, scaled_type_count, type_pairs
from .typecomb import count_monic_with_type  # noqa: F401  (perfbench/spans.py looks it up here)

MODE_SEMISIMPLE = "all-semisimple"
MODE_MIXED = "mixed"
MODE_CONJUGACY = "conjugacy-classes"
Mode = Literal["all-semisimple", "mixed", "conjugacy-classes"]


class IntegralityViolation(ArithmeticError):
    """A count that must be an integer polynomial failed exact division."""


class InvalidArity(Refusal, ValueError):
    """Tuple length outside the domain of the requested count."""


class DegreeViolation(AssertionError):
    """Computed degree fell below the proven lower bound."""


class MonicViolation(AssertionError):
    """Top-degree behaviour at k = 2 is pinned down and was violated."""


class WeightCache(dict):
    """The memo of the recursion: V_kind(level, r) at q, an ``IntPoly``, keyed by ``(kind, level, r)``.

    Shared use is benign: values are keyed deterministically, so a duplicated
    computation under concurrent access inserts the same value twice.
    """


# ---------------------------------------------------------------------------
# integer polynomial arithmetic for the recursion


def _strip(coeffs: list[int]) -> IntPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _compose(a: IntPoly, d: int) -> IntPoly:
    """Substitute q^d for q."""
    if d == 1 or len(a) <= 1:
        return a
    out = [0] * ((len(a) - 1) * d + 1)
    out[::d] = a
    return tuple(out)


def _times_qm_minus_1(p: list[int], m: int) -> list[int]:
    """p * (q^m - 1): one shift and one subtraction."""
    out = [0] * m + p
    for i, c in enumerate(p):
        out[i] -= c
    return out


def _over_qm_minus_1(p: list[int], m: int) -> list[int] | None:
    """p / (q^m - 1) in Z[q], or None when the division leaves a remainder.

    From p = Q * (q^m - 1), p_i = Q_{i-m} - Q_i, so Q_i = Q_{i-m} - p_i
    from the bottom up; the top m coefficients of p are what remains, and
    each must equal Q_{i-m}.
    """
    size = len(p) - m
    if size < 0:
        return None if any(p) else []
    quo = [-c for c in p[:size]]
    for i in range(m, size):
        quo[i] += quo[i - m]
    for i in range(size, len(p)):
        if p[i] != (quo[i - m] if i >= m else 0):
            return None
    return quo


def _certified_quotient(numerator: IntPoly, scale: int) -> IntPoly:
    """numerator / scale in Z[q], coefficient by coefficient; a remainder is an IntegralityViolation."""
    if any(c % scale for c in numerator):
        raise IntegralityViolation(f"{numerator} is not divisible by {scale} over the integers")
    return tuple(c // scale for c in numerator)


# ---------------------------------------------------------------------------
# Kronecker substitution: an integer polynomial as one integer, its value at
# X = 2^(8 * width) for a slot of ``width`` bytes.  A signed coefficient c
# with |c| < 2^(8 * width - 1) sits in its slot as c + 2^(8 * width - 1),
# so packing and unpacking are one pass of fixed-width bytes each.


def _pack(coeffs: IntPoly, width: int) -> int:
    """The value at X = 2^(8 * width); every |c| must be below 2^(8 * width - 1)."""
    half = 1 << (8 * width - 1)
    slots = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
    offset = half.to_bytes(width, "little") * len(coeffs)
    return int.from_bytes(slots, "little") - int.from_bytes(offset, "little")


def _unpack(value: int, width: int) -> list[int]:
    """The coefficients of the polynomial S with S(X) = ``value`` at X = 2^(8 * width); [0] for S = 0.

    Exact when every coefficient lies strictly between -X/2 and X/2.  Then
    the degree D is read off the bit length: the lower terms sum to less
    than X^D / 2 in absolute value, so X^D / 2 < |value| < X^(D+1) / 2 and
    ``value.bit_length() // (8 * width)`` is D.
    """
    half = 1 << (8 * width - 1)
    count = value.bit_length() // (8 * width) + 1
    value += int.from_bytes(half.to_bytes(width, "little") * count, "little")
    data = value.to_bytes(width * count, "little")
    return [int.from_bytes(data[i:i + width], "little") - half for i in range(0, width * count, width)]


# ---------------------------------------------------------------------------
# the recursion


@lru_cache(maxsize=None)
def _gl_order_int(n: int) -> IntPoly:
    """|GL_n(q)| = q^(n(n-1)/2) * prod (q^i - 1) for i <= n."""
    result = [1]
    for i in range(1, n + 1):
        result = _times_qm_minus_1(result, i)
    return (0,) * (n * (n - 1) // 2) + tuple(result)


@lru_cache(maxsize=None)
def gl_order(n: int) -> UnivariatePoly:
    """|GL_n(F_q)| as a polynomial in q: product of (q^n - q^j) for j < n."""
    if n < 1:
        raise ValueError("gl_order needs n >= 1")
    return UnivariatePoly(_gl_order_int(n))


@lru_cache(maxsize=None)
def _type_count_at_power(t: FactorizationType, m: int) -> UnivariatePoly:
    """N_t at q^m (perfbench/spans.py looks this name up)."""
    return count_monic_with_type(t).compose_monomial(m)


def _centralizer_index(r: int, pairs: tuple[tuple[int, int], ...]) -> IntPoly:
    """[GL_r : prod GL_s(F_{q^d})] over the (d, s) pairs of a type.

    Both orders are a power of q times factors q^m - 1:

        q^a prod_{i <= r} (q^i - 1)  /  q^b prod_{(d, s)} prod_{j <= s} (q^(d j) - 1)

    with a = r(r-1)/2 and b the sum of d s(s-1)/2.  The exponents m common
    to both sides cancel as multisets; each one left above is a shift and a
    subtraction, and each one left below an exact division by q^m - 1.
    """
    top = Counter(range(1, r + 1))
    bottom = Counter(d * j for d, s in pairs for j in range(1, s + 1))
    power = r * (r - 1) // 2 - sum(d * s * (s - 1) // 2 for d, s in pairs)
    index = [1]
    for m in (top - bottom).elements():
        index = _times_qm_minus_1(index, m)
    for m in (bottom - top).elements():
        index = _over_qm_minus_1(index, m)
        if index is None:
            break
    if index is None or power < 0:
        raise IntegralityViolation(f"|GL_{r}| is not divisible by the centralizer order of {pairs} over the integers")
    return (0,) * power + tuple(index)


@lru_cache(maxsize=None)
def _type_table(kind: str, r: int) -> tuple[int, tuple[tuple[IntPoly, int, tuple[tuple[int, int], ...]], ...]]:
    """The factors F(t) of every type of weight r, scaled by ``scale`` into Z[q].

    Returns ``(scale, rows)`` with one ``(scale * F(t), its L1 norm,
    type_pairs(t))`` row per type; ``scale`` is the lcm of the known
    denominators D_t of the N_t.
    """
    types = enumerate_types(r)
    counts = [scaled_type_count(t) for t in types]
    scale = math.lcm(*(denominator for _, denominator in counts))
    rows = []
    for t, (numerator, denominator) in zip(types, counts):
        pairs = type_pairs(t)
        factor = tuple(c * (scale // denominator) for c in numerator)
        if kind == "ss":
            factor = int_mul(factor, _centralizer_index(r, pairs))
        rows.append((factor, sum(map(abs, factor)), pairs))
    return scale, tuple(rows)


@lru_cache(maxsize=32)
def _packed_factors(kind: str, r: int, width: int) -> tuple[int, ...]:
    """The factors of ``_type_table(kind, r)`` packed at ``width`` bytes a slot.

    A level sum's width depends only on (kind, level, r), so a process that
    repeats counts, each with a fresh memo, packs each table once per level.
    The entry limit caps what a single large count leaves behind.
    """
    return tuple(_pack(factor, width) for factor, _, _ in _type_table(kind, r)[1])


def _weight(kind: str, level: int, r: int, cache: WeightCache) -> IntPoly:
    """V_kind(level, r) at q, memoized in ``cache``.

    Levels fill bottom-up, every block size s <= r below ``level`` (each is
    the size of some block of a type of weight r), so no call recurses once
    per level and the memo holds the same entries a top-down descent stores.
    """
    below: dict[int, IntPoly] = {}
    for lvl in range(level + 1):
        row: dict[int, IntPoly] = {}
        for s in range(1, r + 1) if lvl < level else (r,):
            key = (kind, lvl, s)
            value = cache.get(key)
            if value is None:
                value = _level_value(kind, lvl, s, below)
                cache[key] = value
            row[s] = value
        below = row
    return below[r]


def _level_value(kind: str, level: int, r: int, below: dict[int, IntPoly]) -> IntPoly:
    """V_kind(level, r) at q from the values ``below[s]`` = V_kind(level - 1, s).

    The scaled sum S = sum_t F(t) prod_{(d, s)} below[s](q^d) is computed at
    the single point X = 2^(8 * width) (Kronecker substitution): each factor
    is packed into one integer, the products and the sum are Python int
    arithmetic, and the coefficients of S are unpacked once.

    The slot width is sound because ||a b||_1 <= ||a||_1 ||b||_1 and
    substituting q^d keeps ||.||_1, so every coefficient of S is at most the
    L1 bound L = sum_t ||F(t)||_1 prod ||below[s]||_1 in absolute value.
    The slot holds at least bit_length(L) + 2 bits, so |c| <= L <
    2^(8 * width - 1) for every coefficient c of S and of each packed factor
    (a nonzero integer polynomial has norm at least 1, so each factor's own
    norm is at most L); the unpacking is then exact.
    """
    if level == 0:
        return (1,) if kind == "ss" else (0,) * (r - 1) + (-1, 1)
    scale, rows = _type_table(kind, r)
    norms = {s: sum(map(abs, value)) for s, value in below.items()}
    bound = 0
    for _, term, pairs in rows:
        for _, s in pairs:
            term *= norms[s]
        bound += term
    width = (bound.bit_length() + 2 + 7) // 8
    packed: dict[tuple[int, int], int] = {}
    total = 0
    for (_, _, pairs), term in zip(rows, _packed_factors(kind, r, width)):
        for pair in pairs:
            value = packed.get(pair)
            if value is None:
                d, s = pair
                value = packed[pair] = _pack(below[s], width * d)
            term *= value
        total += term
    return _certified_quotient(_strip(_unpack(total, width)), scale)


def _memo(cache: WeightCache | None) -> WeightCache:
    return WeightCache() if cache is None else cache


def _check_weight_args(name: str, level: int, r: int, m: int) -> None:
    if level < 0 or r < 1 or m < 1:
        raise ValueError(f"{name} needs level >= 0, r >= 1, m >= 1")


def ss_weight(level: int, r: int, m: int, cache: WeightCache | None = None) -> RationalFunction:
    """Block weight for all-semisimple commuting tuples: V_ss(level, r) / |GL_r|, at q^m.

    Level 0 is 1/|GL_r(q^m)|; the all-semisimple count of k-tuples is
    |GL_n(q)| * ss_weight(k, n, 1).
    """
    _check_weight_args("ss_weight", level, r, m)
    value = _weight("ss", level, r, _memo(cache))
    return RationalFunction(UnivariatePoly(_compose(value, m)), gl_order(r).compose_monomial(m))


def mixed_weight(level: int, r: int, m: int, cache: WeightCache | None = None) -> RationalFunction:
    """Block weight when the last matrix is merely invertible: V_mixed(level, r) at q^m.

    Level 0 counts the candidate characteristic polynomials of the free
    matrix on the block: (q^m - 1) * q^(m*(r-1)).
    """
    _check_weight_args("mixed_weight", level, r, m)
    return RationalFunction.from_poly(UnivariatePoly(_compose(_weight("mixed", level, r, _memo(cache)), m)))


@record
class CountingPolynomial:
    """An integer-coefficient count in q, tagged with what it counts."""

    poly: UnivariatePoly
    n: int
    k: int
    mode: Mode

    def __post_init__(self) -> None:
        if self.mode not in (MODE_SEMISIMPLE, MODE_MIXED, MODE_CONJUGACY):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.poly.is_integer():
            raise IntegralityViolation(f"non-integer coefficients in {self.poly}")

    def evaluate(self, q: int) -> int:
        value = 0
        for c in reversed(self.poly.coeffs):  # every coefficient is an int
            value = value * q + c
        return value


def count_semisimple_tuples(n: int, k: int, cache: WeightCache | None = None) -> CountingPolynomial:
    """Commuting k-tuples of semisimple elements of GL_n(F_q), as a polynomial.

    k = 0 counts the empty tuple: the constant polynomial 1.
    """
    if n < 1:
        raise InvalidArity("matrix size n must be >= 1")
    if k < 0:
        raise InvalidArity("tuple length k must be >= 0")
    if k == 0:
        return CountingPolynomial(UnivariatePoly.one(), n, 0, MODE_SEMISIMPLE)
    poly = _weight("ss", k, n, _memo(cache))
    return CountingPolynomial(UnivariatePoly(poly), n, k, MODE_SEMISIMPLE)


def count_mixed_tuples(n: int, k: int, cache: WeightCache | None = None) -> CountingPolynomial:
    """Commuting k-tuples with the first k-1 semisimple and the last free.

    Needs k >= 2: with no free slot the all-semisimple count applies instead.
    """
    if n < 1:
        raise InvalidArity("matrix size n must be >= 1")
    if k < 2:
        raise InvalidArity("mixed tuples need k >= 2")
    poly = int_mul(_gl_order_int(n), _weight("mixed", k - 2, n, _memo(cache)))
    return CountingPolynomial(UnivariatePoly(poly), n, k, MODE_MIXED)


def count_conjugacy_classes(n: int, k: int, cache: WeightCache | None = None) -> CountingPolynomial:
    """Simultaneous-conjugation classes of commuting semisimple k-tuples."""
    if n < 1:
        raise InvalidArity("matrix size n must be >= 1")
    if k < 1:
        raise InvalidArity("conjugacy classes need k >= 1")
    poly = _weight("mixed", k - 1, n, _memo(cache))
    return CountingPolynomial(UnivariatePoly(poly), n, k, MODE_CONJUGACY)


def hom_count(n: int, g: int, prank: int, cache: WeightCache | None = None) -> CountingPolynomial:
    """Representation count for a genus-g surface-like source of rank 2g.

    The source group is abelian of rank 2g; p-rank 0 forces every image
    matrix semisimple, p-rank 1 frees exactly one of the 2g generators.
    """
    if g < 1:
        raise InvalidArity("genus g must be >= 1")
    if prank == 0:
        return count_semisimple_tuples(n, 2 * g, cache)
    if prank == 1:
        return count_mixed_tuples(n, 2 * g, cache)
    raise InvalidArity("p-rank must be 0 or 1")


@record
class DegreeReport:
    """Outcome of the degree and leading-coefficient checks on a count."""

    n: int
    k: int
    degree: int
    bound: int
    bound_met: bool
    bound_enforced: bool
    monic_checked: bool
    is_monic: bool
    degree_exact: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "degree": self.degree,
            "bound": self.bound,
            "boundMet": self.bound_met,
            "boundEnforced": self.bound_enforced,
            "monicChecked": self.monic_checked,
            "isMonic": self.is_monic,
            "degreeExact": self.degree_exact,
        }


def check_degree_monic(cp: CountingPolynomial) -> DegreeReport:
    """Degree bound n^2 + (k-1)n and monic top behaviour at k = 2.

    The bound is asserted (raising DegreeViolation) for even k >= 2, where it
    is proven; for odd k and for k = 0 it is reported only.  At k = 2 the
    degree must equal the bound with leading coefficient 1, else
    MonicViolation.  Only all-semisimple counts are covered.
    """
    if cp.mode != MODE_SEMISIMPLE:
        raise ValueError("degree check applies to all-semisimple counts only")
    n, k = cp.n, cp.k
    bound = n * n + (k - 1) * n
    degree = int(cp.poly.degree)  # counts are never the zero polynomial
    bound_met = degree >= bound
    enforced = k >= 2 and k % 2 == 0
    if enforced and not bound_met:
        raise DegreeViolation(f"degree {degree} < bound {bound} at n={n}, k={k}")
    is_monic = cp.poly.is_monic()
    degree_exact = degree == bound
    if k == 2 and not (is_monic and degree_exact):
        raise MonicViolation(f"k=2 count must be monic of degree {bound}, got degree {degree}")
    # positional, in field order: a keyword call goes through record's slower argument binding
    return DegreeReport(n, k, degree, bound, bound_met, enforced, k == 2, is_monic, degree_exact)


def check_laurent_quotient(cp: CountingPolynomial) -> LaurentPoly:
    """The count divided by |GL_n(q)|, certified an integer Laurent polynomial.

    |GL_n(q)| is q^(n(n-1)/2) times prod (q^i - 1) for i <= n, so the
    quotient is an exact division by that monic product followed by a shift.
    Applies to all-semisimple and mixed counts.  A NotLaurent escape means
    the computed count was wrong, so it propagates.
    """
    if cp.mode not in (MODE_SEMISIMPLE, MODE_MIXED):
        raise ValueError("Laurent quotient applies to tuple counts, not class counts")
    quotient = list(cp.poly.coeffs)
    for m in range(1, cp.n + 1):
        quotient = _over_qm_minus_1(quotient, m)
        if quotient is None:
            raise NotLaurent(f"{cp.poly} is not divisible by prod (q^i - 1) for i <= {cp.n}")
    return LaurentPoly(-(cp.n * (cp.n - 1) // 2), quotient)
