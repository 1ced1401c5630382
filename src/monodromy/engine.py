"""Exact counting of commuting matrix tuples in GL_n over finite fields.

The counts are polynomials in the field size q with integer coefficients,
each one sum over the factorization types t of weight n, with no recursion
over the tuple length.

A commuting k-tuple of semisimple elements of GL_n(F_q) is a semisimple
module of dimension n over the group algebra of Z^k, that is, over the
torus G_m^k.  It splits over the closed points of the torus: a point of
degree d taken with multiplicity s is a block on which the tuple acts by
scalars of F_{q^d}.  A type t records the (d, s) pairs of such a module,
the module's stabilizer is C_t = prod GL_s(F_{q^d}), and the torus has

    d M_d(k) = sum over e | d of mu(d/e) (q^e - 1)^k

closed points of degree d, times d.  With N_t^(k) the number of ways to
choose distinct points for the pairs of t (``typecomb.scaled_type_count``):

- all-semisimple k-tuples:  ss(n, k) = sum over t of [GL_n : C_t] N_t^(k);
- simultaneous-conjugation classes of them:  conj(n, k) = sum over t of N_t^(k);
- k-tuples whose last matrix is free:  mixed(n, k) = |GL_n| conj(n, k - 1).

The index [GL_n : C_t] = |GL_n(q)| / prod |GL_s(q^d)| is a polynomial with
integer coefficients, because the divisor is monic.

Integrality is certified in each sum.  Each N_t^(k) comes as an integer
polynomial D_t N_t^(k) over a known denominator D_t, so the sum is
accumulated with every term scaled by the lcm of the D_t and divided back
exactly, coefficient by coefficient (``_certified_quotient``).  The
centralizer index is |GL_n| over the centralizer order, both a power of q
times factors q^m - 1, divided one factor at a time.  Either division
leaving a remainder raises IntegralityViolation instead of rounding, since
it would mean the type combinatorics is wrong.  Results become
``UnivariatePoly`` only at the ``CountingPolynomial`` boundary, which checks
once more that every coefficient is an int.

The rational views of the same values (``gl_order`` as a polynomial, and
``ss_weight``/``mixed_weight``, the older per-block weights as rational
functions at a field power q^m) live in ``monodromy.rational``, which no
count and no CLI path imports.  Five names stay reachable here through a
PEP 562 ``__getattr__`` that forwards to it, only because perfbench/spans.py
wraps them in this module: ``ss_weight``, ``mixed_weight``, ``to_laurent``,
``_type_count_at_power`` and ``count_monic_with_type``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Literal

from . import Refusal, record
from .exactpoly import IntPoly, LaurentPoly, NotLaurent, UnivariatePoly, int_mul
from .typecomb import enumerate_types, scaled_type_count, type_pairs

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
    """Unused: the counts keep no memo.

    This class and the trailing ``cache`` parameter of every count stay
    accepted only because perfbench/child.py passes a WeightCache to each count.
    """


# ---------------------------------------------------------------------------
# integer polynomial arithmetic


def _strip(coeffs: list[int]) -> IntPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


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
# the sums over types


@lru_cache(maxsize=None)
def _gl_order_int(n: int) -> IntPoly:
    """|GL_n(q)| = q^(n(n-1)/2) * prod (q^i - 1) for i <= n."""
    result = [1]
    for i in range(1, n + 1):
        result = _times_qm_minus_1(result, i)
    return (0,) * (n * (n - 1) // 2) + tuple(result)


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
def _centralizer_indices(n: int) -> tuple[IntPoly, ...]:
    """[GL_n : C_t] for every type t of weight n, in ``enumerate_types`` order."""
    return tuple(_centralizer_index(n, type_pairs(t)) for t in enumerate_types(n))


def _type_sum(n: int, k: int, indexed: bool) -> IntPoly:
    """sum over types t of weight n of N_t^(k), times [GL_n : C_t] when ``indexed``.

    Every term is scaled into Z[q] by the lcm of the denominators D_t, and
    the sum is divided back once.
    """
    counts = [scaled_type_count(t, k) for t in enumerate_types(n)]
    scale = math.lcm(*(denominator for _, denominator in counts))
    indices = _centralizer_indices(n) if indexed else [(1,)] * len(counts)
    total = [0] * (max(map(len, indices)) + max(len(numerator) for numerator, _ in counts) - 1)
    for (numerator, denominator), index in zip(counts, indices):
        factor = scale // denominator
        for i, c in enumerate(int_mul(index, numerator)):
            total[i] += factor * c
    return _certified_quotient(_strip(total), scale)


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
    poly = _type_sum(n, k, indexed=True)
    return CountingPolynomial(UnivariatePoly(poly), n, k, MODE_SEMISIMPLE)


def count_mixed_tuples(n: int, k: int, cache: WeightCache | None = None) -> CountingPolynomial:
    """Commuting k-tuples with the first k-1 semisimple and the last free.

    Needs k >= 2: with no free slot the all-semisimple count applies instead.
    """
    if n < 1:
        raise InvalidArity("matrix size n must be >= 1")
    if k < 2:
        raise InvalidArity("mixed tuples need k >= 2")
    poly = int_mul(_gl_order_int(n), _type_sum(n, k - 1, indexed=False))
    return CountingPolynomial(UnivariatePoly(poly), n, k, MODE_MIXED)


def count_conjugacy_classes(n: int, k: int, cache: WeightCache | None = None) -> CountingPolynomial:
    """Simultaneous-conjugation classes of commuting semisimple k-tuples."""
    if n < 1:
        raise InvalidArity("matrix size n must be >= 1")
    if k < 1:
        raise InvalidArity("conjugacy classes need k >= 1")
    poly = _type_sum(n, k, indexed=False)
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


# perfbench/spans.py wraps these names here, though they moved to ``rational``;
# this hook leaves with the next change to the benchmark (ROADMAP direction 1)
_FORWARDED = frozenset({"ss_weight", "mixed_weight", "to_laurent", "_type_count_at_power", "count_monic_with_type"})


def __getattr__(name: str):
    if name in _FORWARDED:
        from . import rational

        return getattr(rational, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
