"""Exact counting of commuting matrix tuples in GL_n over finite fields.

The counts are polynomials in the field size q with integer coefficients,
each one recurrence over n in Z[q], with no recursion over the tuple length.

A commuting k-tuple of semisimple elements of GL_n(F_q) is a semisimple
module of dimension n over the torus G_m^k.  It splits over the torus's
closed points, of which there are M_d(k) of degree d, with d M_d(k) = sum
over e | d of mu(d/e) (q^e - 1)^k (``exactpoly._point_numerator``); a point
of degree d carries a block GL_s(F_{q^d}).  With G_m(x) = |GL_m(F_x)| and
F(x; u) = sum over s of u^s / G_s(x), the generating functions are

    sum over n of ss(n, k) u^n / G_n(q) = prod over d of F(q^d; u^d)^M_d(k),
    sum over n of conj(n, k) u^n = prod over d of (1 - u^d)^-M_d(k),

and u d/du of their logarithms (Newton's identities) gives one recurrence
per count, every term in Z[q]:

- n conj(n, k) = sum over j <= n of (q^j - 1)^k conj(n - j, k), since the
  d M_d(k) over d | j add up to (q^j - 1)^k;
- n ss(n, k) = sum over j <= n of P_j L(j, n - j) ss(n - j, k), with the
  Levi index L(a, b) = G_{a+b} / (G_a G_b) = q^(ab) [a+b choose a]_q,
  Lambda_m = m - sum over i < m of Lambda_i L(i, m - i) (G_m times
  m [u^m] log F), and P_j = sum over d | j of d M_d(k) Lambda_{j/d}(q^d)
  [GL_j(q) : GL_{j/d}(q^d)];
- mixed(n, k) = |GL_n| conj(n, k - 1): k-tuples whose last matrix is free.

Integrality is certified at every step: each sum must divide by n exactly,
coefficient by coefficient (``_certified_quotient``), and the Levi index
divides out each factor q^m - 1 exactly.  A remainder raises
IntegralityViolation instead of rounding, since it would mean a wrong term.
``CountingPolynomial`` checks once more that every coefficient is an int.

ss(m, k) and conj(m, k) are kept per k, in lists filled bottom-up over m,
because counts at one k share every lower n: after ss(5, 3), ss(m, 3) for
m <= 5 is a lookup, and mixed(n, k) reuses the conj list at k - 1, times
the factors of |GL_n(q)| one by one.  These memos (``_SEMISIMPLE``,
``_CLASSES``, and the ``lru_cache`` tables of the Levi and descent indices,
Lambda_m, P_j and the torus points) live as long as the process and grow
with each distinct k and n it counts; nothing evicts them, and the
``cache`` argument of every count is ignored.

The rational views of these values (``gl_order``, and the per-block
weights ``ss_weight``/``mixed_weight`` at a field power q^m) live in
``monodromy.rational``, which no count and no CLI path imports.  A PEP 562
``__getattr__`` forwards six names that perfbench/spans.py wraps in this
module: ``ss_weight``, ``mixed_weight``, ``to_laurent``,
``_type_count_at_power`` and ``count_monic_with_type`` from ``rational``,
``enumerate_types`` from ``typecomb``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Literal

from . import Refusal, record
from .exactpoly import IntPoly, LaurentPoly, NotLaurent, UnivariatePoly, _point_numerator, int_mul

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
    """Unused: the counts keep their memo in this module, per k.

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
# the recurrences


def _sum(polys) -> IntPoly:
    return _strip([sum(column) for column in itertools.zip_longest(*polys, fillvalue=0)])


def _times_gl_order(p: IntPoly, n: int) -> IntPoly:
    """p * |GL_n(q)|, with |GL_n(q)| = q^(n(n-1)/2) * prod (q^i - 1) for i <= n: one multiplication per factor."""
    result = list(p)
    for i in range(1, n + 1):
        result = _times_qm_minus_1(result, i)
    return (0,) * (n * (n - 1) // 2) + tuple(result)


@lru_cache(maxsize=None)
def _levi_index(a: int, b: int) -> IntPoly:
    """L(a, b) = |GL_{a+b}| / (|GL_a| |GL_b|): the factors q^m - 1 above max(a, b) over those up to min(a, b)."""
    small, large = sorted((a, b))
    index = [1]
    for m in range(large + 1, a + b + 1):
        index = _times_qm_minus_1(index, m)
    for m in range(1, small + 1):
        index = _over_qm_minus_1(index, m)
        if index is None:
            raise IntegralityViolation(f"|GL_{a + b}| is not divisible by |GL_{a}| |GL_{b}| over the integers")
    return (0,) * (a * b) + tuple(index)


@lru_cache(maxsize=None)
def _descent_index(j: int, d: int) -> IntPoly:
    """[GL_j(q) : GL_{j/d}(q^d)]: the factors q^m - 1 of |GL_j(q)| with d not dividing m, and a power of q."""
    index = [1]
    for m in range(1, j + 1):
        if m % d:
            index = _times_qm_minus_1(index, m)
    e = j // d
    return (0,) * (j * (j - 1) // 2 - d * e * (e - 1) // 2) + tuple(index)


@lru_cache(maxsize=None)
def _lambda(m: int) -> IntPoly:
    """Lambda_m = m - sum over i < m of Lambda_i L(i, m - i)."""
    return _sum([(m,)] + [tuple(-c for c in int_mul(_lambda(i), _levi_index(i, m - i))) for i in range(1, m)])


@lru_cache(maxsize=None)
def _point_sum(j: int, k: int) -> IntPoly:
    """P_j = sum over d | j of d M_d(k) Lambda_{j/d}(q^d) [GL_j(q) : GL_{j/d}(q^d)]."""
    terms = []
    for d in range(1, j + 1):
        if j % d == 0:
            spread = [0] * (d * (len(_lambda(j // d)) - 1) + 1)
            spread[::d] = _lambda(j // d)
            terms.append(int_mul(_point_numerator(d, k), int_mul(tuple(spread), _descent_index(j, d))))
    return _sum(terms)


@lru_cache(maxsize=None)
def _torus_points(j: int, k: int) -> IntPoly:
    """(q^j - 1)^k, the F_{q^j}-points of G_m^k: (q - 1)^k, which is M_1(k), at q^j."""
    coeffs = [0] * (j * k + 1)
    coeffs[::j] = _point_numerator(1, k)
    return tuple(coeffs)


# ss(m, k) and conj(m, k) for m = 0, 1, 2, ...: one list per k, extended bottom-up
_SEMISIMPLE: dict[int, list[IntPoly]] = {}
_CLASSES: dict[int, list[IntPoly]] = {}


def _recurrence(memo: dict[int, list[IntPoly]], term, n: int, k: int) -> IntPoly:
    """memo[k][m] = (1/m) sum over j <= m of term(j, m, k) memo[k][m - j] for every m <= n, each division certified."""
    values = memo.setdefault(k, [(1,)])
    for m in range(len(values), n + 1):
        values.append(_certified_quotient(_sum([int_mul(term(j, m, k), values[m - j]) for j in range(1, m + 1)]), m))
    return values[n]


def _semisimple(n: int, k: int) -> IntPoly:
    return _recurrence(_SEMISIMPLE, lambda j, m, k: int_mul(_point_sum(j, k), _levi_index(j, m - j)), n, k)


def _classes(n: int, k: int) -> IntPoly:
    return _recurrence(_CLASSES, lambda j, m, k: _torus_points(j, k), n, k)


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
    return CountingPolynomial(UnivariatePoly(_semisimple(n, k)), n, k, MODE_SEMISIMPLE)


def count_mixed_tuples(n: int, k: int, cache: WeightCache | None = None) -> CountingPolynomial:
    """Commuting k-tuples with the first k-1 semisimple and the last free.

    Needs k >= 2: with no free slot the all-semisimple count applies instead.
    """
    if n < 1:
        raise InvalidArity("matrix size n must be >= 1")
    if k < 2:
        raise InvalidArity("mixed tuples need k >= 2")
    return CountingPolynomial(UnivariatePoly(_times_gl_order(_classes(n, k - 1), n)), n, k, MODE_MIXED)


def count_conjugacy_classes(n: int, k: int, cache: WeightCache | None = None) -> CountingPolynomial:
    """Simultaneous-conjugation classes of commuting semisimple k-tuples."""
    if n < 1:
        raise InvalidArity("matrix size n must be >= 1")
    if k < 1:
        raise InvalidArity("conjugacy classes need k >= 1")
    return CountingPolynomial(UnivariatePoly(_classes(n, k)), n, k, MODE_CONJUGACY)


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
    Each q^i - 1 is prime to q, so only the coefficients from the count's
    lowest nonzero one up are divided, and q^low joins the shift.  Applies
    to all-semisimple and mixed counts.  A NotLaurent escape means the
    computed count was wrong, so it propagates.
    """
    if cp.mode not in (MODE_SEMISIMPLE, MODE_MIXED):
        raise ValueError("Laurent quotient applies to tuple counts, not class counts")
    coeffs = cp.poly.coeffs
    low = 0
    while low < len(coeffs) and not coeffs[low]:
        low += 1
    quotient = list(coeffs[low:])
    for m in range(1, cp.n + 1):
        quotient = _over_qm_minus_1(quotient, m)
        if quotient is None:
            raise NotLaurent(f"{cp.poly} is not divisible by prod (q^i - 1) for i <= {cp.n}")
    return LaurentPoly(low - cp.n * (cp.n - 1) // 2, quotient)


# perfbench/spans.py wraps these names here, though they moved to ``rational``, and
# ``enumerate_types`` of ``typecomb``; this hook leaves with the next change to the
# benchmark (ROADMAP direction 1)
_FORWARDED = frozenset({"ss_weight", "mixed_weight", "to_laurent", "_type_count_at_power", "count_monic_with_type"})


def __getattr__(name: str):
    if name == "enumerate_types":
        from .typecomb import enumerate_types

        return enumerate_types
    if name in _FORWARDED:
        from . import rational

        return getattr(rational, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
