"""Rational-coefficient views of the counts, kept off every counting path.

Every count the CLI prints is an integer polynomial: ``engine`` and
``typecomb`` compute in Z[q] from the first step to the last.  This module
holds the views over Q that no count needs:

- ``RationalFunction``, kept reduced by ``poly_gcd``, and ``to_laurent``,
  which reduces a quotient before reading it as a Laurent polynomial;
- ``gl_order`` as a ``UnivariatePoly``, and the per-block weights
  ``ss_weight`` and ``mixed_weight`` at a field power q^m;
- the type counts over Q: ``count_irreducibles``,
  ``count_monic_with_type`` (the census predicts through the integer
  ``typecomb.count_monic_with_type_at`` instead) and ``total_monic_count``.

No CLI path imports this module, so no subcommand compiles it, and it may
import ``fractions`` at the top.  ``engine``, ``exactpoly`` and ``typecomb``
forward the seven of these names that perfbench/spans.py looks up there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import record
from .engine import WeightCache, _classes, _gl_order_int, _semisimple
from .exactpoly import IntPoly, LaurentPoly, NotDivisible, NotLaurent, Scalar, UnivariatePoly, _as_poly
from .typecomb import FactorizationType, _mobius, _point_numerator, scaled_type_count

# ---------------------------------------------------------------------------
# rational functions


def poly_gcd(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    if a.is_zero():
        return a
    return a * (Fraction(1) / a.leading())


@record
class RationalFunction:
    """Quotient of two polynomials, kept fully reduced.

    Canonical form: gcd(num, den) = 1, den monic, all rational content pushed
    into the numerator.  Equality is therefore structural.
    """

    num: UnivariatePoly
    den: UnivariatePoly

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading()
        if lead != 1:
            inv = Fraction(1) / lead
            num = num * inv
            den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_poly(cls, p: UnivariatePoly | Scalar) -> "RationalFunction":
        return cls(_as_poly(p), UnivariatePoly.one())

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(UnivariatePoly.zero(), UnivariatePoly.one())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(UnivariatePoly.one(), UnivariatePoly.one())

    def is_polynomial(self) -> bool:
        return self.den == UnivariatePoly.one()

    def as_poly(self) -> UnivariatePoly:
        if not self.is_polynomial():
            raise NotDivisible(f"{self} is not a polynomial")
        return self.num

    def __add__(self, other) -> "RationalFunction":
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def evaluate(self, x: Scalar) -> Fraction:
        den = self.den.evaluate(x)
        if den == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.evaluate(x) / den

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _as_ratfun(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (UnivariatePoly, int, Fraction)):
        return RationalFunction.from_poly(value)
    return NotImplemented


def to_laurent(a: UnivariatePoly, b: UnivariatePoly) -> LaurentPoly:
    """Quotient a/b as a Laurent polynomial.

    The fraction is reduced first; the result exists exactly when the reduced
    denominator is a monomial ``q**m``, and then equals the reduced numerator
    shifted down by m.  Raises NotLaurent otherwise.
    """
    rf = RationalFunction(a, b)
    den = rf.den
    if any(c != 0 for c in den.coeffs[:-1]):
        raise NotLaurent(f"reduced denominator {den} is not a monomial")
    shift = len(den.coeffs) - 1
    return LaurentPoly(-shift, rf.num.coeffs)


# ---------------------------------------------------------------------------
# the group order and the per-block weights


def _compose(a: IntPoly, d: int) -> IntPoly:
    """Substitute q^d for q."""
    if d == 1 or len(a) <= 1:
        return a
    out = [0] * ((len(a) - 1) * d + 1)
    out[::d] = a
    return tuple(out)


@lru_cache(maxsize=None)
def gl_order(n: int) -> UnivariatePoly:
    """|GL_n(F_q)| as a polynomial in q: product of (q^n - q^j) for j < n."""
    if n < 1:
        raise ValueError("gl_order needs n >= 1")
    return UnivariatePoly(_gl_order_int(n))


@lru_cache(maxsize=None)
def _type_count_at_power(t: FactorizationType, m: int) -> UnivariatePoly:
    """N_t at q^m (perfbench/spans.py looks this name up in ``engine``)."""
    return count_monic_with_type(t).compose_monomial(m)


def _check_weight_args(name: str, level: int, r: int, m: int) -> None:
    if level < 0 or r < 1 or m < 1:
        raise ValueError(f"{name} needs level >= 0, r >= 1, m >= 1")


def ss_weight(level: int, r: int, m: int, cache: WeightCache | None = None) -> RationalFunction:
    """Block weight for all-semisimple commuting tuples: ss(r, level) / |GL_r|, at q^m.

    Level 0 is 1/|GL_r(q^m)|; the all-semisimple count of k-tuples is
    |GL_n(q)| * ss_weight(k, n, 1).
    """
    _check_weight_args("ss_weight", level, r, m)
    return RationalFunction(UnivariatePoly(_compose(_semisimple(r, level), m)), gl_order(r).compose_monomial(m))


def mixed_weight(level: int, r: int, m: int, cache: WeightCache | None = None) -> RationalFunction:
    """Block weight when the last matrix is merely invertible: conj(r, level + 1) at q^m.

    Level 0 counts the candidate characteristic polynomials of the free
    matrix on the block: (q^m - 1) * q^(m*(r-1)).
    """
    _check_weight_args("mixed_weight", level, r, m)
    return RationalFunction.from_poly(UnivariatePoly(_compose(_classes(r, level + 1), m)))


# ---------------------------------------------------------------------------
# type counts over Q


def _irreducible_numerator(i: int) -> IntPoly:
    """i times the number of monic irreducible degree-i polynomials: sum over e | i of mu(i/e) q^e."""
    coeffs = [0] * (i + 1)
    for e in range(1, i + 1):
        if i % e == 0:
            coeffs[e] += _mobius(i // e)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def count_irreducibles(i: int, exclude_zero_root: bool = False) -> UnivariatePoly:
    """Number of monic irreducible degree-i polynomials over F_q, in q.

    The classic Mobius sum (1/i) * sum over k | i of mu(k) q^(i/k).  With
    ``exclude_zero_root`` the lone degree-1 irreducible with constant term
    zero is removed, leaving q - 1 at i = 1; irreducibles of degree >= 2
    always have nonzero constant term, so the flag changes nothing there.
    """
    if i < 1:
        raise ValueError("irreducible degree must be >= 1")
    numerator = _point_numerator(i, 1) if exclude_zero_root else _irreducible_numerator(i)
    return UnivariatePoly(tuple(Fraction(c, i) for c in numerator))


@lru_cache(maxsize=None)
def count_monic_with_type(t: FactorizationType) -> UnivariatePoly:
    """Monic polynomials over F_q with nonzero constant term of a given type."""
    numerator, denominator = scaled_type_count(t, 1)
    return UnivariatePoly(tuple(Fraction(c, denominator) for c in numerator))


def total_monic_count(n: int) -> UnivariatePoly:
    """(q - 1) q^(n-1): monic degree-n polynomials with nonzero constant term."""
    if n < 1:
        raise ValueError("needs n >= 1")
    q = UnivariatePoly.variable()
    return (q - 1) * UnivariatePoly.monomial(1, n - 1)
