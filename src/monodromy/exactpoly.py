"""Exact arithmetic for univariate polynomials and rational functions over
the rationals, and the Laurent polynomials that quotients print as.

Polynomials are dense ascending coefficient tuples, and the formal variable
is always printed as ``q``.  Each coefficient is stored in one canonical
form: an integer value as an ``int``, any other rational as a
``fractions.Fraction``, so every count the engine returns holds plain ints.
``Fraction(3) == 3`` and both hash alike, so the form changes no equality
or hash.  The zero polynomial is the empty tuple, which makes equality and
degree structural.  Everything here is exact; no floating point is ever
involved.  The type counts and the engine's recursion stay in Z[q] instead,
as plain ``IntPoly`` coefficient tuples.  ``fractions`` is imported only
inside the functions that can make a non-integer, so a run that never
does (every ``poly``, ``verify`` and ``census`` request) never loads it,
nor the ``decimal`` and ``numbers`` modules it imports.

Wire format, written and never read back: a polynomial serializes to
``{"var": "q", "coeffs": [[num, den], ...]}``, ascending by degree; a Laurent
polynomial adds a ``"minDegree"`` key.  Integers outside the signed 64-bit
range are written as decimal strings, so no JSON reader rounds them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Union

from . import decimal_str, record

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]

#: Integer polynomial: ascending coefficients with no trailing zeros.
IntPoly = tuple[int, ...]

#: Degree of the zero polynomial.  Compares below every integer, so degree
#: bounds of the form ``p.degree >= b`` are safely false for the zero
#: polynomial; it is deliberately not -1.
NEG_INFINITY = float("-inf")

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class NotLaurent(ArithmeticError):
    """The reduced denominator of a quotient is not a monomial."""


def _encode_int(value: int) -> int | str:
    return value if _I64_MIN <= value <= _I64_MAX else decimal_str(value)


def _scalar(value) -> Scalar:
    """A coefficient that is not an int, as an int when it is integral and else as a Fraction."""
    from fractions import Fraction

    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _canonical(coeffs) -> list:
    cs = [c if type(c) is int else _scalar(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


@record
class UnivariatePoly:
    """Dense univariate polynomial over Q.

    ``coeffs[d]`` is the coefficient of ``q**d``.  The stored tuple is
    canonical: integral coefficients as ``int``, the rest as ``Fraction``,
    stripped of trailing zeros, so two polynomials are equal exactly when
    their tuples are.
    """

    coeffs: tuple[Scalar, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(_canonical(self.coeffs)))

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "UnivariatePoly":
        return cls(())

    @classmethod
    def one(cls) -> "UnivariatePoly":
        return cls((1,))

    @classmethod
    def variable(cls) -> "UnivariatePoly":
        """The polynomial ``q``."""
        return cls((0, 1))

    @classmethod
    def monomial(cls, coeff: Scalar, degree: int) -> "UnivariatePoly":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @classmethod
    def constant(cls, value: Scalar) -> "UnivariatePoly":
        return cls((value,))

    # ---- structure ----

    @property
    def degree(self) -> int | float:
        """Degree, with ``NEG_INFINITY`` for the zero polynomial."""
        if not self.coeffs:
            return NEG_INFINITY
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integer(self) -> bool:
        """True when every coefficient is an integer: in canonical form, an ``int``."""
        return all(type(c) is int for c in self.coeffs)

    # ---- arithmetic ----

    def __add__(self, other: "UnivariatePoly | Scalar") -> "UnivariatePoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UnivariatePoly(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UnivariatePoly | Scalar") -> "UnivariatePoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "UnivariatePoly | Scalar") -> "UnivariatePoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "UnivariatePoly | Scalar") -> "UnivariatePoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UnivariatePoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UnivariatePoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UnivariatePoly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = UnivariatePoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "UnivariatePoly") -> tuple["UnivariatePoly", "UnivariatePoly"]:
        from fractions import Fraction

        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo = [0] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = Fraction(other.coeffs[-1])  # so that two ints divide exactly, never as a float
        dlen = len(other.coeffs)
        while len(rem) >= dlen:
            factor = rem[-1] / dlead
            shift = len(rem) - dlen
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        return UnivariatePoly(tuple(quo)), UnivariatePoly(tuple(rem))

    def exact_div(self, other: "UnivariatePoly") -> "UnivariatePoly":
        """Exact quotient self/other; raises NotDivisible on a remainder."""
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise NotDivisible(f"{self} is not divisible by {other}")
        return quo

    def compose_monomial(self, m: int) -> "UnivariatePoly":
        """Substitute ``q**m`` for ``q``; requires m >= 1."""
        if m < 1:
            raise ValueError("monomial substitution requires m >= 1")
        if m == 1 or not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * m + 1)
        out[::m] = self.coeffs
        return UnivariatePoly(tuple(out))

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at a rational point, by Horner's rule.

        Horner runs on the coefficients scaled by the lcm L of their
        denominators, so at an int point every step is int arithmetic (L is 1
        for every count); the value is that sum over L.
        """
        from fractions import Fraction

        scale = math.lcm(*(c.denominator for c in self.coeffs))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c.numerator * (scale // c.denominator)
        return Fraction(acc, scale)

    # ---- serialization / display ----

    def to_json(self) -> dict:
        return {
            "var": "q",
            "coeffs": [[_encode_int(c.numerator), _encode_int(c.denominator)] for c in self.coeffs],
        }

    def __str__(self) -> str:
        return _render_terms(list(enumerate(self.coeffs)))


def int_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Product in Z[q] of two integer polynomials."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)  # the top coefficient is a product of nonzeros


def _as_poly(value) -> UnivariatePoly:
    from fractions import Fraction

    if isinstance(value, UnivariatePoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UnivariatePoly((value,))
    return NotImplemented


def _render_terms(terms: list[tuple[int, Scalar]]) -> str:
    """Human form, highest degree first, e.g. ``q^2 - q - 1 + q^-1``."""
    parts: list[str] = []
    for deg, c in sorted(terms, reverse=True):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if deg == 0:
            body = decimal_str(mag)
        else:
            var = "q" if deg == 1 else f"q^{deg}"
            body = var if mag == 1 else f"{decimal_str(mag)}{var}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    if not parts:
        return "0"
    return " ".join(parts)


def poly_gcd(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    from fractions import Fraction

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
        from fractions import Fraction

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
    from fractions import Fraction

    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (UnivariatePoly, int, Fraction)):
        return RationalFunction.from_poly(value)
    return NotImplemented


@record
class LaurentPoly:
    """Polynomial in ``q`` and ``q**-1``: coeffs ascending from min_degree.

    Canonical form strips zeros from both ends, so ``min_degree`` always
    indexes a nonzero coefficient (the zero Laurent polynomial is
    ``min_degree 0`` with no coefficients).
    """

    min_degree: int
    coeffs: tuple[Scalar, ...] = ()

    def __post_init__(self) -> None:
        cs = _canonical(self.coeffs)
        low = self.min_degree
        while cs and cs[0] == 0:
            cs.pop(0)
            low += 1
        if not cs:
            low = 0
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "min_degree", low)

    def is_integer(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def to_json(self) -> dict:
        return {
            "var": "q",
            "minDegree": self.min_degree,
            "coeffs": [[_encode_int(c.numerator), _encode_int(c.denominator)] for c in self.coeffs],
        }

    def __str__(self) -> str:
        return _render_terms([(self.min_degree + i, c) for i, c in enumerate(self.coeffs)])


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
