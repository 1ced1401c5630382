"""Integer polynomials in q, and the Laurent polynomials that quotients print as.

Polynomials are dense ascending tuples of ``int`` coefficients, and the
formal variable is always printed as ``q``.  The zero polynomial is the
empty tuple, which makes equality and degree structural.  Everything here is
exact; no floating point is ever involved.  The type counts and the
engine's sums are plain ``IntPoly`` coefficient tuples, built from the
closed-point counts ``_point_numerator`` (with ``_mobius``, read off the
package's ``prime_factors``) and the one schoolbook product ``int_mul``;
``UnivariatePoly`` and ``LaurentPoly`` only hold, certify and print them.
A coefficient that is not an ``int`` is kept as given, so ``is_integer``
reports it and a count refuses it.

A count's coefficients go from construction to the printed bytes without a
conversion: ``to_json`` writes ``[c, 1]`` for an int in the signed 64-bit
range, and ``str`` prints an int below 640 digits with ``str()``.  An int
past either limit goes through ``decimal_str``, coefficient by coefficient.

Wire format, written and never read back: a polynomial serializes to
``{"var": "q", "coeffs": [[num, den], ...]}``, ascending by degree, with
every ``den`` 1; a Laurent polynomial adds a ``"minDegree"`` key.  Integers
outside the signed 64-bit range are written as decimal strings, so no JSON
reader rounds them.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import _STR_SAFE, _retired, decimal_str, prime_factors, record

#: Integer polynomial: ascending coefficients with no trailing zeros.
IntPoly = tuple[int, ...]

#: Degree of the zero polynomial.  Compares below every integer, so degree
#: bounds of the form ``p.degree >= b`` are safely false for the zero
#: polynomial; it is deliberately not -1.
NEG_INFINITY = float("-inf")

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1
_INT = frozenset({int})


class NotDivisible(ArithmeticError):
    """Exact division left a nonzero remainder."""


class NotLaurent(ArithmeticError):
    """The reduced denominator of a quotient is not a monomial."""


def _strip(coeffs) -> tuple:
    """``coeffs`` as a tuple without trailing zeros, dropped by one slice."""
    coeffs = tuple(coeffs)
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]  # the tuple itself when nothing is stripped


def _json_coeffs(coeffs: tuple) -> list:
    """``[c, 1]`` per coefficient, with ``c`` a decimal string outside the signed 64-bit range."""
    return [[c if _I64_MIN <= c <= _I64_MAX else decimal_str(c), 1] for c in coeffs]


@record
class UnivariatePoly:
    """Dense polynomial in q with integer coefficients.

    ``coeffs[d]`` is the coefficient of ``q**d``.  The stored tuple is
    stripped of trailing zeros, so two polynomials are equal exactly when
    their tuples are.
    """

    coeffs: IntPoly = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _strip(self.coeffs))

    @property
    def degree(self) -> int | float:
        """Degree, with ``NEG_INFINITY`` for the zero polynomial."""
        if not self.coeffs:
            return NEG_INFINITY
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integer(self) -> bool:
        """True when every coefficient is an ``int``."""
        return {*map(type, self.coeffs)} <= _INT

    def to_json(self) -> dict:
        return {"var": "q", "coeffs": _json_coeffs(self.coeffs)}

    def __str__(self) -> str:
        return _render_terms(self.coeffs, 0)


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


def _mobius(k: int) -> int:
    """mu(k): k is squarefree exactly when it is the product of its distinct primes."""
    ps = prime_factors(k)
    return (-1) ** len(ps) if math.prod(ps) == k else 0


@lru_cache(maxsize=None)
def _point_numerator(d: int, k: int) -> IntPoly:
    """d M_d(k), d times the closed points of degree d on G_m^k: sum over e | d of mu(d/e) (q^e - 1)^k.

    Each (q^e - 1)^k enters by its binomial expansion.  At k = 1 this is the
    irreducible numerator without the root zero, (q - 1) at d = 1.
    """
    coeffs = [0] * (d * k + 1)
    for e in range(1, d + 1):
        if d % e == 0:
            for i in range(k + 1):
                coeffs[e * i] += _mobius(d // e) * (-1) ** (k - i) * math.comb(k, i)
    return tuple(coeffs)


def _render_terms(coeffs: tuple, low: int) -> str:
    """Human form of ``coeffs`` ascending from degree ``low``, highest degree first, e.g. ``q^2 - q - 1 + q^-1``."""
    parts: list[str] = []
    deg = low + len(coeffs)
    for c in reversed(coeffs):
        deg -= 1
        if not c:
            continue
        if c < 0:
            sign, mag = "- ", -c
        else:
            sign, mag = "+ ", c
        # str() prints any int below 640 digits; longer ones go through decimal_str
        digits = "" if mag == 1 and deg else str(mag) if mag < _STR_SAFE else decimal_str(mag)
        parts.append(f"{sign}{digits}" if deg == 0 else f"{sign}{digits}q" if deg == 1 else f"{sign}{digits}q^{deg}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


@record
class LaurentPoly:
    """Polynomial in ``q`` and ``q**-1`` with integer coefficients, ascending from min_degree.

    Canonical form strips zeros from both ends, so ``min_degree`` always
    indexes a nonzero coefficient (the zero Laurent polynomial is
    ``min_degree 0`` with no coefficients).
    """

    min_degree: int
    coeffs: IntPoly = ()

    def __post_init__(self) -> None:
        cs = _strip(self.coeffs)
        start = 0
        while start < len(cs) and cs[start] == 0:
            start += 1
        object.__setattr__(self, "coeffs", cs[start:])
        object.__setattr__(self, "min_degree", self.min_degree + start if start < len(cs) else 0)

    def to_json(self) -> dict:
        return {"var": "q", "minDegree": self.min_degree, "coeffs": _json_coeffs(self.coeffs)}

    def __str__(self) -> str:
        return _render_terms(self.coeffs, self.min_degree)


# perfbench/spans.py wraps this name; it leaves with the next change to the benchmark
poly_gcd = _retired
