"""Partitions, factorization types, and exact counts of monic polynomials.

A *factorization type* of weight n records how a monic degree-n polynomial
over a finite field factors, without naming the factors: an outer partition
of n lists the degrees of the irreducible factors with multiplicity, and for
each distinct degree i a refinement partition of that degree's multiplicity
records how many distinct degree-i factors occur and with which exponents.

``count_monic_with_type`` turns a type into an exact polynomial in q giving
the number of monic polynomials over F_q with nonzero constant term that
factor that way.  Summed over all types of weight n this recovers
(q - 1) q^(n-1), the number of monic degree-n polynomials with nonzero
constant term.  The count is built in Z[q] over a known denominator
(``scaled_type_count``), the form the engine sums; the rational polynomial
is that integer polynomial divided once.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import record
from .exactpoly import IntPoly, NotDivisible, UnivariatePoly, int_mul

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    """Weakly decreasing tuple of positive integers (empty allowed)."""
    if not isinstance(parts, tuple):
        return False
    if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographic: (n) first, (1,..,1) last."""
    if n < 0:
        raise ValueError("partitions need n >= 0")
    out: list[Partition] = []

    def descend(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            descend(remaining - part, part, prefix)
            prefix.pop()

    descend(n, n, [])
    return tuple(out)


def multiplicities(parts: Partition) -> tuple[tuple[int, int], ...]:
    """Distinct values of a partition with their counts, value descending."""
    return tuple((v, len(list(grp))) for v, grp in itertools.groupby(parts))


@record
class FactorizationType:
    """Outer partition plus one refinement partition per distinct part value.

    ``parts`` holds the degrees of the irreducible factors, descending with
    multiplicity.  ``refinements`` pairs each distinct degree with a partition
    of that degree's multiplicity in ``parts``, again degree-descending.
    """

    parts: Partition
    refinements: tuple[tuple[int, Partition], ...]

    def __post_init__(self) -> None:
        if not is_partition(self.parts):
            raise ValueError(f"outer parts {self.parts!r} is not a partition")
        mults = dict(multiplicities(self.parts))
        seen = [v for v, _ in self.refinements]
        if seen != sorted(mults, reverse=True):
            raise ValueError("refinements must cover exactly the distinct parts, descending")
        for value, ref in self.refinements:
            if not is_partition(ref) or sum(ref) != mults[value]:
                raise ValueError(
                    f"refinement {ref!r} for part {value} must partition its multiplicity {mults[value]}"
                )

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def label(self) -> str:
        """Compact human form, e.g. ``(1 1 | 1:(1 1))``."""
        outer = " ".join(str(p) for p in self.parts)
        refs = ", ".join(f"{v}:({' '.join(str(r) for r in ref)})" for v, ref in self.refinements)
        return f"({outer} | {refs})"

    def to_json(self) -> dict:
        return {
            "lambda": list(self.parts),
            "refinements": {str(v): list(ref) for v, ref in self.refinements},
        }


@lru_cache(maxsize=None)
def enumerate_types(n: int) -> tuple[FactorizationType, ...]:
    """All factorization types of weight n, deterministic order.

    Outer partitions come reverse-lexicographically; for a fixed outer
    partition the refinement of the largest part varies slowest.
    """
    if n < 0:
        raise ValueError("types need n >= 0")
    out: list[FactorizationType] = []
    for parts in enumerate_partitions(n):
        mults = multiplicities(parts)
        choices = [enumerate_partitions(m) for _, m in mults]
        for combo in itertools.product(*choices):
            refs = tuple((v, ref) for (v, _), ref in zip(mults, combo))
            out.append(FactorizationType(parts, refs))
    return tuple(out)


def type_pairs(t: FactorizationType) -> tuple[tuple[int, int], ...]:
    """Flatten a type to (degree, exponent) pairs, kept with multiplicity.

    Degrees descend; within one degree the refinement's parts descend.  The
    pairs satisfy ``sum(i * r) == weight``.  Example: outer (3 3 3 3 3 1 1)
    with refinements 3 -> (2 2 1) and 1 -> (2) flattens to
    ((3, 2), (3, 2), (3, 1), (1, 2)).
    """
    return tuple((v, r) for v, ref in t.refinements for r in ref)


def _mobius(k: int) -> int:
    if k < 1:
        raise ValueError("mobius needs k >= 1")
    result = 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            result = -result
        d += 1
    if k > 1:
        result = -result
    return result


def _irreducible_numerator(i: int, exclude_zero_root: bool) -> IntPoly:
    """i times the number of monic irreducible degree-i polynomials: sum over e | i of mu(i/e) q^e.

    Excluding the zero root subtracts the lone irreducible q, of degree 1.
    """
    coeffs = [0] * (i + 1)
    for e in range(1, i + 1):
        if i % e == 0:
            coeffs[e] += _mobius(i // e)
    if exclude_zero_root and i == 1:
        coeffs[0] -= 1
    return tuple(coeffs)


@lru_cache(maxsize=None)
def count_irreducibles(i: int, exclude_zero_root: bool = False) -> UnivariatePoly:
    """Number of monic irreducible degree-i polynomials over F_q, in q.

    The classic Mobius sum (1/i) * sum over k | i of mu(k) q^(i/k).  With
    ``exclude_zero_root`` the lone degree-1 irreducible with constant term
    zero is removed, leaving q - 1 at i = 1; irreducibles of degree >= 2
    always have nonzero constant term, so the flag changes nothing there.
    """
    from fractions import Fraction

    if i < 1:
        raise ValueError("irreducible degree must be >= 1")
    return UnivariatePoly(tuple(Fraction(c, i) for c in _irreducible_numerator(i, exclude_zero_root)))


def aut_factor(ref: Partition) -> int:
    """Product of factorials of the value multiplicities of a partition.

    This is the number of ways to permute equal parts, the symmetry that
    overcounts assignments of distinct irreducible factors to the parts.
    """
    if not is_partition(ref):
        raise ValueError(f"{ref!r} is not a partition")
    return math.prod(math.factorial(m) for _, m in multiplicities(ref))


@lru_cache(maxsize=None)
def scaled_type_count(t: FactorizationType) -> tuple[IntPoly, int]:
    """``(D_t * N_t, D_t)``: the type count N_t as an integer polynomial over a known denominator.

    For each distinct factor degree d, the L parts of its refinement pick
    the exponents of L distinct degree-d irreducibles: an ordered choice is
    the falling factorial of the irreducible count I_d, and permuting parts
    with equal exponent gives the same polynomial, hence the division by
    ``aut_factor``.  Scaling each factor by d puts it in Z[q]:
    d^L * prod_{j<L} (I_d - j) = prod_{j<L} (d I_d - j d), so
    D_t = prod over degrees of d^L * aut_factor(refinement).
    """
    numerator: IntPoly = (1,)
    denominator = 1
    for d, ref in t.refinements:
        base = _irreducible_numerator(d, exclude_zero_root=True)
        for j in range(len(ref)):
            numerator = int_mul(numerator, (base[0] - j * d,) + base[1:])
        denominator *= d ** len(ref) * aut_factor(ref)
    return numerator, denominator


@lru_cache(maxsize=None)
def count_monic_with_type(t: FactorizationType) -> UnivariatePoly:
    """Monic polynomials over F_q with nonzero constant term of a given type."""
    from fractions import Fraction

    numerator, denominator = scaled_type_count(t)
    return UnivariatePoly(tuple(Fraction(c, denominator) for c in numerator))


def count_monic_with_type_at(t: FactorizationType, q: int) -> int:
    """``count_monic_with_type(t)`` at the integer q, in ints alone.

    The numerator of ``scaled_type_count`` is evaluated at q and divided by
    D_t, which must leave no remainder: a remainder raises ``NotDivisible``.
    """
    numerator, denominator = scaled_type_count(t)
    value = 0
    for c in reversed(numerator):
        value = value * q + c
    count, remainder = divmod(value, denominator)
    if remainder:
        raise NotDivisible(f"the count of type {t.label()} at q = {q} is {value}/{denominator}, not an integer")
    return count


def total_monic_count(n: int) -> UnivariatePoly:
    """(q - 1) q^(n-1): monic degree-n polynomials with nonzero constant term."""
    if n < 1:
        raise ValueError("needs n >= 1")
    q = UnivariatePoly.variable()
    return (q - 1) * UnivariatePoly.monomial(1, n - 1)
