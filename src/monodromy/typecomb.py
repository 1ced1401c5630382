"""Partitions, factorization types, and exact counts of monic polynomials.

A *factorization type* of weight n records how a monic degree-n polynomial
over a finite field factors, without naming the factors: an outer partition
of n lists the degrees of the irreducible factors with multiplicity, and for
each distinct degree i a refinement partition of that degree's multiplicity
records how many distinct degree-i factors occur and with which exponents.

The same combinatorics counts configurations of closed points.  The torus
G_m^k over F_q has d M_d(k) = sum over e | d of mu(d/e) (q^e - 1)^k
closed points of degree d, times d (``exactpoly._point_numerator``, which
the engine imports from there, so no count loads this module); at k = 1
these are the monic irreducibles of degree d with nonzero constant term.  A type then describes a choice of distinct
points, one per part of each refinement, taken with that part as
multiplicity, and ``scaled_type_count(t, k)`` counts those choices in Z[q]
over a known denominator.

At k = 1 a type count is the number of monic polynomials over F_q with
nonzero constant term that factor as type t; summed over all types of
weight n it recovers (q - 1) q^(n-1), the number of monic degree-n
polynomials with nonzero constant term.  The census evaluates it at an
integer q with ``count_monic_with_type_at``, in ints alone.

The same counts as polynomials over Q (``count_irreducibles``,
``count_monic_with_type``, ``total_monic_count``) live in
``monodromy.rational``, which no CLI path imports.  ``count_monic_with_type``
is still forwarded from here (PEP 562 ``__getattr__``), because
perfbench/spans.py looks it up in this module.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import record
from .exactpoly import IntPoly, NotDivisible, _point_numerator, int_mul

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


def aut_factor(ref: Partition) -> int:
    """Product of factorials of the value multiplicities of a partition.

    This is the number of ways to permute equal parts, the symmetry that
    overcounts assignments of distinct irreducible factors to the parts.
    """
    if not is_partition(ref):
        raise ValueError(f"{ref!r} is not a partition")
    return math.prod(math.factorial(m) for _, m in multiplicities(ref))


@lru_cache(maxsize=None)
def scaled_type_count(t: FactorizationType, k: int) -> tuple[IntPoly, int]:
    """``(D_t * N_t, D_t)``: N_t^(k) as an integer polynomial over a known denominator.

    N_t^(k) counts the ways to pick, for each distinct degree d of t, one
    distinct degree-d closed point of G_m^k per part of the refinement: an
    ordered choice is the falling factorial of M_d(k), and permuting parts
    with equal multiplicity gives the same choice, hence the division by
    ``aut_factor``.  Scaling each factor by d puts it in Z[q]:
    d^L * prod_{j<L} (M_d - j) = prod_{j<L} (d M_d - j d), so
    D_t = prod over degrees of d^L * aut_factor(refinement).  At k = 1,
    N_t is the number of monic polynomials with nonzero constant term of
    type t.
    """
    numerator: IntPoly = (1,)
    denominator = 1
    for d, ref in t.refinements:
        base = _point_numerator(d, k)
        for j in range(len(ref)):
            numerator = int_mul(numerator, (base[0] - j * d,) + base[1:])
        denominator *= d ** len(ref) * aut_factor(ref)
    return numerator, denominator


def count_monic_with_type_at(t: FactorizationType, q: int) -> int:
    """The count of monic polynomials with nonzero constant term of type t, at the integer q.

    The numerator of ``scaled_type_count`` is evaluated at q and divided by
    D_t, which must leave no remainder: a remainder raises ``NotDivisible``.
    """
    numerator, denominator = scaled_type_count(t, 1)
    value = 0
    for c in reversed(numerator):
        value = value * q + c
    count, remainder = divmod(value, denominator)
    if remainder:
        raise NotDivisible(f"the count of type {t.label()} at q = {q} is {value}/{denominator}, not an integer")
    return count


def __getattr__(name: str):
    # perfbench/spans.py wraps typecomb.count_monic_with_type, which moved to ``rational``;
    # this hook leaves with the next change to the benchmark (ROADMAP direction 1)
    if name == "count_monic_with_type":
        from . import rational

        return rational.count_monic_with_type
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
