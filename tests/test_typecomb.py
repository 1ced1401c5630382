"""Partitions, factorization types, and the monic polynomial counts."""

import json
from fractions import Fraction

import pytest

from monodromy import typecomb
from monodromy.exactpoly import NotDivisible, UnivariatePoly
from monodromy.typecomb import (
    FactorizationType,
    aut_factor,
    count_irreducibles,
    count_monic_with_type,
    count_monic_with_type_at,
    enumerate_partitions,
    enumerate_types,
    is_partition,
    multiplicities,
    scaled_type_count,
    total_monic_count,
    type_pairs,
)

Q = UnivariatePoly.variable()


def test_is_partition():
    assert is_partition(())
    assert is_partition((5, 3, 3, 1))
    assert not is_partition((1, 2))
    assert not is_partition((3, 0))
    assert not is_partition([3, 1])
    assert not is_partition((True,))


def test_enumerate_partitions_counts():
    # number of partitions of n for n = 0..10
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert len(enumerate_partitions(n)) == count


def test_enumerate_partitions_order():
    assert enumerate_partitions(4) == (
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )
    assert enumerate_partitions(0) == ((),)
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_multiplicities():
    assert multiplicities((3, 3, 3, 1, 1)) == ((3, 3), (1, 2))
    assert multiplicities(()) == ()


def test_type_validation():
    t = FactorizationType((2, 1, 1), ((2, (1,)), (1, (1, 1))))
    assert t.weight == 4
    # refinement must partition the multiplicity
    with pytest.raises(ValueError):
        FactorizationType((2, 1, 1), ((2, (1,)), (1, (3,))))
    # every distinct part needs a refinement, in descending order
    with pytest.raises(ValueError):
        FactorizationType((2, 1), ((1, (1,)), (2, (1,))))
    with pytest.raises(ValueError):
        FactorizationType((2, 1), ((2, (1,)),))


def test_type_label_and_json():
    t = FactorizationType((1, 1), ((1, (1, 1)),))
    assert t.label() == "(1 1 | 1:(1 1))"
    doc = json.loads(json.dumps(t.to_json()))
    assert doc == {"lambda": [1, 1], "refinements": {"1": [1, 1]}}


def test_enumerate_types_counts():
    assert len(enumerate_types(1)) == 1
    assert len(enumerate_types(2)) == 3
    assert len(enumerate_types(3)) == 5
    # weight 4: outer (4):1, (3 1):1, (2 2):2, (2 1 1):2, (1^4):5
    assert len(enumerate_types(4)) == 11
    assert all(t.weight == 4 for t in enumerate_types(4))


def test_type_pairs_flattening():
    t = FactorizationType((3, 3, 3, 3, 3, 1, 1), ((3, (2, 2, 1)), (1, (2,))))
    pairs = type_pairs(t)
    assert pairs == ((3, 2), (3, 2), (3, 1), (1, 2))
    assert sum(i * r for i, r in pairs) == t.weight == 17


def test_count_irreducibles():
    assert count_irreducibles(1) == Q
    assert count_irreducibles(1, exclude_zero_root=True) == Q - 1
    assert count_irreducibles(2) == (Q**2 - Q) * Fraction(1, 2)
    assert count_irreducibles(3) == (Q**3 - Q) * Fraction(1, 3)
    assert count_irreducibles(4) == (Q**4 - Q**2) * Fraction(1, 4)
    # degree >= 2 is unaffected by the nonzero-constant-term restriction
    assert count_irreducibles(2, exclude_zero_root=True) == count_irreducibles(2)
    # over F_2: 1 quadratic, 2 cubics, 3 quartics
    assert count_irreducibles(2).evaluate(2) == 1
    assert count_irreducibles(3).evaluate(2) == 2
    assert count_irreducibles(4).evaluate(2) == 3
    with pytest.raises(ValueError):
        count_irreducibles(0)


def test_aut_factor():
    assert aut_factor(()) == 1
    assert aut_factor((3,)) == 1
    assert aut_factor((1, 1, 1)) == 6
    assert aut_factor((2, 2, 1)) == 2
    with pytest.raises(ValueError):
        aut_factor((1, 2))


def test_count_monic_with_type_weight_two():
    by_label = {t.label(): count_monic_with_type(t) for t in enumerate_types(2)}
    assert by_label["(2 | 2:(1))"] == (Q**2 - Q) * Fraction(1, 2)
    assert by_label["(1 1 | 1:(2))"] == Q - 1
    assert by_label["(1 1 | 1:(1 1))"] == (Q - 1) * (Q - 2) * Fraction(1, 2)


def test_count_monic_with_type_weight_one():
    (t,) = enumerate_types(1)
    assert count_monic_with_type(t) == Q - 1


# Reference: the type count over Q as built before the integer form, with
# the irreducible counts taken from q^d = sum over e | d of e * I_e rather
# than from the Mobius sum.


def _reference_irreducibles(d):
    total = UnivariatePoly.monomial(1, d)
    for e in range(1, d):
        if d % e == 0:
            total = total - _reference_irreducibles(e) * e
    return total * Fraction(1, d)


def _reference_count_monic_with_type(t):
    result = UnivariatePoly.one()
    for value, ref in t.refinements:
        n_irr = _reference_irreducibles(value) - (1 if value == 1 else 0)
        falling = UnivariatePoly.one()
        for j in range(len(ref)):
            falling = falling * (n_irr - j)
        result = result * falling * Fraction(1, aut_factor(ref))
    return result


def test_scaled_type_count_matches_reference():
    for n in range(1, 11):
        for t in enumerate_types(n):
            numerator, denominator = scaled_type_count(t)
            assert all(isinstance(c, int) for c in numerator)
            expected = _reference_count_monic_with_type(t)
            assert UnivariatePoly(numerator) * Fraction(1, denominator) == expected, t.label()
            assert count_monic_with_type(t) == expected


def test_integer_type_count_matches_the_rational_polynomial():
    for n in range(1, 9):
        for t in enumerate_types(n):
            for q in (2, 3, 4, 5, 7, 8, 9, 1024):
                value = count_monic_with_type_at(t, q)
                assert type(value) is int
                assert value == count_monic_with_type(t).evaluate(q), (t.label(), q)


def test_integer_type_count_refuses_a_remainder(monkeypatch):
    t = FactorizationType((1, 1), ((1, (1, 1)),))
    numerator, denominator = scaled_type_count(t)
    monkeypatch.setattr(typecomb, "scaled_type_count", lambda t: (numerator, denominator * 7))
    with pytest.raises(NotDivisible, match="not an integer"):
        count_monic_with_type_at(t, 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_census_sums_to_total(n):
    total = UnivariatePoly.zero()
    for t in enumerate_types(n):
        total = total + count_monic_with_type(t)
    assert total == total_monic_count(n)


def test_total_monic_count():
    assert total_monic_count(1) == Q - 1
    assert total_monic_count(3) == (Q - 1) * Q**2
    with pytest.raises(ValueError):
        total_monic_count(0)
