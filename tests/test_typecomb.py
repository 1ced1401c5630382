"""Partitions, factorization types, and the monic polynomial counts."""

import json
from fractions import Fraction

import pytest

from monodromy import typecomb
from monodromy.exactpoly import NotDivisible, _point_numerator, int_mul
from monodromy.typecomb import (
    FactorizationType,
    aut_factor,
    count_monic_with_type_at,
    enumerate_partitions,
    enumerate_types,
    is_partition,
    multiplicities,
    scaled_type_count,
    type_pairs,
)


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


def _at(coeffs, q):
    value = 0
    for c in reversed(coeffs):
        value = value * q + c
    return value


def test_count_irreducibles():
    # at k = 1, d M_d(1) is d times the monic irreducibles of degree d with nonzero constant term
    assert _point_numerator(1, 1) == (-1, 1)
    assert _point_numerator(2, 1) == (0, -1, 1)
    assert _point_numerator(3, 1) == (0, -1, 0, 1)
    assert _point_numerator(4, 1) == (0, 0, -1, 0, 1)
    # over F_2: 1 linear (q), 1 quadratic, 2 cubics, 3 quartics, 6 quintics
    assert [_at(_point_numerator(d, 1), 2) // d for d in range(1, 6)] == [1, 1, 2, 3, 6]
    for d in range(1, 9):
        for q in (2, 3, 4, 5):
            assert _at(_point_numerator(d, 1), q) % d == 0, (d, q)


def test_aut_factor():
    assert aut_factor(()) == 1
    assert aut_factor((3,)) == 1
    assert aut_factor((1, 1, 1)) == 6
    assert aut_factor((2, 2, 1)) == 2
    with pytest.raises(ValueError):
        aut_factor((1, 2))


def test_count_monic_with_type_weight_two():
    for q in (2, 3, 4, 5, 7, 1024):
        by_label = {t.label(): count_monic_with_type_at(t, q) for t in enumerate_types(2)}
        assert by_label["(2 | 2:(1))"] == (q * q - q) // 2
        assert by_label["(1 1 | 1:(2))"] == q - 1
        assert by_label["(1 1 | 1:(1 1))"] == (q - 1) * (q - 2) // 2


def test_count_monic_with_type_weight_one():
    (t,) = enumerate_types(1)
    assert [count_monic_with_type_at(t, q) for q in (2, 3, 4, 9)] == [1, 2, 3, 8]


# Reference: the type count as built before the integer form, evaluated at
# an integer q in Fraction arithmetic, with the irreducible counts taken
# from q^d = sum over e | d of e * I_e rather than from the Mobius sum.


def _reference_irreducibles(d, q):
    total = Fraction(q**d)
    for e in range(1, d):
        if d % e == 0:
            total -= _reference_irreducibles(e, q) * e
    return total / d


def _reference_count_monic_with_type(t, q):
    result = Fraction(1)
    for value, ref in t.refinements:
        n_irr = _reference_irreducibles(value, q) - (1 if value == 1 else 0)
        for j in range(len(ref)):
            result *= n_irr - j
        result /= aut_factor(ref)
    return result


def test_scaled_type_count_matches_reference():
    # N_t has degree at most n, so its values at the n + 1 points q = 0..n pin it as a polynomial
    for n in range(1, 11):
        for t in enumerate_types(n):
            numerator, denominator = scaled_type_count(t, 1)
            assert all(isinstance(c, int) for c in numerator)
            assert len(numerator) <= n + 1
            for q in range(n + 1):
                assert Fraction(_at(numerator, q), denominator) == _reference_count_monic_with_type(t, q), t.label()


def test_closed_points_of_the_torus_add_up_to_its_rational_points():
    # a type with one part d and refinement (1) is one closed point of degree d, so its
    # scaled count is d M_d(k), and the points of degree d | m are the F_{q^m}-points of G_m^k
    for m in range(1, 9):
        for k in range(7):
            total = [0] * (m * k + 1)
            for d in range(1, m + 1):
                if m % d == 0:
                    numerator, denominator = scaled_type_count(FactorizationType((d,), ((d, (1,)),)), k)
                    assert denominator == d
                    for i, c in enumerate(numerator):
                        total[i] += c
            power = (1,)
            for _ in range(k):
                power = int_mul(power, (-1,) + (0,) * (m - 1) + (1,))
            assert tuple(total) == power, (m, k)


def test_integer_type_count_matches_the_rational_polynomial():
    for n in range(1, 9):
        for t in enumerate_types(n):
            for q in (2, 3, 4, 5, 7, 8, 9, 1024):
                value = count_monic_with_type_at(t, q)
                assert type(value) is int
                assert value == _reference_count_monic_with_type(t, q), (t.label(), q)


def test_integer_type_count_refuses_a_remainder(monkeypatch):
    t = FactorizationType((1, 1), ((1, (1, 1)),))
    numerator, denominator = scaled_type_count(t, 1)
    monkeypatch.setattr(typecomb, "scaled_type_count", lambda t, k: (numerator, denominator * 7))
    with pytest.raises(NotDivisible, match="not an integer"):
        count_monic_with_type_at(t, 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_census_sums_to_total(n):
    # the type totals are (q - 1) q^(n - 1) at n + 1 points, so as polynomials of degree n
    for q in range(2, n + 3):
        assert sum(count_monic_with_type_at(t, q) for t in enumerate_types(n)) == (q - 1) * q ** (n - 1), q
