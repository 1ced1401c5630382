"""The exact counting engine: weights, counts, and structural checks."""

import functools
import json
import math
from fractions import Fraction

import pytest

from monodromy import engine
from monodromy.engine import (
    MODE_CONJUGACY,
    MODE_MIXED,
    MODE_SEMISIMPLE,
    CountingPolynomial,
    DegreeViolation,
    IntegralityViolation,
    InvalidArity,
    WeightCache,
    check_degree_monic,
    check_laurent_quotient,
    count_conjugacy_classes,
    count_mixed_tuples,
    count_semisimple_tuples,
    gl_order,
    hom_count,
    mixed_weight,
    ss_weight,
)
from monodromy.exactpoly import LaurentPoly, NotLaurent, RationalFunction, UnivariatePoly, int_mul
from monodromy.typecomb import count_monic_with_type, enumerate_types, type_pairs

Q = UnivariatePoly.variable()


def ascending(*coeffs):
    return UnivariatePoly(tuple(Fraction(c) for c in coeffs))


def test_gl_order():
    assert gl_order(1) == Q - 1
    assert gl_order(2) == ascending(0, 1, -1, -1, 1)
    assert gl_order(3) == ascending(0, 0, 0, -1, 1, 1, 0, -1, -1, 1)
    assert gl_order(2).evaluate(2) == 6
    assert gl_order(2).evaluate(3) == 48
    assert gl_order(3).evaluate(2) == 168
    with pytest.raises(ValueError):
        gl_order(0)


def test_ss_weight_leaves():
    w = ss_weight(0, 2, 1)
    assert w == RationalFunction(UnivariatePoly.one(), gl_order(2))
    # leaf at field power m substitutes q^m
    w3 = ss_weight(0, 1, 3)
    assert w3 == RationalFunction(UnivariatePoly.one(), UnivariatePoly.monomial(1, 3) - 1)


def test_ss_weight_level_one():
    # one semisimple matrix on a 1-dim block: q - 1 choices, weight (q-1)/(q-1) = 1
    assert ss_weight(1, 1, 1) == RationalFunction.one()
    # the worked 2x2 value: (q^3 - q^2 - q + 1) / q
    w = ss_weight(2, 2, 1)
    assert w == RationalFunction(Q**3 - Q**2 - Q + 1, Q)


def test_mixed_weight_leaves():
    assert mixed_weight(0, 2, 1) == RationalFunction.from_poly(Q**2 - Q)
    assert mixed_weight(0, 1, 2) == RationalFunction.from_poly(Q**2 - 1)
    assert mixed_weight(1, 1, 1) == RationalFunction.from_poly((Q - 1) ** 2)
    assert mixed_weight(1, 1, 1).evaluate(3) == 4


def test_weight_validation():
    with pytest.raises(ValueError):
        ss_weight(-1, 2, 1)
    with pytest.raises(ValueError):
        ss_weight(0, 0, 1)
    with pytest.raises(ValueError):
        mixed_weight(0, 1, 0)


def test_semisimple_pairs_2x2():
    cp = count_semisimple_tuples(2, 2)
    assert cp.poly == ascending(1, -2, -1, 4, -1, -2, 1)
    assert str(cp.poly) == "q^6 - 2q^5 - q^4 + 4q^3 - q^2 - 2q + 1"
    assert cp.evaluate(2) == 9
    assert cp.evaluate(3) == 256
    assert cp.evaluate(4) == 2025
    assert cp.evaluate(5) == 9216
    assert cp.mode == MODE_SEMISIMPLE


def test_semisimple_pairs_3x3():
    cp = count_semisimple_tuples(3, 2)
    assert cp.poly == ascending(1, -2, 1, -2, 3, 2, -4, 0, -1, 4, -1, -2, 1)
    assert cp.evaluate(2) == 609


def test_semisimple_singletons():
    # k = 1 just counts semisimple elements
    assert count_semisimple_tuples(1, 1).poly == Q - 1
    assert count_semisimple_tuples(2, 1).poly == ascending(-1, 2, 0, -2, 1)
    # over F_2 only the identity and the two order-3 elements are semisimple
    assert count_semisimple_tuples(2, 1).evaluate(2) == 3
    assert count_semisimple_tuples(2, 1).evaluate(3) == 32


def test_semisimple_k_zero_is_one():
    cp = count_semisimple_tuples(3, 0)
    assert cp.poly == UnivariatePoly.one()
    assert cp.k == 0


def test_mixed_pairs_2x2():
    cp = count_mixed_tuples(2, 2)
    assert cp.poly == ascending(0, 0, -1, 2, 0, -2, 1)
    assert cp.evaluate(2) == 12
    assert cp.evaluate(3) == 288
    assert cp.mode == MODE_MIXED


def test_conjugacy_classes_2x2():
    cp = count_conjugacy_classes(2, 2)
    assert cp.poly == ascending(1, -2, 2, -2, 1)
    assert cp.evaluate(2) == 5
    assert cp.evaluate(3) == 40
    assert count_conjugacy_classes(2, 1).poly == Q**2 - Q
    assert cp.mode == MODE_CONJUGACY


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_conjugacy_matches_mixed_quotient(n, k):
    # orbit counting: class count of k-tuples * |GL_n| = mixed count of (k+1)-tuples
    classes = count_conjugacy_classes(n, k)
    mixed = count_mixed_tuples(n, k + 1)
    assert classes.poly * gl_order(n) == mixed.poly


def test_arity_validation():
    with pytest.raises(InvalidArity):
        count_semisimple_tuples(0, 2)
    with pytest.raises(InvalidArity):
        count_semisimple_tuples(2, -1)
    with pytest.raises(InvalidArity):
        count_mixed_tuples(2, 1)
    with pytest.raises(InvalidArity):
        count_conjugacy_classes(2, 0)


def test_hom_count_dispatch():
    assert hom_count(2, 1, 0).poly == count_semisimple_tuples(2, 2).poly
    assert hom_count(2, 1, 1).poly == count_mixed_tuples(2, 2).poly
    assert hom_count(3, 2, 0).k == 4
    with pytest.raises(InvalidArity):
        hom_count(2, 0, 0)
    with pytest.raises(InvalidArity):
        hom_count(2, 1, 2)


def test_counting_polynomial_rejects_fractions():
    with pytest.raises(IntegralityViolation):
        CountingPolynomial(UnivariatePoly((Fraction(1, 2),)), 1, 1, MODE_SEMISIMPLE)
    with pytest.raises(ValueError):
        CountingPolynomial(UnivariatePoly.one(), 1, 1, "bogus")


def test_counting_polynomial_json():
    # the document the CLI prints under "poly": q^6 - 2q^5 - q^4 + 4q^3 - q^2 - 2q + 1, ascending
    doc = count_semisimple_tuples(2, 2).poly.to_json()
    assert doc == {"var": "q", "coeffs": [[1, 1], [-2, 1], [-1, 1], [4, 1], [-1, 1], [-2, 1], [1, 1]]}
    assert json.loads(json.dumps(doc)) == doc


class NullCache(WeightCache):
    """A memo that never stores anything."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


def test_null_cache_transparency():
    # results must not depend on memoization at all
    for n, k in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        assert count_semisimple_tuples(n, k, NullCache()).poly == count_semisimple_tuples(n, k).poly
    assert count_mixed_tuples(2, 3, NullCache()).poly == count_mixed_tuples(2, 3).poly
    assert count_conjugacy_classes(2, 2, NullCache()).poly == count_conjugacy_classes(2, 2).poly


def test_deep_rank_does_not_recurse_per_level():
    # at n = 1 the count is (q - 1)^k; levels fill bottom-up, so k far past
    # the interpreter's recursion limit is fine
    assert count_semisimple_tuples(1, 1200).evaluate(3) == 2**1200


def test_weight_cache_round_trip():
    cache = WeightCache()
    count_semisimple_tuples(2, 2, cache)
    count_mixed_tuples(2, 2, cache)
    assert len(cache) > 0
    stored = UnivariatePoly(cache["ss", 1, 2])
    assert RationalFunction(stored, gl_order(2)) == ss_weight(1, 2, 1)
    # a preloaded cache reproduces the same polynomial
    assert count_semisimple_tuples(2, 2, cache).poly == count_semisimple_tuples(2, 2).poly


# Reference: the per-block weight recursion over GCD-reduced rational
# functions (leaf 1/|GL_r| for the semisimple kind, every field power q^m
# kept apart), an independent formulation of what the engine's integer
# recursion computes.


def _reference_weight(kind, level, r, m, memo):
    key = (kind, level, r, m)
    if key in memo:
        return memo[key]
    if level == 0:
        if kind == "ss":
            value = RationalFunction(UnivariatePoly.one(), gl_order(r).compose_monomial(m))
        else:
            qm = UnivariatePoly.monomial(1, m)
            value = RationalFunction.from_poly((qm - 1) * UnivariatePoly.monomial(1, m * (r - 1)))
    else:
        value = RationalFunction.zero()
        for t in enumerate_types(r):
            term = RationalFunction.from_poly(count_monic_with_type(t).compose_monomial(m))
            for degree, size in type_pairs(t):
                term = term * _reference_weight(kind, level - 1, size, m * degree, memo)
            value = value + term
    memo[key] = value
    return value


def _reference_count(n, k, mode, memo):
    if mode == MODE_SEMISIMPLE:
        w, prefix = _reference_weight("ss", k, n, 1, memo), gl_order(n)
    elif mode == MODE_MIXED:
        w, prefix = _reference_weight("mixed", k - 2, n, 1, memo), gl_order(n)
    else:
        w, prefix = _reference_weight("mixed", k - 1, n, 1, memo), UnivariatePoly.one()
    return (prefix * w.num).exact_div(w.den)


_REFERENCE_MEMO: dict = {}


@pytest.mark.parametrize(
    "mode,count",
    [(MODE_SEMISIMPLE, count_semisimple_tuples), (MODE_MIXED, count_mixed_tuples),
     (MODE_CONJUGACY, count_conjugacy_classes)],
)
def test_matches_rational_function_reference(mode, count):
    for n in range(1, 6):
        for k in range(2 if mode == MODE_MIXED else 1, 5):
            assert count(n, k).poly == _reference_count(n, k, mode, _REFERENCE_MEMO), (n, k)


@pytest.fixture
def fresh_type_tables():
    engine._type_table.cache_clear()
    engine._packed_factors.cache_clear()
    yield
    engine._type_table.cache_clear()
    engine._packed_factors.cache_clear()


def test_fractional_type_count_fails_level_sum(monkeypatch, fresh_type_tables):
    # one more in a numerator D_t * N_t leaves N_t off by 1/D_t, a fraction
    real = engine.scaled_type_count
    poisoned = enumerate_types(2)[0]

    def scaled(t):
        numerator, denominator = real(t)
        return ((numerator[0] + 1,) + numerator[1:], denominator) if t == poisoned else (numerator, denominator)

    monkeypatch.setattr(engine, "scaled_type_count", scaled)
    with pytest.raises(IntegralityViolation):
        count_conjugacy_classes(2, 2)


def _rational_type_table(kind, r):
    """The type table scaled by the lcm of the coefficient denominators of the rational N_t."""
    types = enumerate_types(r)
    counts = [count_monic_with_type(t).coeffs for t in types]
    scale = math.lcm(*(c.denominator for coeffs in counts for c in coeffs))
    rows = []
    for t, coeffs in zip(types, counts):
        pairs = type_pairs(t)
        factor = tuple((c * scale).numerator for c in coeffs)
        if kind == "ss":
            factor = engine.int_mul(factor, engine._centralizer_index(r, pairs))
        rows.append((factor, sum(map(abs, factor)), pairs))
    return scale, tuple(rows)


def _memo_tables(cache):
    for n in range(1, 7):
        for k in range(1, 7):
            count_semisimple_tuples(n, k, cache)
            count_conjugacy_classes(n, k, cache)
            if k >= 2:
                count_mixed_tuples(n, k, cache)
    return dict(cache)


def test_integer_type_table_keeps_memo_tables(monkeypatch, fresh_type_tables):
    integer = _memo_tables(WeightCache())
    monkeypatch.setattr(engine, "_type_table", functools.lru_cache(maxsize=None)(_rational_type_table))
    engine._packed_factors.cache_clear()
    assert _memo_tables(WeightCache()) == integer


def test_non_exact_centralizer_index(monkeypatch, fresh_type_tables):
    # one block too many: (q - 1)^3 does not divide |GL_2(q)| = q (q - 1)^2 (q + 1)
    real = engine.type_pairs
    monkeypatch.setattr(engine, "type_pairs", lambda t: real(t) + ((1, 1),) if t.weight == 2 else real(t))
    with pytest.raises(IntegralityViolation):
        count_semisimple_tuples(2, 1)


def _long_division(num, den):
    """num / den in Z[q] by schoolbook long division; None on a remainder."""
    rem, quo = list(num), [0] * (len(num) - len(den) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        factor, residue = divmod(rem[shift + len(den) - 1], den[-1])
        if residue:
            return None
        quo[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
    return None if any(rem) else tuple(quo)


def _gl_order_reference(n):
    """|GL_n(q)| = prod_{j<n} (q^n - q^j), as schoolbook products."""
    result = (1,)
    for j in range(n):
        result = int_mul(result, (0,) * j + (-1,) + (0,) * (n - j - 1) + (1,))
    return result


def test_cyclotomic_centralizer_index_matches_long_division():
    checked = 0
    for r in range(1, 11):
        for t in enumerate_types(r):
            pairs = type_pairs(t)
            centralizer = (1,)
            for d, s in pairs:
                centralizer = int_mul(centralizer, engine._compose(_gl_order_reference(s), d))
            expected = _long_division(_gl_order_reference(r), centralizer)
            assert expected is not None
            assert engine._centralizer_index(r, pairs) == expected, pairs
            checked += 1
    assert checked == sum(len(enumerate_types(r)) for r in range(1, 11))


def test_division_by_q_power_minus_one():
    p = int_mul((3, -1, 0, 4), (-1, 0, 1))  # times q^2 - 1
    assert engine._over_qm_minus_1(list(p), 2) == [3, -1, 0, 4]
    assert engine._over_qm_minus_1(list(p), 1) == list(int_mul((3, -1, 0, 4), (1, 1)))  # times q + 1
    assert engine._over_qm_minus_1(list(p), 3) is None
    assert engine._over_qm_minus_1([1, 2], 3) is None
    assert engine._over_qm_minus_1([0, 0], 3) == []
    assert engine._times_qm_minus_1([3, -1, 0, 4], 2) == list(p)


@pytest.mark.parametrize("count", [count_semisimple_tuples, count_mixed_tuples])
def test_laurent_check_refuses_a_count_off_by_one(count):
    cp = count(3, 2)
    off = CountingPolynomial(cp.poly + 1, cp.n, cp.k, cp.mode)
    with pytest.raises(NotLaurent):
        check_laurent_quotient(off)
    # q^(n(n-1)/2) is not a factor the check divides by: a shift keeps the quotient Laurent
    shifted = CountingPolynomial(cp.poly * Q, cp.n, cp.k, cp.mode)
    assert check_laurent_quotient(shifted) == LaurentPoly(
        check_laurent_quotient(cp).min_degree + 1, check_laurent_quotient(cp).coeffs
    )


# Reference: each level sum coefficient by coefficient, as schoolbook
# products of the composed values below, summed and divided by the scale.


def _schoolbook_level_value(kind, level, r, below):
    if level == 0:
        return (1,) if kind == "ss" else (0,) * (r - 1) + (-1, 1)
    scale, rows = engine._type_table(kind, r)
    total = []
    for factor, _, pairs in rows:
        term = factor
        for d, s in pairs:
            term = int_mul(term, engine._compose(below[s], d))
        total.extend([0] * (len(term) - len(total)))
        for i, c in enumerate(term):
            total[i] += c
    while total and total[-1] == 0:
        total.pop()
    quotient = [divmod(c, scale) for c in total]
    assert all(residue == 0 for _, residue in quotient)
    return tuple(c for c, _ in quotient)


def _level_memo():
    cache = WeightCache()
    for kind in ("ss", "mixed"):
        for r in range(1, 9):
            engine._weight(kind, 8, r, cache)
    return cache


def test_one_point_level_sums_match_schoolbook(monkeypatch):
    one_point = _level_memo()
    monkeypatch.setattr(engine, "_level_value", _schoolbook_level_value)
    schoolbook = _level_memo()
    assert len(one_point) == 2 * 9 * 8
    assert list(one_point) == list(schoolbook)
    for key, value in schoolbook.items():
        assert one_point[key] == value, key


@pytest.mark.parametrize("width", [1, 2, 3, 8, 17])
def test_pack_round_trips_slot_edges(width):
    edge = 2 ** (8 * width - 1) - 1
    for coeffs in [(edge,), (-edge,), (edge, -edge), (-edge, 0, edge), (0, 0, -edge), (1, -edge, edge, -1, edge)]:
        for stride in (1, 3):
            # packing at a stride of whole slots is the value at X of the polynomial composed with q^stride
            packed = engine._pack(coeffs, width * stride)
            assert engine._strip(engine._unpack(packed, width * stride)) == coeffs
            assert engine._strip(engine._unpack(packed, width)) == engine._compose(coeffs, stride)
    assert engine._unpack(0, width) == [0]


@pytest.mark.parametrize("bound", [63, 64, 127, 128, 255, 256, 2**15 - 1, 2**15, 2**16, 2**63, 3**40])
@pytest.mark.parametrize("sign", [1, -1])
def test_level_reaching_the_l1_bound_decodes(monkeypatch, fresh_type_tables, bound, sign):
    # Every value below and every factor is a monomial, and every term lands
    # on q^5 with one sign, so the coefficient of q^5 is the whole L1 bound.
    below = {1: (0, 1), 2: (0, 0, 2), 3: (0, 0, 0, 0, 5)}
    a2, a3 = bound // 7, bound // 11
    a1 = bound - 2 * a2 - 5 * a3 - 2
    rows = tuple(
        ((0,) * degree + (sign * a,), a, pairs)
        for degree, a, pairs in [
            (2, a1, ((1, 1), (1, 1), (1, 1))),  # q^2 * q * q * q
            (2, a2, ((1, 1), (1, 2))),  # q^2 * q * 2q^2
            (1, a3, ((1, 3),)),  # q * 5q^4
            (2, 1, ((2, 1), (1, 1))),  # q^2 * q^2 * q
            (2, 1, ((3, 1),)),  # q^2 * q^3
        ]
    )
    assert a1 + 2 * a2 + 5 * a3 + 2 == bound
    monkeypatch.setattr(engine, "_type_table", functools.lru_cache(maxsize=None)(lambda kind, r: (1, rows)))
    assert engine._level_value("ss", 1, 3, below) == (0,) * 5 + (sign * bound,)


def test_degree_check_even_k():
    report = check_degree_monic(count_semisimple_tuples(2, 2))
    assert report.bound == 6
    assert report.degree == 6
    assert report.bound_met and report.bound_enforced
    assert report.monic_checked and report.is_monic and report.degree_exact
    report4 = check_degree_monic(count_semisimple_tuples(2, 4))
    assert report4.bound == 10
    assert report4.bound_met and report4.bound_enforced
    assert not report4.monic_checked


def test_degree_check_odd_and_zero_k():
    # odd k: bound reported, never raised
    report = check_degree_monic(count_semisimple_tuples(2, 1))
    assert not report.bound_enforced
    assert report.degree == 4 and report.bound == 4
    # k = 0: the constant 1 sits far below the bound, still only reported
    report0 = check_degree_monic(count_semisimple_tuples(2, 0))
    assert not report0.bound_enforced
    assert not report0.bound_met
    assert report0.to_json()["boundMet"] is False


def test_degree_check_mode_guard():
    with pytest.raises(ValueError):
        check_degree_monic(count_mixed_tuples(2, 2))


def test_laurent_quotient_semisimple():
    lp = check_laurent_quotient(count_semisimple_tuples(2, 2))
    assert lp.min_degree == -1
    assert lp.coeffs == (Fraction(1), Fraction(-1), Fraction(-1), Fraction(1))
    assert str(lp) == "q^2 - q - 1 + q^-1"


def test_laurent_quotient_3x3():
    lp = check_laurent_quotient(count_semisimple_tuples(3, 2))
    assert lp.min_degree == -3
    assert lp.coeffs == tuple(Fraction(c) for c in (-1, 1, -1, 2, -1, -1, 1))


def test_laurent_quotient_mixed_and_guard():
    lp = check_laurent_quotient(count_mixed_tuples(2, 2))
    assert lp == LaurentPoly(1, (Fraction(-1), Fraction(1)))
    with pytest.raises(ValueError):
        check_laurent_quotient(count_conjugacy_classes(2, 2))


@pytest.mark.parametrize("n,k", [(1, 4), (2, 3), (2, 4), (3, 3), (4, 2)])
def test_integrality_and_structure_bigger(n, k):
    cp = count_semisimple_tuples(n, k)
    assert cp.poly.is_integer()
    report = check_degree_monic(cp)
    assert report.bound_met
    assert check_laurent_quotient(cp).is_integer()
