"""The exact counting engine: weights, counts, and structural checks."""

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from monodromy import engine, rational
from monodromy.engine import (
    MODE_CONJUGACY,
    MODE_MIXED,
    MODE_SEMISIMPLE,
    CountingPolynomial,
    DegreeViolation,
    IntegralityViolation,
    InvalidArity,
    WeightCache,
    _certified_quotient,
    _over_qm_minus_1,
    _strip,
    _times_qm_minus_1,
    check_degree_monic,
    check_laurent_quotient,
    count_conjugacy_classes,
    count_mixed_tuples,
    count_semisimple_tuples,
    hom_count,
)
from monodromy.exactpoly import LaurentPoly, NotLaurent, UnivariatePoly, int_mul
from monodromy.rational import RationalFunction, count_monic_with_type, gl_order, mixed_weight, ss_weight
from monodromy.typecomb import enumerate_types, scaled_type_count, type_pairs

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
    # a cache argument is still accepted, and results do not depend on it
    for n, k in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        assert count_semisimple_tuples(n, k, NullCache()).poly == count_semisimple_tuples(n, k).poly
    assert count_mixed_tuples(2, 3, NullCache()).poly == count_mixed_tuples(2, 3).poly
    assert count_conjugacy_classes(2, 2, NullCache()).poly == count_conjugacy_classes(2, 2).poly


def test_deep_rank_does_not_recurse_per_level():
    # at n = 1 the count is (q - 1)^k; each count is one sum over types, so
    # k far past the interpreter's recursion limit is fine
    assert count_semisimple_tuples(1, 1200).evaluate(3) == 2**1200


# Reference: the per-block weight recursion over GCD-reduced rational
# functions (leaf 1/|GL_r| for the semisimple kind, every field power q^m
# kept apart), an independent formulation of what the engine's sums over
# types compute.


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


# Reference: the zeta function of the torus G_m^k,
#   Z(u) = prod_{i=0..k} (1 - q^i u)^(-(-1)^(k-i) C(k, i)),
# whose u^n coefficient counts effective 0-cycles of degree n, that is the
# classes of commuting semisimple k-tuples in GL_n.  It is expanded at an
# integer q as a power series and shares no code with the types.


def _torus_zeta_coefficient(n, k, q):
    series = [1] + [0] * n
    for i in range(k + 1):
        exponent, a = -((-1) ** (k - i)) * math.comb(k, i), q**i
        for _ in range(abs(exponent)):
            if exponent > 0:  # times (1 - a u)
                for j in range(n, 0, -1):
                    series[j] -= a * series[j - 1]
            else:  # times 1 / (1 - a u)
                for j in range(1, n + 1):
                    series[j] += a * series[j - 1]
    return series[n]


def _gl_order_at(n, q):
    return math.prod(q**n - q**j for j in range(n))


def test_conjugacy_and_mixed_match_the_torus_zeta_function():
    checked = 0
    for n in range(1, 6):
        for k in range(1, 5):
            conj, mixed = count_conjugacy_classes(n, k), count_mixed_tuples(n, k + 1)
            for q in (2, 3, 4, 5):
                zeta = _torus_zeta_coefficient(n, k, q)
                assert conj.evaluate(q) == zeta, (n, k, q)
                assert mixed.evaluate(q) == _gl_order_at(n, q) * zeta, (n, k + 1, q)
                checked += 1
    assert checked == 5 * 4 * 4


# Reference: the paper's explicit formula, one sum over the factorization
# types t of weight n,
#   ss(n, k) = sum over t of [GL_n : C_t] N_t^(k),  conj(n, k) = sum over t of N_t^(k),
# with the engine's integer helpers but none of its recurrences.


def _centralizer_index(r, pairs):
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
def _centralizer_indices(n):
    """[GL_n : C_t] for every type t of weight n, in ``enumerate_types`` order."""
    return tuple(_centralizer_index(n, type_pairs(t)) for t in enumerate_types(n))


def _type_sum(n, k, indexed):
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


def test_recurrences_match_the_type_sum():
    checked = 0
    for n in range(1, 11):
        for k in range(7):
            assert count_semisimple_tuples(n, k).poly.coeffs == _type_sum(n, k, indexed=True), (n, k)
            if k >= 1:
                assert count_conjugacy_classes(n, k).poly.coeffs == _type_sum(n, k, indexed=False), (n, k)
            if k >= 2:
                mixed = int_mul(_gl_order_reference(n), _type_sum(n, k - 1, indexed=False))
                assert count_mixed_tuples(n, k).poly.coeffs == mixed, (n, k)
            checked += 1
    assert checked == 10 * 7


def test_levi_and_descent_indices_are_centralizer_indices():
    # L(a, b) = [GL_{a+b} : GL_a x GL_b] and [GL_j(q) : GL_{j/d}(q^d)], against the reference index
    for r in range(1, 13):
        for a in range(r + 1):
            assert engine._levi_index(a, r - a) == _centralizer_index(r, ((1, a), (1, r - a))), (a, r - a)
        for d in range(1, r + 1):
            if r % d == 0:
                assert engine._descent_index(r, d) == _centralizer_index(r, ((d, r // d),)), (r, d)


# sha256 of json.dumps(cp.poly.to_json()) for ss counts past the CLI's size
# ceiling, as the type sum above computed them
WALL_DIGESTS = {
    (7, 8): "6aadde3ebaeb4a1564745689cc76511b3c8e086d63002b1a509b041d19b67c4d",
    (10, 20): "79dd8aec9a729fd88221748c2affee2707dd89098a9a6ba2720b70eeccd80975",
    (14, 2): "0f83f86a539ef0153843c868074c4ff4d645f4232f2e21ea3aa76a2bfb2606c3",
    (18, 2): "e5fe9ed86717292058168fcb374d59701de919f90b53dbea281d601047b22172",
    (6, 100): "de1b82f43d04e44d05bd8458963505c747d5d52726edc1770eabd93bfb2cddcf",
    (1, 1200): "3e80deef3d01a68d5258ec82fd19ef6c60c702bcf56c93d20e513c3305d647cd",
}


def test_wall_counts_match_their_type_sum_digests():
    for (n, k), digest in WALL_DIGESTS.items():
        text = json.dumps(count_semisimple_tuples(n, k).poly.to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, k)


def _clear_engine_memos():
    engine._SEMISIMPLE.clear()
    engine._CLASSES.clear()
    for value in vars(engine).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def fresh_engine_memos():
    _clear_engine_memos()
    yield
    _clear_engine_memos()


def _poisoned(monkeypatch, name):
    """Add 1 to the constant coefficient of an engine term at j = 1 (its first argument).

    Only at j = 1: adding 1 to (q^j - 1)^k at every j gives the point counts
    of the torus with one more F_q-point, whose counts are integers again.
    """
    real = getattr(engine, name)

    def term(j, *rest):
        value = real(j, *rest)
        return (value[0] + 1,) + value[1:] if j == 1 else value

    monkeypatch.setattr(engine, name, term)


@pytest.mark.parametrize("name", ["_point_sum", "_levi_index"])
def test_poisoned_semisimple_term_fails_the_step_certificate(monkeypatch, fresh_engine_memos, name):
    # a term off by one leaves some n * ss(n) not divisible by n
    _poisoned(monkeypatch, name)
    for k in (1, 2, 3):
        with pytest.raises(IntegralityViolation):
            count_semisimple_tuples(4, k)


def test_poisoned_torus_points_fail_the_step_certificate(monkeypatch, fresh_engine_memos):
    _poisoned(monkeypatch, "_torus_points")
    with pytest.raises(IntegralityViolation):
        count_conjugacy_classes(2, 2)
    with pytest.raises(IntegralityViolation):
        count_mixed_tuples(2, 3)


@pytest.mark.parametrize("name,count", [
    ("_point_sum", count_semisimple_tuples), ("_levi_index", count_semisimple_tuples),
    ("_torus_points", count_conjugacy_classes),
])
def test_clearing_the_memos_drops_every_poisoned_value(monkeypatch, fresh_engine_memos, name, count):
    # the values below the failing step passed their own certificates and stay in the per-k lists
    _poisoned(monkeypatch, name)
    with pytest.raises(IntegralityViolation):
        count(3, 2)
    monkeypatch.undo()
    _clear_engine_memos()
    assert count_semisimple_tuples(3, 2).poly.coeffs == _type_sum(3, 2, indexed=True)
    assert count_conjugacy_classes(3, 2).poly.coeffs == _type_sum(3, 2, indexed=False)


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
                centralizer = int_mul(centralizer, rational._compose(_gl_order_reference(s), d))
            expected = _long_division(_gl_order_reference(r), centralizer)
            assert expected is not None
            assert _centralizer_index(r, pairs) == expected, pairs
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
    # the check divides only from the lowest nonzero coefficient up, so a change there or at the top still shows
    for n in range(1, 5):
        for k in (2, 3):
            cp = count(n, k)
            coeffs = list(cp.poly.coeffs)
            low = next(i for i, c in enumerate(coeffs) if c)
            for at in (low, len(coeffs) - 1):
                for step in (1, -1):
                    perturbed = coeffs.copy()
                    perturbed[at] += step
                    off = CountingPolynomial(UnivariatePoly(tuple(perturbed)), n, k, cp.mode)
                    with pytest.raises(NotLaurent):
                        check_laurent_quotient(off)


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


# (6, 100) and (10, 20) reach deep k
@pytest.mark.parametrize("n,k", [(1, 4), (2, 3), (2, 4), (3, 3), (4, 2), (6, 100), (10, 20)])
def test_integrality_and_structure_bigger(n, k):
    cp = count_semisimple_tuples(n, k)
    assert cp.poly.is_integer()
    report = check_degree_monic(cp)
    assert report.bound_met
    assert check_laurent_quotient(cp).is_integer()
