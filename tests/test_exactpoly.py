"""Exact polynomial, rational function, and Laurent arithmetic."""

import json
import random
from fractions import Fraction

import pytest

from monodromy.exactpoly import NEG_INFINITY, LaurentPoly, NotDivisible, NotLaurent, UnivariatePoly
from monodromy.rational import RationalFunction, poly_gcd, to_laurent

P = UnivariatePoly
Q = P.variable()


def poly(*ascending):
    return P(tuple(Fraction(c) for c in ascending))


def test_canonical_form():
    assert poly(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert poly(0, 0, 0) == P.zero()
    assert P.zero().coeffs == ()
    assert poly(1, -2, 1) == (Q - 1) ** 2


def test_integral_coefficients_are_ints():
    p = P((Fraction(4, 2), Fraction(1, 2)))
    assert p.coeffs == (2, Fraction(1, 2))
    assert type(p.coeffs[0]) is int and type(p.coeffs[1]) is Fraction
    # the stored form changes neither equality nor the hash of the field tuple
    assert hash(p) == hash(((Fraction(2), Fraction(1, 2)),))
    assert p == P((2, Fraction(1, 2)))
    assert [type(c) for c in (Q**2 - 3).coeffs] == [int, int, int]
    assert [type(c) for c in LaurentPoly(-1, (Fraction(6, 3), 0, Fraction(1, 3))).coeffs] == [int, int, Fraction]
    assert P.one().is_integer() and not p.is_integer()


def test_integer_division_never_yields_a_float():
    # int / int in true division is a float; 1/3 as a float is not one third
    assert divmod(P((1,)), P((3,))) == (P((Fraction(1, 3),)), P.zero())
    assert divmod(P((1, 0, 3)), P((0, 2))) == (P((0, Fraction(3, 2))), P((1,)))
    assert (Q**2 - 1).exact_div(3 * Q - 3) == P((Fraction(1, 3), Fraction(1, 3)))
    assert poly_gcd(3 * Q**2 - 3, 6 * Q + 6) == Q + 1
    rng = random.Random(2026)

    def rand_int_poly():
        return P(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 6))) + (rng.choice((-3, -1, 1, 2, 5)),))

    def scalars(*polys):
        return {type(c) for poly in polys for c in poly.coeffs}

    for _ in range(60):
        a, b = rand_int_poly(), rand_int_poly()
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert scalars(quo, rem) <= {int, Fraction}
        assert (a * b).exact_div(b) == a and scalars((a * b).exact_div(b)) == {int}
        assert scalars(poly_gcd(a, b)) <= {int, Fraction}


def test_zero_degree_sentinel():
    assert P.zero().degree == NEG_INFINITY
    assert P.zero().degree < -(10**9)
    # a degree bound check must come out False for the zero polynomial
    assert not (P.zero().degree >= 0)
    assert P.one().degree == 0
    assert Q.degree == 1


def test_constructors():
    assert P.monomial(3, 4) == poly(0, 0, 0, 0, 3)
    assert P.constant(Fraction(1, 2)) == poly(Fraction(1, 2))
    assert P.monomial(0, 5) == P.zero()
    with pytest.raises(ValueError):
        P.monomial(1, -1)


def test_structure_queries():
    p = poly(1, 0, -3, 2)
    assert p.leading() == 2
    assert not p.is_monic()
    assert (Q**3 - Q).is_monic()
    assert p.is_integer()
    assert not poly(Fraction(1, 2)).is_integer()
    with pytest.raises(ValueError):
        P.zero().leading()


def test_basic_arithmetic():
    a = Q**2 - 1
    b = Q + 1
    assert a + b == poly(0, 1, 1)
    assert a - a == P.zero()
    assert a * b == poly(-1, -1, 1, 1)
    assert 2 * b == poly(2, 2)
    assert b - 1 == Q
    assert 1 - b == -Q
    assert (Q + 1) ** 0 == P.one()
    assert (Q + 1) ** 3 == poly(1, 3, 3, 1)
    with pytest.raises(ValueError):
        Q**-1


def test_divmod_and_exact_div():
    a = Q**3 - 2 * Q + 5
    b = Q**2 + 1
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.degree < b.degree
    assert (Q**2 - 1).exact_div(Q - 1) == Q + 1
    with pytest.raises(NotDivisible):
        (Q**2 - 1).exact_div(Q)
    with pytest.raises(ZeroDivisionError):
        divmod(a, P.zero())


def test_compose_monomial():
    half = Fraction(1, 2)
    p = poly(0, -half, half)  # (q^2 - q)/2
    assert p.compose_monomial(3) == poly(0, 0, 0, -half, 0, 0, half)
    assert p.compose_monomial(1) is p
    assert P.zero().compose_monomial(4) == P.zero()
    with pytest.raises(ValueError):
        p.compose_monomial(0)


def test_evaluate():
    p = Q**3 - 2 * Q + 1
    assert p.evaluate(3) == 22
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 8)
    assert P.zero().evaluate(7) == 0


def reference_evaluate(p, x):
    """Horner's rule in Fraction arithmetic throughout."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def test_evaluate_matches_fraction_horner():
    rng = random.Random(7)
    polys = [P.zero(), P.one(), poly(-3), poly(0, 0, 5)]
    for _ in range(20):
        degree = rng.randrange(8)
        polys.append(poly(*(rng.randint(-10**6, 10**6) for _ in range(degree + 1))))
        polys.append(poly(*(Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(degree + 1))))
    points = [0, 1, -1, 2, 7, -13, 10**20, Fraction(1, 2), Fraction(-7, 3), Fraction(10**9, 10**9 + 7)]
    for p in polys:
        for x in points:
            value = p.evaluate(x)
            assert type(value) is Fraction
            assert value == reference_evaluate(p, x), (p, x)


def test_ring_axioms_random():
    rng = random.Random(20260815)

    def rand_poly():
        return P(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))))

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + P.zero() == a
        assert a * P.one() == a
        if not b.is_zero():
            quo, rem = divmod(a, b)
            assert quo * b + rem == a


def test_poly_gcd():
    a = (Q - 1) * (Q + 2)
    b = (Q - 1) * (Q - 3)
    assert poly_gcd(a, b) == Q - 1
    assert poly_gcd(P.zero(), P.zero()) == P.zero()
    assert poly_gcd(P.zero(), 3 * a).is_monic()
    # result is monic regardless of input leading coefficients
    assert poly_gcd(2 * a, 4 * b) == Q - 1


def test_poly_json_round_trip():
    # the emitted document: ascending [num, den] pairs in the variable q, unchanged through JSON text
    doc = poly(1, Fraction(-2, 3), 0, 5).to_json()
    assert doc == {"var": "q", "coeffs": [[1, 1], [-2, 3], [0, 1], [5, 1]]}
    assert json.loads(json.dumps(doc)) == doc
    assert P.zero().to_json() == {"var": "q", "coeffs": []}


def test_poly_json_big_integers():
    # integers outside the signed 64-bit range are written as decimal strings, the rest as numbers
    top, bottom = 2**63 - 1, -(2**63)
    doc = poly(top, bottom, top + 1, bottom - 1, Fraction(1, 2**80)).to_json()
    assert doc["coeffs"] == [[top, 1], [bottom, 1], [str(top + 1), 1], [str(bottom - 1), 1], [1, str(2**80)]]
    assert json.loads(json.dumps(doc)) == doc


def test_poly_str():
    assert str(Q**6 - 2 * Q**5 - Q**4 + 4 * Q**3 - Q**2 - 2 * Q + 1) == (
        "q^6 - 2q^5 - q^4 + 4q^3 - q^2 - 2q + 1"
    )
    assert str(P.zero()) == "0"
    assert str(-Q + 3) == "-q + 3"


def test_rational_function_normalization():
    r = RationalFunction(Q**2 - 1, 2 * Q - 2)
    assert r.num == poly(Fraction(1, 2), Fraction(1, 2))
    assert r.den == P.one()
    assert r.is_polynomial()
    assert r.as_poly() == (Q + 1) * Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Q, P.zero())


def test_rational_function_arithmetic():
    half_q = RationalFunction(P.one(), Q)  # 1/q
    assert (half_q + half_q) == RationalFunction(P.constant(2), Q)
    assert half_q * Q == RationalFunction.one()
    assert (RationalFunction.one() - half_q) == RationalFunction(Q - 1, Q)
    assert (half_q / half_q) == RationalFunction.one()
    with pytest.raises(ZeroDivisionError):
        half_q / RationalFunction.zero()
    assert half_q.evaluate(4) == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        half_q.evaluate(0)
    with pytest.raises(NotDivisible):
        half_q.as_poly()


def test_rational_function_field_axioms_random():
    rng = random.Random(99)

    def rand_rf():
        num = P(tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))))
        den = P.zero()
        while den.is_zero():
            den = P(tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))))
        return RationalFunction(num, den)

    for _ in range(40):
        a, b = rand_rf(), rand_rf()
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == RationalFunction.zero()
        if not b.num.is_zero():
            assert (a / b) * b == a


def test_laurent_canonical_form():
    lp = LaurentPoly(-2, (Fraction(0), Fraction(1), Fraction(0), Fraction(3), Fraction(0)))
    assert lp.min_degree == -1
    assert lp.coeffs == (Fraction(1), Fraction(0), Fraction(3))
    assert lp == LaurentPoly(-1, (1, 0, 3))
    assert str(lp) == "3q + q^-1"
    assert lp.is_integer()
    assert not LaurentPoly(0, (Fraction(1, 2),)).is_integer()
    zero = LaurentPoly(-5, (Fraction(0),))
    assert zero == LaurentPoly(0, ())
    assert zero.min_degree == 0 and zero.coeffs == ()
    assert str(zero) == "0"


def test_laurent_json_round_trip():
    # the emitted document: canonical minDegree, [num, den] pairs, unchanged through JSON text
    doc = LaurentPoly(-4, (0, Fraction(2, 7), 0, 1, 0)).to_json()
    assert doc == {"var": "q", "minDegree": -3, "coeffs": [[2, 7], [0, 1], [1, 1]]}
    assert json.loads(json.dumps(doc)) == doc
    assert LaurentPoly(2, (2**64,)).to_json() == {"var": "q", "minDegree": 2, "coeffs": [[str(2**64), 1]]}


def test_to_laurent():
    num = Q**3 - Q**2 - Q + 1
    lp = to_laurent(num, Q)
    assert lp.min_degree == -1
    assert lp.coeffs == (Fraction(1), Fraction(-1), Fraction(-1), Fraction(1))
    assert str(lp) == "q^2 - q - 1 + q^-1"
    # cancellation first: (q^2 - 1)/(q^2 - q) reduces to (q + 1)/q
    lp2 = to_laurent(Q**2 - 1, Q**2 - Q)
    assert lp2.min_degree == -1
    assert lp2.coeffs == (Fraction(1), Fraction(1))
    with pytest.raises(NotLaurent):
        to_laurent(P.one(), Q + 1)
