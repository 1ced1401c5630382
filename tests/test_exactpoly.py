"""Integer polynomials, their one product, and Laurent polynomials."""

import json
import random
from fractions import Fraction

import pytest

from monodromy import decimal_str, prime_factors
from monodromy.engine import MODE_SEMISIMPLE, CountingPolynomial, IntegralityViolation
from monodromy.exactpoly import NEG_INFINITY, LaurentPoly, UnivariatePoly, _mobius, int_mul

P = UnivariatePoly
Q = P((0, 1))


def test_canonical_form():
    assert P((1, 2, 0, 0)).coeffs == (1, 2)
    assert P((0, 0, 0)) == P(())
    assert P(()).coeffs == ()
    assert P([1, -2, 1]) == P((1, -2, 1))
    coeffs = (3, 0, 1)
    assert P(coeffs).coeffs is coeffs  # nothing to strip: the tuple itself is kept


def test_integral_coefficients_are_ints():
    # a coefficient is kept as given: a Fraction, even an integral one, is not an int and is refused as a count
    p = P((2, Fraction(4, 2)))
    assert type(p.coeffs[1]) is Fraction
    assert not p.is_integer() and not P((Fraction(1, 2),)).is_integer()
    assert P((2, 2)).is_integer() and P(()).is_integer()
    with pytest.raises(IntegralityViolation):
        CountingPolynomial(p, 1, 1, MODE_SEMISIMPLE)
    assert CountingPolynomial(P((2, 2)), 1, 1, MODE_SEMISIMPLE).poly.coeffs == (2, 2)


def test_zero_degree_sentinel():
    assert P(()).degree == NEG_INFINITY
    assert P(()).degree < -(10**9)
    # a degree bound check must come out False for the zero polynomial
    assert not (P(()).degree >= 0)
    assert P((1,)).degree == 0
    assert Q.degree == 1


def test_structure_queries():
    p = P((1, 0, -3, 2))
    assert p.degree == 3
    assert not p.is_monic()
    assert P((0, -1, 0, 1)).is_monic()
    assert not P(()).is_monic()
    assert p.is_integer()


def test_basic_arithmetic():
    # int_mul is the one product: (q^2 - 1)(q + 1), a scalar, the zero polynomial
    assert int_mul((-1, 0, 1), (1, 1)) == (-1, -1, 1, 1)
    assert int_mul((2,), (1, 1)) == (2, 2)
    assert int_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert int_mul((), (1, 1)) == () and int_mul((1, 1), ()) == ()
    assert int_mul((0, 0, 1), (0, 3)) == (0, 0, 0, 3)
    assert int_mul((2**70,), (2**70, -1)) == (2**140, -(2**70))


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return P(out).coeffs


def test_ring_axioms_random():
    rng = random.Random(20260815)

    def rand_poly():
        return P(tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 5)))).coeffs

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert int_mul(a, b) == int_mul(b, a)
        assert int_mul(int_mul(a, b), c) == int_mul(a, int_mul(b, c))
        assert int_mul(a, _add(b, c)) == _add(int_mul(a, b), int_mul(a, c))
        assert int_mul(a, (1,)) == a
        # the top coefficient of a product of nonzero polynomials is nonzero
        assert P(int_mul(a, b)).coeffs == int_mul(a, b)


def _count(*ascending):
    return CountingPolynomial(P(ascending), 1, 1, MODE_SEMISIMPLE)


def test_evaluate():
    p = _count(1, -2, 0, 1)  # q^3 - 2q + 1
    assert p.evaluate(3) == 22
    assert p.evaluate(-2) == -3
    assert type(p.evaluate(3)) is int
    assert _count().evaluate(7) == 0


def reference_evaluate(coeffs, x):
    """Horner's rule in Fraction arithmetic throughout."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_evaluate_matches_fraction_horner():
    rng = random.Random(7)
    polys = [(), (1,), (-3,), (0, 0, 5)]
    for _ in range(40):
        degree = rng.randrange(8)
        polys.append(tuple(rng.randint(-10**6, 10**6) for _ in range(degree + 1)))
    points = [0, 1, -1, 2, 7, -13, 10**20]
    for coeffs in polys:
        for x in points:
            value = _count(*coeffs).evaluate(x)
            assert type(value) is int
            assert value == reference_evaluate(coeffs, x), (coeffs, x)


def test_poly_json_round_trip():
    # the emitted document: ascending [c, 1] pairs in the variable q, unchanged through JSON text
    doc = P((1, -2, 0, 5)).to_json()
    assert doc == {"var": "q", "coeffs": [[1, 1], [-2, 1], [0, 1], [5, 1]]}
    assert json.loads(json.dumps(doc)) == doc
    assert P(()).to_json() == {"var": "q", "coeffs": []}


def test_poly_json_big_integers():
    # integers outside the signed 64-bit range are written as decimal strings, the rest as numbers
    top, bottom = 2**63 - 1, -(2**63)
    doc = P((top, bottom, top + 1, bottom - 1)).to_json()
    assert doc["coeffs"] == [[top, 1], [bottom, 1], [str(top + 1), 1], [str(bottom - 1), 1]]
    assert json.loads(json.dumps(doc)) == doc


def test_poly_str():
    assert str(P((1, -2, -1, 4, -1, -2, 1))) == "q^6 - 2q^5 - q^4 + 4q^3 - q^2 - 2q + 1"
    assert str(P(())) == "0"
    assert str(P((3, -1))) == "-q + 3"


def test_laurent_canonical_form():
    lp = LaurentPoly(-2, (0, 1, 0, 3, 0))
    assert lp.min_degree == -1
    assert lp.coeffs == (1, 0, 3)
    assert lp == LaurentPoly(-1, (1, 0, 3))
    assert str(lp) == "3q + q^-1"
    zero = LaurentPoly(-5, (0,))
    assert zero == LaurentPoly(0, ())
    assert zero.min_degree == 0 and zero.coeffs == ()
    assert str(zero) == "0"


def test_laurent_json_round_trip():
    # the emitted document: canonical minDegree, [c, 1] pairs, unchanged through JSON text
    doc = LaurentPoly(-4, (0, 2, 0, -1, 0)).to_json()
    assert doc == {"var": "q", "minDegree": -3, "coeffs": [[2, 1], [0, 1], [-1, 1]]}
    assert json.loads(json.dumps(doc)) == doc
    assert LaurentPoly(2, (2**64,)).to_json() == {"var": "q", "minDegree": 2, "coeffs": [[str(2**64), 1]]}


# ---------------------------------------------------------------------------
# the printed forms against the general route every coefficient once took


def _reference_encode_int(value):
    return value if -(2**63) <= value <= 2**63 - 1 else decimal_str(value)


def _reference_render_terms(terms):
    """Human form from (degree, coefficient) pairs, sorted highest degree first."""
    parts = []
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


def _reference_poly_json(p):
    return {
        "var": "q",
        "coeffs": [[_reference_encode_int(c.numerator), _reference_encode_int(c.denominator)] for c in p.coeffs],
    }


def _reference_laurent_json(lp):
    return {
        "var": "q",
        "minDegree": lp.min_degree,
        "coeffs": [[_reference_encode_int(c.numerator), _reference_encode_int(c.denominator)] for c in lp.coeffs],
    }


def _printed_form_cases():
    rng = random.Random(30)
    edge = 2**63
    pool = [
        0, 1, -1, 2, -7, edge - 1, edge, edge + 1, -edge, -edge - 1, -edge + 1, 2**64, -(2**80),
        10**700 + 3, -(10**700) - 9, 10**639 + 1, 10**640, -(10**640), 7 * 10**5000 + 1,  # str() refuses the last
    ]
    cases = [(), (0,), (0, 0, 0), (1,), (-1,), (0, 0, 5, 0), (0, 1, 0, 0)]
    for _ in range(150):
        size = rng.randint(0, 9)
        cs = [rng.choice(pool) if rng.random() < 0.4 else rng.randint(-3, 3) for _ in range(size)]
        if rng.random() < 0.3:
            cs = [0] * rng.randint(1, 3) + cs
        if rng.random() < 0.3:
            cs = cs + [0] * rng.randint(1, 3)
        cases.append(tuple(cs))
    return [(cs, rng.randint(-12, 6)) for cs in cases]


def test_printed_forms_match_the_general_route():
    for cs, low in _printed_form_cases():
        p = P(cs)
        assert str(p) == _reference_render_terms(list(enumerate(p.coeffs))), cs
        assert json.dumps(p.to_json()) == json.dumps(_reference_poly_json(p)), cs
        lp = LaurentPoly(low, cs)
        assert str(lp) == _reference_render_terms([(lp.min_degree + i, c) for i, c in enumerate(lp.coeffs)]), cs
        assert json.dumps(lp.to_json()) == json.dumps(_reference_laurent_json(lp)), cs
        # canonical form: zeros stripped from the top of a polynomial, from both ends of a Laurent polynomial
        nonzero = [i for i, c in enumerate(cs) if c != 0]
        assert p.coeffs == (tuple(cs[: nonzero[-1] + 1]) if nonzero else ()), cs
        assert lp.coeffs == (tuple(cs[nonzero[0]: nonzero[-1] + 1]) if nonzero else ()), cs
        assert lp.min_degree == (low + nonzero[0] if nonzero else 0), cs


def test_prime_factors_and_mobius_match_brute_force():
    for n in range(1, 1001):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
        assert prime_factors(n) == tuple(primes), n
        squarefree = all(n % (p * p) for p in primes)
        assert _mobius(n) == ((-1) ** len(primes) if squarefree else 0), n
