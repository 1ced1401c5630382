"""The package's frozen value classes behave as the frozen dataclasses they replace."""

import dataclasses
from fractions import Fraction

import pytest

from monodromy import record
from monodromy.engine import MODE_SEMISIMPLE, CountingPolynomial, DegreeReport
from monodromy.exactpoly import LaurentPoly, UnivariatePoly
from monodromy.fforacle import CensusRecord, field_make, is_semisimple
from monodromy.groupdiv import CosetLemmaCheck, DivisibilityReport, PrimeValuation
from monodromy.rational import RationalFunction
from monodromy.typecomb import FactorizationType

Q = UnivariatePoly.variable()
F3 = field_make(3, 1)
TYPE = FactorizationType((2, 1), ((2, (1,)), (1, (1,))))
VALUATION = PrimeValuation(2, 3, 1, True)

SAMPLES = [
    UnivariatePoly((1, Fraction(-1, 2), 3)),
    UnivariatePoly(),
    RationalFunction(Q + 1, Q * Q),
    LaurentPoly(-2, (1, 0, 5)),
    CountingPolynomial(UnivariatePoly((0, 1)), 1, 1, MODE_SEMISIMPLE),
    DegreeReport(2, 2, 4, 4, True, True, True, True, True),
    TYPE,
    CensusRecord(TYPE, 12),
    VALUATION,
    DivisibilityReport("S3", 6, 1, (), 6, (VALUATION,), True),
    CosetLemmaCheck(2, 2, 0, 2, 2, True),
]


def fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj.__annotations__)


def dataclass_twin(obj):
    """The same field values in a frozen dataclass of the same name."""
    twin = dataclasses.make_dataclass(type(obj).__name__, list(obj.__annotations__), frozen=True)
    return twin(*fields(obj))


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda obj: type(obj).__name__)
def test_repr_and_hash_match_a_frozen_dataclass(obj):
    twin = dataclass_twin(obj)
    assert repr(obj) == repr(twin)
    assert hash(obj) == hash(twin) == hash(fields(obj))


def test_repr_literals():
    assert repr(VALUATION) == "PrimeValuation(prime=2, count_valuation=3, order_valuation=1, ok=True)"
    assert repr(UnivariatePoly((1, 0))) == "UnivariatePoly(coeffs=(1,))"


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda obj: type(obj).__name__)
def test_fields_are_frozen(obj):
    name = next(iter(obj.__annotations__))
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda obj: type(obj).__name__)
def test_equality_is_field_equality_within_one_class(obj):
    copy = type(obj)(*fields(obj))
    assert copy == obj and not copy != obj
    assert copy is not obj
    assert obj != dataclass_twin(obj)
    assert len({obj, copy}) == 1


def test_post_init_canonicalizes():
    assert UnivariatePoly((1, 0)) == UnivariatePoly((1,))
    assert UnivariatePoly(coeffs=(1, 0)).coeffs == (Fraction(1),)
    assert UnivariatePoly() == UnivariatePoly.zero()
    assert LaurentPoly(0, (0, 1)) == LaurentPoly(1, (1,))
    assert RationalFunction(Q * 2, Q * 4) == RationalFunction.from_poly(UnivariatePoly((Fraction(1, 2),)))


def test_keyword_and_mixed_construction():
    report = DegreeReport(n=2, k=2, degree=4, bound=4, bound_met=True, bound_enforced=True,
                          monic_checked=True, is_monic=True, degree_exact=True)
    assert report == DegreeReport(2, 2, 4, bound=4, bound_met=True, bound_enforced=True,
                                  monic_checked=True, is_monic=True, degree_exact=True)
    assert report.to_json()["bound"] == 4
    assert LaurentPoly(min_degree=3) == LaurentPoly(0)


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="takes 2 arguments but 3"):
        CensusRecord(TYPE, 1, 2)
    with pytest.raises(TypeError, match="missing argument 'count'"):
        CensusRecord(TYPE)
    with pytest.raises(TypeError, match=r"unexpected or repeated arguments \['type'\]"):
        CensusRecord(TYPE, type=TYPE, count=1)
    with pytest.raises(TypeError, match=r"unexpected or repeated arguments \['size'\]"):
        CensusRecord(TYPE, 1, size=2)


def test_invalid_values_still_raise_from_post_init():
    with pytest.raises(ValueError, match="not a partition"):
        FactorizationType((1, 2), ((2, (1,)), (1, (1,))))
    with pytest.raises(ValueError, match="refinements must cover"):
        FactorizationType((2, 1), ((2, (1,)),))
    # a matrix is a flat tuple, not a record: is_semisimple checks the one taken from a caller
    with pytest.raises(ValueError, match="do not make a square matrix"):
        is_semisimple(F3, (1, 2))
    with pytest.raises(ValueError, match="out of range"):
        is_semisimple(F3, (1, 2, 0, 3))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Q, UnivariatePoly())


def test_class_without_post_init():
    @record
    class Pair:
        left: int
        right: str = "r"

    assert Pair(1) == Pair(left=1, right="r")
    assert repr(Pair(1)) == "test_class_without_post_init.<locals>.Pair(left=1, right='r')"
    assert Pair(1) != (1, "r")
