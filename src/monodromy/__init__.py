"""Exact counts of commuting matrix tuples over finite fields.

The engine computes the counting polynomials; the oracle recomputes small
cases by brute force over explicit finite fields; the group module checks
the divisibility phenomena the counts exhibit in arbitrary finite groups.

``Refusal`` and ``decimal_str`` are defined here for every layer; the
other names load on first use (PEP 562), so importing the package, or one
of its modules, compiles only what that use needs.
"""

import importlib


class Refusal(Exception):
    """The request is refused, as invalid input or over a ceiling; the CLI exits 2."""


_STR_SAFE = 10**640  # ints below this have at most 640 digits, the least int-to-str limit that can be set


def decimal_str(value) -> str:
    """``str`` of an int or Fraction of any length; ``str`` refuses ints past 4300 digits by default."""
    if value.denominator != 1:
        return f"{decimal_str(value.numerator)}/{decimal_str(value.denominator)}"
    value = value.numerator
    if -_STR_SAFE < value < _STR_SAFE:
        return str(value)
    if value < 0:
        return "-" + decimal_str(-value)
    half = value.bit_length() * 3 // 20  # 3/10 < log10(2), so value // 10**half >= 1
    high, low = divmod(value, 10**half)
    return decimal_str(high) + decimal_str(low).zfill(half)


_EXPORTS = {
    "exactpoly": (
        "LaurentPoly", "NotDivisible", "NotLaurent", "RationalFunction", "UnivariatePoly", "to_laurent",
    ),
    "engine": (
        "CountingPolynomial", "DegreeViolation", "IntegralityViolation", "InvalidArity", "MonicViolation",
        "WeightCache", "check_degree_monic", "check_laurent_quotient", "count_conjugacy_classes",
        "count_mixed_tuples", "count_semisimple_tuples", "gl_order", "hom_count", "mixed_weight", "ss_weight",
    ),
    "typecomb": (
        "FactorizationType", "aut_factor", "count_irreducibles", "count_monic_with_type",
        "enumerate_partitions", "enumerate_types", "type_pairs",
    ),
    "fforacle": (
        "BudgetExceeded", "CensusRecord", "FFMatrix", "FieldSpec", "UnsupportedField", "brute_conj_count",
        "brute_hom_count", "enumerate_invertible", "field_make", "is_semisimple", "poly_type_census",
    ),
    "groupdiv": (
        "ClosureBudgetExceeded", "DivisibilityReport", "FiniteGroupTable", "PreconditionViolated",
        "coset_p_power_count", "divisibility_report", "frobenius_count", "group_generate",
        "hom_count_profinite_abelian", "load_corpus", "matrix_group_table",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["Refusal", *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
