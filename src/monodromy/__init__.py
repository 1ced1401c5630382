"""Exact counts of commuting matrix tuples over finite fields.

The engine computes the counting polynomials; the oracle recomputes small
cases by brute force over explicit finite fields; the group module checks
the divisibility phenomena the counts exhibit in arbitrary finite groups.
"""

from .exactpoly import (
    LaurentPoly,
    NotDivisible,
    NotLaurent,
    RationalFunction,
    UnivariatePoly,
    to_laurent,
)
from .engine import (
    CountingPolynomial,
    DegreeViolation,
    IntegralityViolation,
    InvalidArity,
    MonicViolation,
    NonIntegerCoefficient,
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
from .typecomb import (
    FactorizationType,
    aut_factor,
    count_irreducibles,
    count_monic_with_type,
    enumerate_partitions,
    enumerate_types,
    type_pairs,
)
from .fforacle import (
    BudgetExceeded,
    CensusRecord,
    FFMatrix,
    FieldSpec,
    UnsupportedField,
    brute_conj_count,
    brute_hom_count,
    enumerate_invertible,
    field_make,
    is_semisimple,
    poly_type_census,
)
from .groupdiv import (
    ClosureBudgetExceeded,
    DivisibilityReport,
    FiniteGroupTable,
    PreconditionViolated,
    coset_p_power_count,
    divisibility_report,
    frobenius_count,
    group_generate,
    hom_count_profinite_abelian,
    load_corpus,
    matrix_group_table,
)

__version__ = "0.1.0"
