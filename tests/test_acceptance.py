"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
check is exact; the per-criterion wall-clock budgets are asserted too.
"""

import time
from contextlib import contextmanager

from monodromy.engine import (
    check_degree_monic,
    check_laurent_quotient,
    count_conjugacy_classes,
    count_mixed_tuples,
    count_semisimple_tuples,
)
from monodromy.exactpoly import UnivariatePoly, int_mul
from monodromy.fforacle import (
    MODE_ALL_SEMISIMPLE,
    MODE_LAST_FREE,
    brute_conj_count,
    brute_hom_count,
    field_make,
    poly_type_census,
)
from monodromy.groupdiv import (
    coset_lemma_sweep,
    divisibility_report,
    frobenius_count,
    hom_count_profinite_abelian,
    load_corpus,
)
from monodromy.typecomb import count_monic_with_type_at, enumerate_types

from matrix_groups import matrix_group_table

FIELD_BY_Q = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


def ascending(*coeffs):
    return UnivariatePoly(coeffs)


def gl_order(n):
    """|GL_n(q)| = prod_{j<n} (q^n - q^j), ascending integer coefficients."""
    result = (1,)
    for j in range(n):
        result = int_mul(result, (0,) * j + (-1,) + (0,) * (n - j - 1) + (1,))
    return result


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(f"criterion {number} ({name}): FAIL (runtime {elapsed:.2f}s over {budget_seconds:.0f}s)")
        raise AssertionError(f"criterion {number} runtime {elapsed:.2f}s exceeds {budget_seconds}s")
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_golden_polynomials():
    with criterion(1, "golden polynomials", 1):
        assert count_semisimple_tuples(2, 2).poly == ascending(1, -2, -1, 4, -1, -2, 1)
        assert count_semisimple_tuples(3, 2).poly == ascending(
            1, -2, 1, -2, 3, 2, -4, 0, -1, 4, -1, -2, 1
        )


def test_criterion_2_laurent_quotients():
    with criterion(2, "Laurent quotients", 1):
        lp2 = check_laurent_quotient(count_semisimple_tuples(2, 2))
        assert lp2.min_degree == -1
        assert lp2.coeffs == (1, -1, -1, 1)
        lp3 = check_laurent_quotient(count_semisimple_tuples(3, 2))
        assert lp3.min_degree == -3
        assert lp3.coeffs == (-1, 1, -1, 2, -1, -1, 1)


def test_criterion_3_semisimple_oracle_equivalence():
    # the grid includes GL_3(F_3), whose order 11232 is inside the
    # |GL_n(F_q)| ceiling; the oracle builds its centralizers from commutant
    # kernels, not a pair scan
    grid = [(2, 2, (2, 3, 4, 5)), (2, 3, (2, 3, 4, 5)), (2, 4, (2, 3, 4, 5)), (3, 2, (2, 3))]
    with criterion(3, "all-semisimple oracle equivalence", 300):
        for n, k, qs in grid:
            cp = count_semisimple_tuples(n, k)
            for q in qs:
                field = field_make(*FIELD_BY_Q[q])
                assert cp.evaluate(q) == brute_hom_count(n, field, k, MODE_ALL_SEMISIMPLE)


def test_criterion_4_mixed_oracle_equivalence():
    with criterion(4, "mixed oracle equivalence", 60):
        for n, k, q in [(2, 2, 2), (2, 2, 3), (2, 3, 2)]:
            cp = count_mixed_tuples(n, k)
            field = field_make(*FIELD_BY_Q[q])
            assert cp.evaluate(q) == brute_hom_count(n, field, k, MODE_LAST_FREE)
        # closed form at k = 2: |GL_n| * (q - 1) q^(n-1)
        closed = int_mul(gl_order(2), (0, -1, 1))
        assert count_mixed_tuples(2, 2).poly.coeffs == closed
        assert count_mixed_tuples(2, 2).evaluate(2) == 12
        assert count_mixed_tuples(2, 2).evaluate(3) == 288


def test_criterion_5_conjugacy_counts():
    with criterion(5, "conjugacy class counts", 60):
        for n, k, q in [(2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3)]:
            cp = count_conjugacy_classes(n, k)
            field = field_make(*FIELD_BY_Q[q])
            assert cp.evaluate(q) == brute_conj_count(n, field, k)
        assert count_conjugacy_classes(2, 2).evaluate(2) == 5
        # orbit-count identity as exact polynomials
        for n in range(1, 5):
            for k in range(1, 5):
                assert count_mixed_tuples(n, k + 1).poly.coeffs == int_mul(
                    gl_order(n), count_conjugacy_classes(n, k).poly.coeffs
                )


def test_criterion_6_factorization_census():
    with criterion(6, "factorization type census", 60):
        for n in (1, 2, 3):
            for q in (2, 3, 4, 5):
                field = field_make(*FIELD_BY_Q[q])
                for record in poly_type_census(field, n):
                    assert count_monic_with_type_at(record.type, q) == record.count
        # the type totals are (q - 1) q^(n - 1) at n + 1 points, so as polynomials of degree n
        for n in range(1, 9):
            for q in range(2, n + 3):
                assert sum(count_monic_with_type_at(t, q) for t in enumerate_types(n)) == (q - 1) * q ** (n - 1)


def test_criterion_7_structural_checks():
    with criterion(7, "structural checks", 120):
        for n in range(1, 5):
            for k in range(1, 5):
                ss = count_semisimple_tuples(n, k)
                assert ss.poly.is_integer()
                report = check_degree_monic(ss)
                assert report.bound_met
                if k == 2:
                    assert report.is_monic and report.degree_exact
                assert {*map(type, check_laurent_quotient(ss).coeffs)} == {int}
            for k in range(2, 5):
                mixed = count_mixed_tuples(n, k)
                assert mixed.poly.is_integer()
                # the same degree facts hold in mixed mode; checked directly
                assert mixed.poly.degree >= n * n + (k - 1) * n
                if k == 2:
                    assert mixed.poly.is_monic() and mixed.poly.degree == n * n + n
                assert {*map(type, check_laurent_quotient(mixed).coeffs)} == {int}


def test_criterion_8_divisibility_suite():
    with criterion(8, "group divisibility suite", 120):
        corpus = load_corpus()
        for table in corpus:
            for n in range(1, len(table) + 1):
                if len(table) % n == 0:
                    count, divides = frobenius_count(table, n)
                    assert divides, f"{table.name}: x^{n}=e count {count}"
            checks = coset_lemma_sweep(table)
            assert checks and all(c.ok for c in checks), table.name
            for k in (1, 2, 3):
                for primes in ((), (2,), (3,), (2, 3)):
                    assert divisibility_report(table, k, primes).passed
        # the matrix group over F_2 ties both halves together
        gl2f2 = matrix_group_table(field_make(2, 1), 2)
        assert hom_count_profinite_abelian(gl2f2, 2, (2,)) == 9
        assert count_semisimple_tuples(2, 2).evaluate(2) == 9
