"""Brute-force oracle: field tables, matrix scans, and the polynomial census."""

import functools
import itertools
import math
import random

import pytest

from monodromy import cli, fforacle
from monodromy.commuting import count_commuting_tuples
from monodromy.engine import count_conjugacy_classes, count_mixed_tuples, count_semisimple_tuples
from monodromy.exactpoly import NotDivisible
from monodromy.fforacle import (
    MODE_ALL_SEMISIMPLE,
    MODE_LAST_FREE,
    BudgetExceeded,
    CensusRecord,
    FieldSpec,
    UnsupportedField,
    brute_conj_count,
    brute_hom_count,
    enumerate_invertible,
    field_make,
    field_params,
    gl_order_int,
    is_semisimple,
    poly_type_census,
)
from monodromy.groupdiv import compose_perms, group_generate, parse_cycles
from monodromy.typecomb import FactorizationType, count_monic_with_type_at, enumerate_types

from matrix_groups import mat_vec


def test_field_make_supported():
    for p in (2, 3, 5, 7):
        for e in (1, 2, 3):
            f = field_make(p, e)
            assert f.size == p**e
    assert field_make(2, 1) is field_make(2, 1)


def test_field_make_rejects():
    with pytest.raises(UnsupportedField):
        field_make(11, 1)
    with pytest.raises(UnsupportedField):
        field_make(2, 4)
    with pytest.raises(UnsupportedField):
        field_make(2, 0)


def test_modulus_verification():
    # x^2 + 1 = (x + 1)^2 over F_2, so it must be rejected
    with pytest.raises(UnsupportedField):
        FieldSpec(2, 2, (1, 0, 1))
    with pytest.raises(UnsupportedField):
        FieldSpec(2, 2, (1, 1))  # wrong degree
    # x^3 + 1 = (x + 1)(x^2 + x + 1) over F_2: a reducible modulus of odd degree
    with pytest.raises(UnsupportedField):
        FieldSpec(2, 3, (1, 0, 0, 1))


def _reference_tables(p, e, modulus):
    """Add and multiply tables by digit-wise sums and convolution reduced by long division mod p."""
    size = p**e
    digits = [[v // p**i % p for i in range(e)] for v in range(size)]

    def undigits(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    def mul(da, db):
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                conv[i + j] = (conv[i + j] + x * y) % p
        for top in range(len(conv) - 1, e - 1, -1):  # the modulus is monic: cancel each high term
            lead, shift = conv[top], top - e
            for i, c in enumerate(modulus):
                conv[shift + i] = (conv[shift + i] - lead * c) % p
        return undigits(conv[:e])

    add = tuple(tuple(undigits((x + y) % p for x, y in zip(da, db)) for db in digits) for da in digits)
    return add, tuple(tuple(mul(da, db) for db in digits) for da in digits)


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3)])
def test_field_tables_match_long_division(p, e):
    f = field_make(p, e)
    assert (f.add_table, f.mul_table) == _reference_tables(p, e, f.modulus)
    assert all(f.mul_table[a][f.inv_table[a]] == 1 for a in range(1, f.size))
    assert all(f.add_table[a][f.neg_table[a]] == 0 for a in range(f.size))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms_exhaustive(p, e):
    f = field_make(p, e)
    add, mul = f.add_table, f.mul_table
    els = range(f.size)
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a][f.neg_table[a]] == 0
        if a != 0:
            assert mul[a][f.inv_table[a]] == 1
    for a in els:
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_field_multiplicative_order():
    # the nonzero elements of F_9 form a cyclic group of order 8
    f = field_make(3, 2)
    orders = []
    for a in range(1, f.size):
        x, order = a, 1
        while x != 1:
            x = f.mul_table[x][a]
            order += 1
        orders.append(order)
    assert max(orders) == 8
    assert sorted(orders).count(8) == 4  # euler phi of 8


def test_frobenius_is_additive():
    # (a + b)^p = a^p + b^p in characteristic p
    f = field_make(2, 3)
    add = f.add_table
    frob = {a: f.mul_table[a][a] for a in range(f.size)}
    for a in range(f.size):
        for b in range(f.size):
            assert frob[add[a][b]] == add[frob[a]][frob[b]]


def test_gl_order_int():
    assert gl_order_int(2, 1) == 1
    assert gl_order_int(2, 2) == 6
    assert gl_order_int(3, 2) == 48
    assert gl_order_int(4, 2) == 180
    assert gl_order_int(5, 2) == 480
    assert gl_order_int(2, 3) == 168


def _reference_det(f, m):
    """Determinant of a flat matrix by elimination over the field tables, kept as an independent invertibility test."""
    n = math.isqrt(len(m))
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    a = [list(m[i:i + n]) for i in range(0, n * n, n)]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = neg[det]
        det = mul[det][a[col][col]]
        inv_p = f.inv_table[a[col][col]]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = mul[a[r][col]][inv_p]
                a[r] = [add[x][neg[mul[factor][y]]] for x, y in zip(a[r], a[col])]
    return det


@pytest.mark.parametrize(
    "p,e,n",
    [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)],
)
def test_enumerate_invertible_count(p, e, n):
    f = field_make(p, e)
    mats = list(enumerate_invertible(n, f))
    assert len(mats) == gl_order_int(f.size, n)
    assert all(isinstance(m, tuple) and len(m) == n * n for m in mats)
    assert len(set(mats)) == len(mats)
    for m in mats[:20]:
        assert _reference_det(f, m) != 0


def test_enumerate_invertible_budget():
    # one ceiling on |GL_n(F_q)|: GL_3(F_3), GL_4(F_2) and GL_2(F_9) fit, GL_3(F_4) and GL_2(F_25) do not
    for n, q in [(3, 3), (4, 2), (2, 9)]:
        assert gl_order_int(q, n) <= fforacle.GL_ORDER_BUDGET
    with pytest.raises(BudgetExceeded):
        list(enumerate_invertible(2, field_make(5, 2)))
    with pytest.raises(BudgetExceeded):
        enumerate_invertible(3, field_make(2, 2))
    with pytest.raises(BudgetExceeded):
        brute_conj_count(3, field_make(2, 2), 1)
    with pytest.raises(BudgetExceeded):
        brute_hom_count(3, field_make(2, 2), 1, MODE_ALL_SEMISIMPLE)
    # far past the ceiling the group is named, not its order built
    with pytest.raises(BudgetExceeded, match=r"^\|GL_120\(F_2\)\| exceeds the ceiling 25000;"):
        enumerate_invertible(120, field_make(2, 1))
    with pytest.raises(ValueError):
        enumerate_invertible(0, field_make(2, 1))


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (7, 1, 2)])
def test_enumerate_invertible_is_lexicographic(p, e, n):
    # rows built outside the span of the rows before give exactly the
    # nonzero-determinant flat matrices in itertools.product order, so
    # indices into the stream are stable
    f = field_make(p, e)
    expected = [m for m in itertools.product(range(f.size), repeat=n * n) if _reference_det(f, m)]
    assert list(enumerate_invertible(n, f)) == expected


def test_field_of_size():
    assert field_make(*field_params(9)) == field_make(3, 2)
    assert field_make(*field_params(7)) == field_make(7, 1)
    assert field_params(343) == (7, 3)
    for q in (6, 11):
        with pytest.raises(UnsupportedField):
            field_params(q)
    with pytest.raises(UnsupportedField):
        field_make(*field_params(16))


# Matrix helpers only the tests use, on the oracle's flat row-major tuples:
# the oracle itself multiplies with ``_mat_mul_raw`` and never inverts.


def identity_matrix(n: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(n) for j in range(n))


def mat_mul(f: FieldSpec, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) != len(b):
        raise ValueError("matrix shapes differ")
    return fforacle._mat_mul_raw(f.add_table, f.mul_table, a, b)


def mat_inv(f: FieldSpec, m: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse by reducing [M | I]; M is singular exactly when the pivots are not 0 .. n-1."""
    n = math.isqrt(len(m))
    rows = [list(m[i * n:(i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
    if fforacle._rref(f, rows) != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(v for row in rows for v in row[n:])


def test_mat_inverse_round_trip():
    f = field_make(3, 1)
    rng = random.Random(11)
    ident = identity_matrix(3)
    found = 0
    while found < 10:
        m = tuple(rng.randrange(3) for _ in range(9))
        if _reference_det(f, m) == 0:
            continue
        found += 1
        assert mat_mul(f, m, mat_inv(f, m)) == ident
        assert mat_mul(f, mat_inv(f, m), m) == ident
    singular = (1, 2, 2, 1)  # det = 1 - 4 = 0 mod 3
    assert _reference_det(f, singular) == 0
    with pytest.raises(ZeroDivisionError):
        mat_inv(f, singular)
    with pytest.raises(ValueError):
        mat_mul(f, singular, ident)


def test_mat_vec():
    f = field_make(2, 1)
    assert mat_vec(f, (1, 1, 0, 1), (1, 1)) == (0, 1)
    assert mat_vec(f, identity_matrix(2), (1, 0)) == (1, 0)


def test_is_semisimple_cases():
    f2 = field_make(2, 1)
    assert is_semisimple(f2, identity_matrix(2))
    assert not is_semisimple(f2, (1, 1, 0, 1))
    assert is_semisimple(f2, (0, 1, 1, 1))
    f3 = field_make(3, 1)
    # distinct eigenvalues 1, 2
    assert is_semisimple(f3, (1, 0, 0, 2))
    assert not is_semisimple(f3, (1, 1, 0, 1))
    # singular 3x3 matrices: semisimple exactly when the nilpotent part is zero
    for f in (f2, f3, field_make(2, 2), field_make(5, 1)):
        assert is_semisimple(f, (0, 0, 0, 0, 0, 0, 0, 0, 0))
        assert is_semisimple(f, (1, 0, 0, 0, 0, 0, 0, 0, 0))
        assert not is_semisimple(f, (0, 1, 0, 0, 0, 1, 0, 0, 0))  # J_3(0)
        assert not is_semisimple(f, (0, 1, 0, 0, 0, 0, 0, 0, 1))  # J_2(0) + (1)
    # any sequence of codes is accepted; the answer is the tuple's
    assert is_semisimple(f3, [1, 0, 0, 2]) and not is_semisimple(f3, [1, 1, 0, 1])


def test_is_semisimple_checks_its_input():
    f3 = field_make(3, 1)
    for length in (0, 2, 3, 5, 8):  # not a positive square
        with pytest.raises(ValueError, match="do not make a square matrix"):
            is_semisimple(f3, (1,) * length)
    for bad in (3, -1):  # outside F_3's codes 0 .. 2
        with pytest.raises(ValueError, match="out of range"):
            is_semisimple(f3, (1, 0, 0, bad))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_is_semisimple_matches_trace_determinant_2x2(p, e):
    # a 2x2 matrix is semisimple iff it is scalar or its characteristic
    # polynomial x^2 - tx + d is separable: t^2 != 4d for odd p, t != 0 for p = 2
    f = field_make(p, e)
    add, mul = f.add_table, f.mul_table
    four = add[add[1][1]][add[1][1]]
    for a, b, c, d in itertools.product(range(f.size), repeat=4):
        t = add[a][d]
        det = add[mul[a][d]][f.neg_table[mul[b][c]]]
        if b == c == 0 and a == d:
            expected = True
        elif p == 2:
            expected = t != 0
        else:
            expected = mul[t][t] != mul[four][det]
        assert is_semisimple(f, (a, b, c, d)) == expected, (a, b, c, d)


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_semisimple_iff_order_coprime_to_p(p, e, n):
    # over characteristic p, an invertible matrix is semisimple exactly when
    # its multiplicative order is prime to p
    f = field_make(p, e)
    ident = identity_matrix(n)
    for m in enumerate_invertible(n, f):
        x, order = m, 1
        while x != ident:
            x = mat_mul(f, x, m)
            order += 1
        assert is_semisimple(f, m) == (order % p != 0)


def test_count_semisimple_elements():
    # one-entry tuples: the semisimple elements themselves
    assert brute_hom_count(2, field_make(2, 1), 1, MODE_ALL_SEMISIMPLE) == 3
    assert brute_hom_count(2, field_make(3, 1), 1, MODE_ALL_SEMISIMPLE) == 32


def test_brute_hom_counts_semisimple():
    assert brute_hom_count(2, field_make(2, 1), 2, MODE_ALL_SEMISIMPLE) == 9
    assert brute_hom_count(2, field_make(3, 1), 2, MODE_ALL_SEMISIMPLE) == 256
    assert brute_hom_count(2, field_make(3, 1), 3, MODE_ALL_SEMISIMPLE) == 1856
    assert brute_hom_count(1, field_make(3, 1), 2, MODE_ALL_SEMISIMPLE) == 4
    assert brute_hom_count(2, field_make(2, 1), 1, MODE_ALL_SEMISIMPLE) == 3


def test_brute_hom_counts_last_free():
    assert brute_hom_count(2, field_make(2, 1), 2, MODE_LAST_FREE) == 12
    assert brute_hom_count(2, field_make(3, 1), 2, MODE_LAST_FREE) == 288
    # k = 1 with a free slot is the whole group
    assert brute_hom_count(2, field_make(2, 1), 1, MODE_LAST_FREE) == 6


def test_brute_hom_validation():
    with pytest.raises(ValueError):
        brute_hom_count(2, field_make(2, 1), 0, MODE_ALL_SEMISIMPLE)
    with pytest.raises(ValueError):
        brute_hom_count(2, field_make(2, 1), 2, "sideways")
    with pytest.raises(BudgetExceeded):  # |GL_3(F_4)| = 181440 is past the ceiling
        brute_hom_count(3, field_make(2, 2), 2, MODE_ALL_SEMISIMPLE)


def _pairwise_centralizers(elements, product):
    """For each index, the indices of the elements commuting with it, by testing every pair."""
    return tuple(
        frozenset(j for j, b in enumerate(elements) if product(a, b) == product(b, a)) for a in elements
    )


def _perm_group(domain, *cycle_texts):
    table = group_generate([parse_cycles(t, domain) for t in cycle_texts])
    odd = frozenset(i for i, order in enumerate(table.orders) if order % 2)
    return table.elements, compose_perms, table.centralizers, odd


def _gl2f2():
    f = field_make(2, 1)
    ctx = fforacle._group_context(f, 2)
    return ctx.mats, functools.partial(mat_mul, f), ctx.centralizers, ctx.ss_set


@pytest.mark.parametrize(
    "group",
    [
        lambda: _perm_group(3, "(1 2)", "(1 2 3)"),
        lambda: _perm_group(4, "(1 2 3 4)", "(1 3)"),
        lambda: _perm_group(8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"),
        _gl2f2,
    ],
    ids=["S3", "D4", "Q8", "GL2F2"],
)
def test_count_commuting_tuples_matches_naive(group):
    elements, product, cents, restricted = group()
    assert cents == _pairwise_centralizers(elements, product)
    everything = frozenset(range(len(elements)))

    def commute(t):
        return all(product(elements[a], elements[b]) == product(elements[b], elements[a])
                   for a, b in itertools.combinations(t, 2))

    for allowed in (everything, restricted):
        for k in (1, 2, 3):
            naive = sum(1 for t in itertools.product(sorted(allowed), repeat=k) if commute(t))
            assert count_commuting_tuples(cents, allowed, k) == naive
            for free in (everything, restricted):
                naive_free = sum(
                    1 for t in itertools.product(sorted(allowed), repeat=k)
                    for x in free if commute(t + (x,))
                )
                assert count_commuting_tuples(cents, allowed, k, free=free) == naive_free


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)],
                         ids=["GL2F2", "GL2F3", "GL2F4", "GL3F2"])
def test_kernel_centralizers_match_pairwise_scan(p, e, n):
    f = field_make(p, e)
    ctx = fforacle._GroupContext(f, n)

    def product(a, b):
        return fforacle._mat_mul_raw(f.add_table, f.mul_table, a, b)

    assert ctx.centralizers == _pairwise_centralizers(ctx.mats, product)


@pytest.mark.parametrize(
    "n,p,e,k",
    [(2, 2, 3, 2), (2, 2, 3, 3), (3, 3, 1, 2)],
    ids=["GL2F8-k2", "GL2F8-k3", "GL3F3-k2"],
)
def test_oracle_matches_engine_beyond_the_pair_scan(n, p, e, k):
    # GL_2(F_8) and GL_3(F_3) both fit the |GL_n(F_q)| ceiling without
    # override; the commutant kernels make them cheap enough for the default run
    f = field_make(p, e)
    q = f.size
    assert brute_hom_count(n, f, k, MODE_ALL_SEMISIMPLE) == count_semisimple_tuples(n, k).evaluate(q)
    assert brute_hom_count(n, f, k, MODE_LAST_FREE) == count_mixed_tuples(n, k).evaluate(q)
    assert brute_conj_count(n, f, k) == count_conjugacy_classes(n, k).evaluate(q)


def test_oracle_matches_engine_at_gl4_f2():
    # one test, so the cached GL_4(F_2) context is built once for all five counts
    f = field_make(2, 1)
    for k in (1, 2):
        assert brute_hom_count(4, f, k, MODE_ALL_SEMISIMPLE) == count_semisimple_tuples(4, k).evaluate(2)
        assert brute_conj_count(4, f, k) == count_conjugacy_classes(4, k).evaluate(2)
    assert brute_hom_count(4, f, 2, MODE_LAST_FREE) == count_mixed_tuples(4, 2).evaluate(2)


@pytest.mark.reach
def test_oracle_matches_engine_at_gl3_f4():
    # |GL_3(F_4)| = 181440 is past the ceiling; one test, so the context is built once for all three counts
    f = field_make(2, 2)
    assert brute_hom_count(3, f, 2, MODE_ALL_SEMISIMPLE, True) == count_semisimple_tuples(3, 2).evaluate(4)
    assert brute_hom_count(3, f, 2, MODE_LAST_FREE, True) == count_mixed_tuples(3, 2).evaluate(4)
    assert brute_conj_count(3, f, 2, True) == count_conjugacy_classes(3, 2).evaluate(4)


@pytest.mark.parametrize(
    "n,q",
    [(2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 2), (3, 3)],
    ids=str,
)
def test_per_commutant_flags_match_per_element_tests(n, q):
    f = field_make(*field_params(q))
    ctx = fforacle._group_context(f, n)
    assert ctx.ss_set == frozenset(i for i, m in enumerate(ctx.mats) if is_semisimple(f, m))


@pytest.mark.reach
def test_per_commutant_flags_match_per_element_tests_at_gl4_f2():
    # about 4 s: per-element tests on the 20160 elements
    f = field_make(2, 1)
    ctx = fforacle._group_context(f, 4)
    assert ctx.ss_set == frozenset(i for i, m in enumerate(ctx.mats) if is_semisimple(f, m))


def test_context_reads_semisimplicity_off_unit_counts(monkeypatch):
    def refuse(field, m):
        raise AssertionError("the context tests no element")

    monkeypatch.setattr(fforacle, "is_semisimple", refuse)
    for (p, n), semisimple in {(3, 2): 32, (2, 3): 105}.items():
        assert len(fforacle._GroupContext(field_make(p, 1), n).ss_set) == semisimple


def _two_by_two_cases(f):
    """(matrix, |F_q[X]^x|, semisimple) for a scalar, a Jordan block, a non-split companion and a split diagonal."""
    q, add_t, mul_t, neg_t = f.size, f.add_table, f.mul_table, f.neg_table
    # x^2 + a x + b with no root in F_q
    a, b = next((a, b) for a in range(q) for b in range(1, q)
                if all(add_t[add_t[mul_t[x][x]][mul_t[a][x]]][b] for x in range(q)))
    cases = [((1, 0, 0, 1), q - 1, True), ((1, 1, 0, 1), q * (q - 1), False),
             ((0, neg_t[b], 1, neg_t[a]), q * q - 1, True)]
    if q > 2:  # F_2 has one unit, so no diagonal with two distinct eigenvalues
        cases.append(((1, 0, 0, 2), (q - 1) ** 2, True))
    return cases


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_unit_count_rule_on_two_by_two_algebras(q):
    # |F_q[X]^x| = prod q^(d_i (e_i - 1)) (q^d_i - 1) is prime to p exactly when X is semisimple
    f = field_make(*field_params(q))
    ctx = fforacle._group_context(f, 2)
    mats = set(ctx.mats)
    for m, units, semisimple in _two_by_two_cases(f):
        span = fforacle._span(f, fforacle._algebra_key(f, m))
        assert sum(v in mats for v in span) == units, m
        assert (units % f.p != 0) == semisimple, m
        assert is_semisimple(f, m) == (ctx.mats.index(m) in ctx.ss_set) == semisimple, m


@functools.lru_cache(maxsize=None)
def _keyed_per_element(n, q):
    """Algebra ids from ``_algebra_key`` of every element, numbered in order of first element, and the keys in id order."""
    f = field_make(*field_params(q))
    by_algebra: dict = {}
    ids = [by_algebra.setdefault(fforacle._algebra_key(f, m), len(by_algebra))
           for m in enumerate_invertible(n, f, override_budget=True)]
    return ids, tuple(by_algebra)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 2), (3, 3), (4, 2)],
                         ids=str)
def test_span_marked_ids_match_per_element_keys(n, q):
    # the context keys one element per affine class and marks the rest of
    # the class; keying every element gives the same ids
    f = field_make(*field_params(q))
    assert fforacle._group_context(f, n)._algebra_ids == _keyed_per_element(n, q)[0]


@pytest.mark.parametrize("n,q,classes", [(2, 7, 58), (3, 2, 144), (3, 3, 3047)], ids=["GL2F7", "GL3F2", "GL3F3"])
def test_context_keys_each_affine_class_once(monkeypatch, n, q, classes):
    # F_q[aX + sI] = F_q[X] for a != 0, so one key serves the class {aX + sI};
    # each of the 58 algebras of GL_2(F_7) is one class
    f = field_make(*field_params(q))
    calls = []
    algebra_key = fforacle._algebra_key

    def counting(field, x):
        calls.append(x)
        return algebra_key(field, x)

    monkeypatch.setattr(fforacle, "_algebra_key", counting)
    ctx = fforacle._GroupContext(f, n)
    identity = fforacle._identity(n)

    def affine_class(x):
        return min(tuple(f.add_table[f.mul_table[a][v]][f.mul_table[s][e]] for v, e in zip(x, identity))
                   for a in range(1, q) for s in range(q))

    assert len({affine_class(x) for x in calls}) == len(calls) == classes
    assert len({affine_class(x) for x in ctx.mats}) == classes


@pytest.mark.parametrize("n,p,e", [(2, 2, 3), (2, 3, 2), (3, 3, 1), (4, 2, 1)],
                         ids=["GL2F8", "GL2F9", "GL3F3", "GL4F2"])
def test_algebra_key_partition_matches_commutant_partition(n, p, e):
    # the bicommutant of X is F_q[X]: numbering elements by algebra and by
    # commutant, each in order of first element, gives the same ids
    f = field_make(p, e)
    mats = list(enumerate_invertible(n, f))
    by_commutant: dict = {}
    algebra_ids, keys = _keyed_per_element(n, f.size)
    commutant_ids = [by_commutant.setdefault(fforacle._commutant_basis(f, m), len(by_commutant)) for m in mats]
    assert algebra_ids == commutant_ids
    assert fforacle._group_context(f, n)._algebra_ids == algebra_ids
    for key, basis in zip(keys, by_commutant):  # an n-dimensional algebra is its own commutant
        assert (len(key) == n) == (len(basis) == n)
        if len(key) == n:
            assert set(fforacle._span(f, key)) == set(fforacle._span(f, basis))


def test_kernels_are_solved_once_per_algebra_and_only_for_centralizers(monkeypatch):
    f = field_make(2, 1)
    calls = []
    commutant_basis = fforacle._commutant_basis

    def counting(field, x):
        calls.append(x)
        return commutant_basis(field, x)

    monkeypatch.setattr(fforacle, "_commutant_basis", counting)
    ctx = fforacle._GroupContext(f, 3)
    monkeypatch.setattr(fforacle, "_group_context", lambda field, n: ctx)
    assert brute_hom_count(3, f, 1, MODE_ALL_SEMISIMPLE) == 105
    assert brute_hom_count(3, f, 1, MODE_LAST_FREE) == 168
    assert calls == []
    assert len(ctx.centralizers) == 168
    # GL_3(F_2) has 79 algebras F_q[X]; the 22 of dimension below 3 need a kernel solve
    assert len(calls) == 22
    assert len({fforacle._algebra_key(f, x) for x in calls}) == 22


def test_brute_conj_counts():
    assert brute_conj_count(2, field_make(2, 1), 1) == 2
    assert brute_conj_count(2, field_make(2, 1), 2) == 5
    # semisimple classes of GL_2(F_3): two central, one split, three irreducible
    assert brute_conj_count(2, field_make(3, 1), 1) == 6
    with pytest.raises(ValueError):
        brute_conj_count(2, field_make(2, 1), 0)


@pytest.mark.parametrize("n,p,ks", [(2, 2, (1, 2, 3)), (2, 3, (1, 2)), (3, 2, (1, 2))],
                         ids=["GL2F2", "GL2F3", "GL3F2"])
def test_brute_conj_matches_orbit_enumeration(n, p, ks):
    # reference: sweep the commuting semisimple tuples, marking the whole orbit
    # of each unseen one by conjugating it with every group element
    f = field_make(p, 1)
    mats = list(enumerate_invertible(n, f))
    semisimple = [m for m in mats if is_semisimple(f, m)]
    with_inverses = [(g, mat_inv(f, g)) for g in mats]
    for k in ks:
        seen = set()
        orbits = 0
        for t in itertools.product(semisimple, repeat=k):
            if t in seen or any(mat_mul(f, a, b) != mat_mul(f, b, a) for a, b in itertools.combinations(t, 2)):
                continue
            orbits += 1
            seen.update(tuple(mat_mul(f, mat_mul(f, g, x), g_inv) for x in t) for g, g_inv in with_inverses)
        assert brute_conj_count(n, f, k) == orbits


def test_brute_conj_certifies_the_division(monkeypatch):
    # drop one commuting element from one centralizer set of a fresh context:
    # the stabilizer sum stops being a multiple of |G| and the count refuses
    f = field_make(2, 1)
    ctx = fforacle._GroupContext(f, 2)
    cents = list(ctx.centralizers)
    x = min(i for i in ctx.ss_set if len(cents[i]) > 1)
    cents[x] = cents[x] - {max(cents[x] - {x})}
    ctx.centralizers = tuple(cents)
    monkeypatch.setattr(fforacle, "_group_context", lambda field, n: ctx)
    with pytest.raises(NotDivisible):
        brute_conj_count(2, f, 1)
    # the command line reports it as an internal invariant violation
    assert cli.main(["verify", "--n", "2", "--k", "1", "--mode", "conj", "--q", "2"]) == 3


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)], ids=["GL2F2", "GL2F3", "GL3F2"])
def test_brute_conj_is_the_last_free_count_over_the_group_order(monkeypatch, n, p):
    f = field_make(p, 1)
    order = gl_order_int(p, n)
    for k in (1, 2, 3):
        assert brute_conj_count(n, f, k) * order == brute_hom_count(n, f, k + 1, MODE_LAST_FREE)
    monkeypatch.setattr(fforacle, "brute_hom_count", lambda *args: order + 1)
    with pytest.raises(NotDivisible, match=f"is not a multiple of .* = {order}$"):
        brute_conj_count(n, f, 1)


def test_k_one_hom_counts_skip_the_centralizer_scan(monkeypatch):
    f = field_make(3, 1)
    ctx = fforacle._GroupContext(f, 2)
    monkeypatch.setattr(fforacle, "_group_context", lambda field, n: ctx)
    assert brute_hom_count(2, f, 1, MODE_ALL_SEMISIMPLE) == 32
    assert brute_hom_count(2, f, 1, MODE_LAST_FREE) == 48
    assert "centralizers" not in vars(ctx)


def test_commuting_pairs_are_conjugation_stable():
    # conjugating both entries of a commuting semisimple pair lands on another one
    f = field_make(2, 1)
    mats = list(enumerate_invertible(2, f))
    pairs = set()
    for a in mats:
        for b in mats:
            if is_semisimple(f, a) and is_semisimple(f, b) and mat_mul(f, a, b) == mat_mul(f, b, a):
                pairs.add((a, b))
    assert len(pairs) == 9
    for g in mats:
        ginv = mat_inv(f, g)
        for a, b in pairs:
            ca = mat_mul(f, mat_mul(f, g, a), ginv)
            cb = mat_mul(f, mat_mul(f, g, b), ginv)
            assert (ca, cb) in pairs


def test_poly_type_census_small():
    f2 = field_make(2, 1)
    records = poly_type_census(f2, 2)
    assert [r.count for r in records] == [1, 1, 0]
    assert [r.type for r in records] == list(enumerate_types(2))
    f3 = field_make(3, 1)
    assert [r.count for r in poly_type_census(f3, 2)] == [3, 2, 1]


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2), (5, 1, 2)])
def test_census_totals(p, e, n):
    f = field_make(p, e)
    records = poly_type_census(f, n)
    assert sum(r.count for r in records) == (f.size - 1) * f.size ** (n - 1)
    # each tally is reproduced by the type's count at q
    for r in records:
        assert count_monic_with_type_at(r.type, f.size) == r.count


@pytest.mark.parametrize("p,n", [(2, 4), (3, 4), (2, 5), (3, 5)])
def test_census_past_the_degree_cutoff(p, n):
    # degrees past n/2, where irreducibles of degree above n/2 occur in products
    # with a lower-degree cofactor
    f = field_make(p, 1)
    records = poly_type_census(f, n)
    assert [r.type for r in records] == list(enumerate_types(n))
    assert sum(r.count for r in records) == (p - 1) * p ** (n - 1)
    for r in records:
        assert count_monic_with_type_at(r.type, p) == r.count


def test_census_budget():
    with pytest.raises(BudgetExceeded):
        poly_type_census(field_make(7, 3), 4)
    with pytest.raises(BudgetExceeded, match=r"^census would scan 7\^100000 polynomials;"):
        poly_type_census(field_make(7, 1), 100000)
    with pytest.raises(ValueError):
        poly_type_census(field_make(2, 1), 0)


def _reference_census(f, n):
    """The trial-division factorizer the sieve replaced, kept as a reference."""

    add, mul, neg = f.add_table, f.mul_table, f.neg_table

    def divmod_poly(a, b):
        inv_lead = f.inv_table[b[-1]]
        rem = list(a)
        quo = [0] * max(len(a) - len(b) + 1, 0)
        while len(rem) >= len(b):
            factor = mul[rem[-1]][inv_lead]
            shift = len(rem) - len(b)
            quo[shift] = factor
            for i, c in enumerate(b):
                rem[shift + i] = add[rem[shift + i]][neg[mul[factor][c]]]
            while rem and rem[-1] == 0:
                rem.pop()
        while quo and quo[-1] == 0:
            quo.pop()
        return tuple(quo), tuple(rem)

    irreducibles = {}
    for d in range(1, n // 2 + 1):
        divisors = [irr for dd in range(1, d // 2 + 1) for irr in irreducibles[dd]]
        irreducibles[d] = [
            low + (1,)
            for low in itertools.product(range(f.size), repeat=d)
            if all(divmod_poly(low + (1,), irr)[1] for irr in divisors)
        ]
    tally = {t: 0 for t in enumerate_types(n)}
    for low in itertools.product(range(f.size), repeat=n):
        if low[0] == 0:
            continue
        remaining = low + (1,)
        exponents = {}
        for d in range(1, n + 1):
            degree = len(remaining) - 1
            if degree < 2 * d:
                if degree:
                    exponents[degree] = [1]
                    remaining = (1,)
                break
            for irr in irreducibles[d]:
                mult = 0
                while True:
                    quo, rem = divmod_poly(remaining, irr)
                    if rem:
                        break
                    remaining = quo
                    mult += 1
                if mult:
                    exponents.setdefault(d, []).append(mult)
        assert remaining == (1,)
        parts = tuple(
            sorted((d for d, exps in exponents.items() for e in exps for _ in range(e)), reverse=True)
        )
        refinements = tuple(
            (d, tuple(sorted(exponents[d], reverse=True))) for d in sorted(exponents, reverse=True)
        )
        tally[FactorizationType(parts, refinements)] += 1
    return tuple(CensusRecord(t, tally[t]) for t in enumerate_types(n))


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(1, 12) if q**n <= 3000])
def test_census_matches_trial_division(q, n):
    f = field_make(*field_params(q))
    assert poly_type_census(f, n) == _reference_census(f, n)


def test_census_rejects_a_ring_with_zero_divisors():
    # F_2[x]/(x^2) shares F_4's addition but eps^2 = 0, so (x + eps)^2 = x^2 has constant term zero
    f = FieldSpec(2, 2, (1, 1, 1))

    def dual(a, b):  # (a0 + a1 eps)(b0 + b1 eps) = a0 b0 + (a0 b1 + a1 b0) eps
        (a1, a0), (b1, b0) = divmod(a, 2), divmod(b, 2)
        return a0 * b0 % 2 + 2 * ((a0 * b1 + a1 * b0) % 2)

    # mul_table is not a field of the FieldSpec record, so it can be replaced without changing equality
    object.__setattr__(f, "mul_table", tuple(tuple(dual(a, b) for b in range(4)) for a in range(4)))
    assert f == field_make(2, 2)
    with pytest.raises(ValueError, match="not a field"):
        poly_type_census(f, 2)
