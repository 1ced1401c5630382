"""Brute-force ground truth over small finite fields.

Everything here is deliberately naive: explicit field tables, explicit
matrix enumeration, centralizers as the invertible elements of each
commutant ker(Y -> XY - YX), solved by Gaussian elimination and enumerated
once per distinct commutant.  The point is to be an independent check on
the polynomial engine, so nothing is shared with it beyond the
factorization-type vocabulary.

A matrix is semisimple here when its order is prime to p, the
characteristic: ``is_semisimple`` tests m^(r+1) == m, with r the part of
|GL_n(F_q)| prime to p.

Supported fields are F_{p^e} for p in {2, 3, 5, 7} and e <= 3, with a fixed
modulus per (p, e) so element encodings are stable across runs.  Elements
are encoded as integers 0 .. p^e - 1 whose base-p digits, little-endian, are
the coefficients of the residue polynomial; 0 and 1 are the field's zero
and one under this encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .exactpoly import NotDivisible
from .typecomb import FactorizationType, enumerate_types

GL_ORDER_BUDGET = 25_000    # largest |GL_n(F_q)| any oracle scan enumerates without override
POWER_BUDGET = 10**6        # largest q^n for polynomial censuses
PAIRWISE_BUDGET = 4 * 10**7  # no longer checked here; perfbench's probe and span hooks still read it


class UnsupportedField(ValueError):
    """Field outside the fixed (p, e) table."""


class BudgetExceeded(RuntimeError):
    """Requested enumeration is larger than the configured ceiling."""


_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),     # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (3, 2): (1, 0, 1),     # x^2 + 1
    (3, 3): (1, 2, 0, 1),  # x^3 + 2x + 1
    (5, 2): (2, 0, 1),     # x^2 + 2
    (5, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (7, 2): (1, 0, 1),     # x^2 + 1
    (7, 3): (2, 0, 0, 1),  # x^3 + 2
}

_SUPPORTED_PRIMES = (2, 3, 5, 7)


def _pp_divmod(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Long division of base-p coefficient tuples over the prime field."""
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        factor = rem[-1] * inv_lead % p
        shift = len(rem) - len(b)
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return _fq_trim(quo), _fq_trim(rem)


class FieldSpec:
    """A small finite field with fully materialized arithmetic tables."""

    __slots__ = ("p", "e", "modulus", "size", "add_table", "mul_table", "neg_table", "inv_table")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.modulus = modulus
        self.size = p**e
        self._verify_modulus()
        self._build_tables()

    def _verify_modulus(self) -> None:
        mod = self.modulus
        if len(mod) != self.e + 1 or mod[-1] != 1 or any(not 0 <= c < self.p for c in mod):
            raise UnsupportedField(f"modulus {mod} is not monic of degree {self.e} over F_{self.p}")
        # trial division against every lower-degree monic polynomial
        for d in range(1, self.e):
            for low in itertools.product(range(self.p), repeat=d):
                candidate = low + (1,)
                if _pp_divmod(self.p, mod, candidate)[1] == ():
                    raise UnsupportedField(f"modulus {mod} is divisible by {candidate}")

    def _digits(self, value: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(value % self.p)
            value //= self.p
        return out

    def _undigits(self, digits) -> int:
        value = 0
        for d in reversed(list(digits)):
            value = value * self.p + d
        return value

    def _build_tables(self) -> None:
        p, e, size = self.p, self.e, self.size
        digits = [self._digits(v) for v in range(size)]
        add = []
        mul = []
        for a in range(size):
            da = digits[a]
            add.append(tuple(self._undigits((x + y) % p for x, y in zip(da, digits[b])) for b in range(size)))
            row = []
            for b in range(size):
                conv = [0] * (2 * e - 1 if e > 1 else 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(digits[b]):
                            conv[i + j] = (conv[i + j] + x * y) % p
                _, rem = _pp_divmod(p, _fq_trim(conv), self.modulus)
                row.append(self._undigits(list(rem) + [0] * (e - len(rem))))
            mul.append(tuple(row))
        self.add_table = tuple(add)
        self.mul_table = tuple(mul)
        self.neg_table = tuple(self._undigits((-d) % p for d in digits[a]) for a in range(size))
        inv = [0] * size
        for a in range(1, size):
            for b in range(1, size):
                if self.mul_table[a][b] == 1:
                    inv[a] = b
                    break
            else:
                raise UnsupportedField(f"element {a} has no inverse; modulus {self.modulus} reducible")
        self.inv_table = tuple(inv)

    # element arithmetic

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.inv_table[a]

    def elements(self) -> range:
        return range(self.size)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, e={self.e}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def field_make(p: int, e: int) -> FieldSpec:
    """The supported field F_{p^e}; raises UnsupportedField outside the table."""
    if p not in _SUPPORTED_PRIMES:
        raise UnsupportedField(f"characteristic {p} not supported (use one of {_SUPPORTED_PRIMES})")
    if not 1 <= e <= 3:
        raise UnsupportedField(f"extension degree {e} not supported (use 1 <= e <= 3)")
    modulus = (0, 1) if e == 1 else _MODULI[(p, e)]
    return FieldSpec(p, e, modulus)


def field_of_size(q: int) -> FieldSpec:
    """The supported field with q elements; raises UnsupportedField for any other q."""
    p = next((d for d in _SUPPORTED_PRIMES if q % d == 0), None)
    if p is None:
        raise UnsupportedField(f"{q} is not a power of a supported characteristic {_SUPPORTED_PRIMES}")
    e = next(j for j in itertools.count(1) if p**j >= q)
    if p**e != q:
        raise UnsupportedField(f"{q} is not a prime power")
    return field_make(p, e)


def gl_order_int(q: int, n: int) -> int:
    return prod(q**n - q**j for j in range(n))


def _check_gl_budget(f: FieldSpec, n: int, override_budget: bool) -> None:
    """The one ceiling on oracle scans: refuse |GL_n(F_q)| > GL_ORDER_BUDGET unless overridden."""
    order = gl_order_int(f.size, n)
    if not override_budget and order > GL_ORDER_BUDGET:
        raise BudgetExceeded(
            f"|GL_{n}(F_{f.size})| = {order} exceeds the ceiling {GL_ORDER_BUDGET}; pass override to force"
        )


# ---------------------------------------------------------------------------
# polynomials over F_q: coefficient tuples ascending, no trailing zeros


def _fq_trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _fq_divmod(f: FieldSpec, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = f.inv(b[-1])
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        factor = f.mul(rem[-1], inv_lead)
        shift = len(rem) - len(b)
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = f.sub(rem[shift + i], f.mul(factor, c))
        while rem and rem[-1] == 0:
            rem.pop()
    return _fq_trim(quo), _fq_trim(rem)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class FFMatrix:
    """Square matrix over a FieldSpec; entries are field-element encodings."""

    field: FieldSpec
    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise ValueError(f"entries are not {self.n}x{self.n}")
        size = self.field.size
        if any(not 0 <= v < size for row in self.entries for v in row):
            raise ValueError("entry out of range for the field")


def identity_matrix(f: FieldSpec, n: int) -> FFMatrix:
    return FFMatrix(f, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def _mat_mul_raw(add_t, mul_t, a, b) -> tuple[tuple[int, ...], ...]:
    cols = tuple(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                acc = add_t[acc][mul_t[x][y]]
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def mat_mul(a: FFMatrix, b: FFMatrix) -> FFMatrix:
    if a.field != b.field or a.n != b.n:
        raise ValueError("matrix shapes or fields differ")
    return FFMatrix(a.field, a.n, _mat_mul_raw(a.field.add_table, a.field.mul_table, a.entries, b.entries))


def mat_vec(m: FFMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the matrix to a column vector."""
    f = m.field
    return tuple(
        _dot(f, row, v)
        for row in m.entries
    )


def _dot(f: FieldSpec, row, col) -> int:
    acc = 0
    for x, y in zip(row, col):
        acc = f.add(acc, f.mul(x, y))
    return acc


def _det_raw(f: FieldSpec, rows) -> int:
    """Determinant of a tuple of rows, by elimination over the field tables."""
    add_t, mul_t, neg_t = f.add_table, f.mul_table, f.neg_table
    a = [list(row) for row in rows]
    n = len(a)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = neg_t[det]
        det = mul_t[det][a[col][col]]
        inv_p = f.inv_table[a[col][col]]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = mul_t[neg_t[mul_t[a[r][col]][inv_p]]]
                a[r] = [add_t[x][factor[y]] for x, y in zip(a[r], a[col])]
    return det


def mat_det(m: FFMatrix) -> int:
    return _det_raw(m.field, m.entries)


def mat_inv(m: FFMatrix) -> FFMatrix:
    f, n = m.field, m.n
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.entries)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv_p = f.inv(a[col][col])
        a[col] = [f.mul(c, inv_p) for c in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[r], a[col])]
    return FFMatrix(f, n, tuple(tuple(row[n:]) for row in a))


def enumerate_invertible(n: int, f: FieldSpec, override_budget: bool = False):
    """Stream every invertible n x n matrix, deterministically.

    The stream is the n-row tuples of ``itertools.product`` with nonzero
    determinant, so it has exactly |GL_n(F_q)| entries in lexicographic
    order of the rows.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    _check_gl_budget(f, n, override_budget)
    vectors = tuple(itertools.product(range(f.size), repeat=n))
    return (FFMatrix(f, n, rows) for rows in itertools.product(vectors, repeat=n) if _det_raw(f, rows))


def is_semisimple(m: FFMatrix) -> bool:
    """Order prime to p, tested as m^(r+1) == m with r the p'-part of |GL_n(F_q)|.

    For invertible m the test says that the order of m divides r, and an
    element of GL_n(F_q) has order prime to p exactly when it is semisimple.
    A singular m splits into an invertible part and a nilpotent part (Fitting
    decomposition); a nilpotent N has N^(r+1) == N only when N == 0, so the
    test decides semisimplicity on every square matrix over the field.
    """
    f = m.field
    add_t, mul_t = f.add_table, f.mul_table
    r = prod(f.size**i - 1 for i in range(1, m.n + 1))
    power = base = m.entries
    while r:  # square-and-multiply: power runs from m^1 up to m^(r+1)
        if r & 1:
            power = _mat_mul_raw(add_t, mul_t, power, base)
        r >>= 1
        if r:
            base = _mat_mul_raw(add_t, mul_t, base, base)
    return power == m.entries


# ---------------------------------------------------------------------------
# group-level scans

MODE_ALL_SEMISIMPLE = "all-semisimple"
MODE_LAST_FREE = "last-free"


def centralizer_sets(elements, product) -> tuple[frozenset[int], ...]:
    """For each index, the indices of the elements commuting with it, itself included.

    One scan over the pairs i < j, testing ``product(a, b) == product(b, a)``;
    it serves permutation groups in ``groupdiv`` (matrix groups solve for
    their commutants instead, see ``_commutant_basis``).
    """
    size = len(elements)
    sets = [{i} for i in range(size)]
    for i in range(size):
        a = elements[i]
        for j in range(i + 1, size):
            b = elements[j]
            if product(a, b) == product(b, a):
                sets[i].add(j)
                sets[j].add(i)
    return tuple(frozenset(s) for s in sets)


def count_commuting_tuples(cents, allowed: frozenset, k: int, free: frozenset | None = None) -> int:
    """Commuting k-tuples drawn from ``allowed``, followed by one from ``free`` if given.

    ``cents`` holds, per index, the indices of the elements commuting with
    it.  Partial tuples are extended through intersections of centralizer
    sets, never by raw enumeration of every candidate tuple.  The count runs
    level by level, so each (allowed, free) subproblem of a level is counted
    once, with the number of partial tuples that reach it, and no call
    recurses k deep.
    """
    if k == 0:
        return 1 if free is None else len(free)
    level = {(allowed, free): 1}
    for _ in range(k - 1):
        nxt: dict = {}
        for (a, f), ways in level.items():
            for x in a:
                c = cents[x]
                key = (a & c, None if f is None else f & c)
                nxt[key] = nxt.get(key, 0) + ways
        level = nxt
    if free is None:
        return sum(ways * len(a) for (a, _), ways in level.items())
    return sum(ways * sum(len(f & cents[x]) for x in a) for (a, f), ways in level.items())


def _commutant_basis(f: FieldSpec, x: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of ker(Y -> XY - YX) in M_n(F_q), matrices flattened row-major.

    Gaussian elimination brings the n^2 x n^2 system to reduced row-echelon
    form; each free coordinate gives one basis vector.  Equal kernels give
    equal bases, so the result can key a memo.
    """
    add_t, mul_t, neg_t = f.add_table, f.mul_table, f.neg_table
    n = len(x)
    size = n * n
    rows = []
    for i in range(n):
        for j in range(n):
            # (XY - YX)_ij = sum_a X_ia Y_aj - sum_b Y_ib X_bj
            row = [0] * size
            for a in range(n):
                row[a * n + j] = x[i][a]
            for b in range(n):
                row[i * n + b] = add_t[row[i * n + b]][neg_t[x[b][j]]]
            rows.append(row)
    pivots = []
    for col in range(size):
        rank = len(pivots)
        pivot = next((r for r in range(rank, size) if rows[r][col]), None)
        if pivot is None:
            continue
        scale = f.inv_table[rows[pivot][col]]
        prow = [mul_t[scale][v] for v in rows[pivot]]
        rows[pivot] = rows[rank]
        rows[rank] = prow
        for r in range(size):
            lead = rows[r][col]
            if lead and r != rank:
                factor = mul_t[neg_t[lead]]
                rows[r] = [add_t[v][factor[w]] for v, w in zip(rows[r], prow)]
        pivots.append(col)
    basis = []
    for free_col in (c for c in range(size) if c not in pivots):
        vec = [0] * size
        vec[free_col] = 1
        for row, col in zip(rows, pivots):
            vec[col] = neg_t[row[free_col]]
        basis.append(tuple(vec))
    return tuple(basis)


def _span(f: FieldSpec, basis) -> list[tuple[int, ...]]:
    """Every F_q-linear combination of the basis vectors."""
    add_t, mul_t = f.add_table, f.mul_table
    vectors = [(0,) * len(basis[0])]
    for b in basis:
        multiples = [tuple(mul_t[c][v] for v in b) for c in range(1, f.size)]
        vectors += [tuple(add_t[v][w] for v, w in zip(u, m)) for u in vectors for m in multiples]
    return vectors


class _GroupContext:
    """Everything enumerated once per (field, n): elements, the semisimple set, centralizers."""

    def __init__(self, f: FieldSpec, n: int):
        self.field = f
        mats = list(enumerate_invertible(n, f, override_budget=True))
        self.mats = tuple(m.entries for m in mats)
        self.ss_set = frozenset(i for i, m in enumerate(mats) if is_semisimple(m))
        self._centralizers: tuple[frozenset, ...] | None = None

    @property
    def centralizers(self) -> tuple[frozenset, ...]:
        """C(X) as the invertible part of X's commutant; each distinct commutant is enumerated once."""
        if self._centralizers is None:
            index = {tuple(itertools.chain.from_iterable(m)): i for i, m in enumerate(self.mats)}
            by_basis: dict[tuple, frozenset] = {}
            cents = []
            for m in self.mats:
                basis = _commutant_basis(self.field, m)
                cent = by_basis.get(basis)
                if cent is None:
                    cent = by_basis[basis] = frozenset(
                        i for i in map(index.get, _span(self.field, basis)) if i is not None
                    )
                cents.append(cent)
            self._centralizers = tuple(cents)
        return self._centralizers


@lru_cache(maxsize=None)
def _group_context(f: FieldSpec, n: int) -> _GroupContext:
    return _GroupContext(f, n)


def brute_hom_count(n: int, f: FieldSpec, k: int, mode: str, override_budget: bool = False) -> int:
    """Count commuting k-tuples of invertible matrices by direct scan.

    Mode ``all-semisimple`` constrains every entry; ``last-free`` leaves the
    final entry merely invertible-and-commuting.
    """
    if k < 1:
        raise ValueError("tuple length must be >= 1")
    if mode not in (MODE_ALL_SEMISIMPLE, MODE_LAST_FREE):
        raise ValueError(f"unknown mode {mode!r}")
    _check_gl_budget(f, n, override_budget)
    ctx = _group_context(f, n)
    if k == 1:  # a single entry commutes with itself: no centralizer scan needed
        return len(ctx.ss_set if mode == MODE_ALL_SEMISIMPLE else ctx.mats)
    if mode == MODE_ALL_SEMISIMPLE:
        return count_commuting_tuples(ctx.centralizers, ctx.ss_set, k)
    return count_commuting_tuples(ctx.centralizers, ctx.ss_set, k - 1, free=frozenset(range(len(ctx.mats))))


def brute_conj_count(n: int, f: FieldSpec, k: int, override_budget: bool = False) -> int:
    """Orbit count of commuting all-semisimple k-tuples under conjugation.

    The stabilizer of a tuple is the intersection of its entries'
    centralizers, so counting each tuple with one more commuting element
    from the whole group gives sum |Stab(t)| = |G| * #orbits
    (orbit-stabilizer).  The division by |G| must be exact.
    """
    if k < 1:
        raise ValueError("tuple length must be >= 1")
    _check_gl_budget(f, n, override_budget)
    ctx = _group_context(f, n)
    order = len(ctx.mats)
    weighted = count_commuting_tuples(ctx.centralizers, ctx.ss_set, k, free=frozenset(range(order)))
    orbits, remainder = divmod(weighted, order)
    if remainder:
        raise NotDivisible(f"stabilizer sum {weighted} is not a multiple of |GL_{n}(F_{f.size})| = {order}")
    return orbits


def count_semisimple_elements(n: int, f: FieldSpec, override_budget: bool = False) -> int:
    """Number of semisimple invertible matrices, by direct flags."""
    _check_gl_budget(f, n, override_budget)
    return len(_group_context(f, n).ss_set)


# ---------------------------------------------------------------------------
# polynomial census


@dataclass(frozen=True)
class CensusRecord:
    """Tally of monic degree-n polynomials of one factorization type."""

    type: FactorizationType
    count: int

    def to_json(self) -> dict:
        return {"type": self.type.to_json(), "count": self.count}


@lru_cache(maxsize=None)
def _irreducibles_up_to(f: FieldSpec, max_degree: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Monic irreducibles over f of each degree <= max_degree, by trial division."""
    table: dict[int, tuple[tuple[int, ...], ...]] = {}
    for d in range(1, max_degree + 1):
        found = []
        divisors = [irr for dd in range(1, d // 2 + 1) for irr in table[dd]]
        for low in itertools.product(range(f.size), repeat=d):
            candidate = low + (1,)
            if all(_fq_divmod(f, candidate, irr)[1] != () for irr in divisors):
                found.append(candidate)
        table[d] = tuple(found)
    return table


def poly_type_census(f: FieldSpec, n: int, override_budget: bool = False) -> tuple[CensusRecord, ...]:
    """Factor every monic degree-n polynomial with nonzero constant term.

    Returns one record per factorization type of weight n, in enumeration
    order, including zero tallies.  The counts sum to (q - 1) q^(n - 1).
    """
    if n < 1:
        raise ValueError("census degree must be >= 1")
    if not override_budget and f.size**n > POWER_BUDGET:
        raise BudgetExceeded(f"census would scan {f.size ** n} polynomials; pass override to force")
    irreducibles = _irreducibles_up_to(f, n // 2)
    tally: dict[FactorizationType, int] = {t: 0 for t in enumerate_types(n)}
    for low in itertools.product(range(f.size), repeat=n):
        if low[0] == 0:
            continue
        remaining = low + (1,)
        exponents: dict[int, list[int]] = {}
        for d in range(1, n + 1):
            degree = len(remaining) - 1
            if degree < 2 * d:
                # every factor of degree < d is divided out, so what is left
                # is 1 or a single irreducible of its own degree
                if degree:
                    exponents[degree] = [1]
                    remaining = (1,)
                break
            for irr in irreducibles[d]:
                mult = 0
                while True:
                    quo, rem = _fq_divmod(f, remaining, irr)
                    if rem:
                        break
                    remaining = quo
                    mult += 1
                if mult:
                    exponents.setdefault(d, []).append(mult)
        assert remaining == (1,), "trial division failed to exhaust the polynomial"
        parts = tuple(
            sorted((d for d, exps in exponents.items() for e in exps for _ in range(e)), reverse=True)
        )
        refinements = tuple(
            (d, tuple(sorted(exponents[d], reverse=True))) for d in sorted(exponents, reverse=True)
        )
        tally[FactorizationType(parts, refinements)] += 1
    return tuple(CensusRecord(t, tally[t]) for t in enumerate_types(n))
