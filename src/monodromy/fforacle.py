"""Brute-force ground truth over small finite fields.

Everything here is deliberately naive: explicit field tables, explicit
matrix enumeration, centralizers as the invertible elements of each
commutant ker(Y -> XY - YX).  All linear algebra is one span (``_span``)
and one elimination (``_rref``): GL_n(F_q) is built row by row from
vectors outside the span of the rows before, and every element X is
keyed by its algebra F_q[X], the reduced span of I, X, ..., X^(n-1).
F_q[aX + sI] = F_q[X] for every a != 0 (each holds the other's
generator), so the elimination runs once per affine class {aX + sI}, not
once per element, and each algebra is spanned once.  The bicommutant of
X is F_q[X], so equal algebras mean equal commutants: each distinct
commutant is F_q[X] itself when that has dimension n, and is otherwise
solved once by elimination; the group context keeps one record per
algebra.  Commuting tuples are counted once per distinct centralizer set
(``commuting``), and conjugacy classes of k-tuples are the last-free count
of k + 1 entries divided by |G|.  The point is to be an
independent check on the polynomial engine, so nothing is shared with it
beyond the factorization-type vocabulary.

A matrix has one form throughout: a flat row-major tuple of its n^2
field-element codes.  ``enumerate_invertible`` yields it, the element
index is keyed by it, and ``_span``, ``_algebra_key`` and
``_commutant_basis`` read and build it.  ``is_semisimple`` is the one entry
that takes a matrix from a caller, so it alone checks the length and codes.

A matrix is semisimple here when its order is prime to p, the
characteristic: ``is_semisimple`` tests m^(r+1) == m, with r the lcm of
q^i - 1 for i <= n, which every semisimple order divides.  The group
context reads it off each algebra's unit count instead: with f_i^e_i the
prime-power factors of X's minimal polynomial and d_i = deg f_i, F_q[X] is
the product of the F_q[x]/(f_i^e_i) (Chinese remainder theorem), so
|F_q[X]^x| = prod q^(d_i (e_i - 1)) (q^d_i - 1), which is prime to p exactly
when every e_i = 1, that is when X is semisimple.

The factorization census is built by multiplication, never by division:
every product of irreducible powers is formed once, degree by degree, and
what no product reaches is the next degree's irreducibles.

Supported fields are F_{p^e} for p in {2, 3, 5, 7} and e <= 3, with a fixed
modulus per (p, e) so element encodings are stable across runs.  Elements
are encoded as integers 0 .. p^e - 1 whose base-p digits, little-endian, are
the coefficients of the residue polynomial; 0 and 1 are the field's zero
and one under this encoding.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import isqrt, lcm, prod

from . import BudgetExceeded, Refusal, record
from .exactpoly import NotDivisible
from .typecomb import FactorizationType, enumerate_types, type_pairs

GL_ORDER_BUDGET = 25_000    # largest |GL_n(F_q)| any oracle scan enumerates without override
POWER_BUDGET = 10**6        # largest q^n for polynomial censuses
PAIRWISE_BUDGET = 4 * 10**7  # no longer checked here; perfbench's probe and span hooks still read it


class UnsupportedField(Refusal, ValueError):
    """Field outside the fixed (p, e) table."""


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


@record
class FieldSpec:
    """A small finite field with fully materialized arithmetic tables."""

    p: int
    e: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        mod = self.modulus
        if len(mod) != self.e + 1 or mod[-1] != 1 or any(not 0 <= c < self.p for c in mod):
            raise UnsupportedField(f"modulus {mod} is not monic of degree {self.e} over F_{self.p}")
        # _build_tables rejects a reducible modulus: its zero divisors have no inverse
        self._build_tables()

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
        """``size`` and the tables, by Horner's rule over the digits: a * b = x * ((a // p) * b) + (a % p) * b.

        Multiplying by x shifts the digits up and subtracts the lead digit
        times the modulus; a scalar c < p scales every digit.
        """
        p, size = self.p, self.p**self.e
        digits = [self._digits(v) for v in range(size)]
        add = tuple(
            tuple(self._undigits((x + y) % p for x, y in zip(da, db)) for db in digits) for da in digits
        )
        scaled = [tuple(self._undigits(c * x % p for x in d) for d in digits) for c in range(p)]
        times_x = tuple(
            self._undigits((low - d[-1] * m) % p for low, m in zip([0] + d[:-1], self.modulus)) for d in digits
        )
        mul = list(scaled)
        for a in range(p, size):
            mul.append(tuple(add[times_x[h]][c] for h, c in zip(mul[a // p], scaled[a % p])))
        try:
            inv = (0,) + tuple(row.index(1) for row in mul[1:])
        except ValueError:
            raise UnsupportedField(f"modulus {self.modulus} is reducible: a zero divisor has no inverse") from None
        names = ("size", "add_table", "mul_table", "neg_table", "inv_table")
        for name, value in zip(names, (size, add, tuple(mul), scaled[p - 1], inv)):
            object.__setattr__(self, name, value)  # record allows it: these are not fields


def _check_degree(e: int) -> None:
    if not 1 <= e <= 3:
        raise UnsupportedField(f"extension degree {e} not supported (use 1 <= e <= 3)")


@lru_cache(maxsize=None)
def field_make(p: int, e: int) -> FieldSpec:
    """The supported field F_{p^e}; raises UnsupportedField outside the table."""
    if p not in _SUPPORTED_PRIMES:
        raise UnsupportedField(f"characteristic {p} not supported (use one of {_SUPPORTED_PRIMES})")
    _check_degree(e)
    modulus = (0, 1) if e == 1 else _MODULI[(p, e)]
    return FieldSpec(p, e, modulus)


def field_params(q: int) -> tuple[int, int]:
    """(p, e) with p^e = q for a supported field; builds no tables, so it refuses q before ``field_make``."""
    p = next((d for d in _SUPPORTED_PRIMES if q % d == 0), None)
    if p is None:
        raise UnsupportedField(f"{q} is not a power of a supported characteristic {_SUPPORTED_PRIMES}")
    e = next(j for j in itertools.count(1) if p**j >= q)
    if p**e != q:
        raise UnsupportedField(f"{q} is not a prime power")
    _check_degree(e)
    return p, e


def gl_order_int(q: int, n: int) -> int:
    return prod(q**n - q**j for j in range(n))


_EXACT_SIZE_BITS = 64  # a size bounded below by 2^64 or more is refused by its form, never built


def check_gl_budget(q: int, n: int, override_budget: bool) -> None:
    """The one ceiling on oracle scans: refuse |GL_n(F_q)| > GL_ORDER_BUDGET unless overridden."""
    if override_budget:
        return
    # |GL_n(F_q)| > q^(n^2) / 4 >= 2^((b - 1) n^2 - 2), with b the bit length of q
    order = gl_order_int(q, n) if (q.bit_length() - 1) * n * n - 2 < _EXACT_SIZE_BITS else None
    if order is None or order > GL_ORDER_BUDGET:
        size = f"|GL_{n}(F_{q})|" if order is None else f"|GL_{n}(F_{q})| = {order}"
        raise BudgetExceeded(f"{size} exceeds the ceiling {GL_ORDER_BUDGET}; pass override to force")


def check_census_budget(q: int, n: int, override_budget: bool) -> None:
    """The census ceiling: refuse q^n > POWER_BUDGET unless overridden."""
    if override_budget:
        return
    count = q**n if (q.bit_length() - 1) * n < _EXACT_SIZE_BITS else None  # q^n >= 2^((b - 1) n)
    if count is None or count > POWER_BUDGET:
        raise BudgetExceeded(f"census would scan {count or f'{q}^{n}'} polynomials; pass override to force")


# ---------------------------------------------------------------------------
# polynomials over F_q: coefficient tuples ascending, no trailing zeros


def _fq_mul(add_t, mul_t, a, b) -> tuple[int, ...]:
    """Product of two coefficient tuples over the field tables."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = mul_t[x]
            for j, y in enumerate(b):
                out[i + j] = add_t[out[i + j]][row[y]]
    return tuple(out)


# ---------------------------------------------------------------------------
# matrices: flat row-major tuples of n^2 field-element codes


def _mat_mul_raw(add_t, mul_t, a, b) -> tuple[int, ...]:
    n = isqrt(len(a))
    cols = [b[j::n] for j in range(n)]
    out = []
    for i in range(0, n * n, n):
        row = a[i:i + n]
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                acc = add_t[acc][mul_t[x][y]]
            out.append(acc)
    return tuple(out)


def _rref(f: FieldSpec, rows: list[list[int]]) -> list[int]:
    """Bring the rows to reduced row-echelon form in place; return the pivot columns, one per nonzero row."""
    add_t, mul_t, neg_t = f.add_table, f.mul_table, f.neg_table
    height = len(rows)
    pivots = []
    for col in range(len(rows[0])):
        rank = len(pivots)
        pivot = next((r for r in range(rank, height) if rows[r][col]), None)
        if pivot is None:
            continue
        scale = f.inv_table[rows[pivot][col]]
        prow = [mul_t[scale][v] for v in rows[pivot]]
        rows[pivot] = rows[rank]
        rows[rank] = prow
        for r in range(height):
            lead = rows[r][col]
            if lead and r != rank:
                factor = mul_t[neg_t[lead]]
                rows[r] = [add_t[v][factor[w]] for v, w in zip(rows[r], prow)]
        pivots.append(col)
        if rank + 1 == height:
            break
    return pivots


def _span(f: FieldSpec, basis) -> list[tuple[int, ...]]:
    """Every F_q-linear combination of the basis vectors."""
    add_t, mul_t = f.add_table, f.mul_table
    vectors = [(0,) * len(basis[0])]
    for b in basis:
        multiples = [tuple([mul_t[c][v] for v in b]) for c in range(1, f.size)]
        vectors += [tuple([add_t[v][w] for v, w in zip(u, m)]) for u in vectors for m in multiples]
    return vectors


def enumerate_invertible(n: int, f: FieldSpec, override_budget: bool = False):
    """Stream every invertible n x n matrix as a flat row-major tuple of n^2 codes, deterministically.

    Each matrix is built row by row: the next row is every vector, in
    ``itertools.product`` order, outside the span of the rows chosen so far.
    So the stream has exactly |GL_n(F_q)| entries, in lexicographic order,
    and no singular candidate is ever formed.  The last row streams flat.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    check_gl_budget(f.size, n, override_budget)
    vectors = tuple(itertools.product(range(f.size), repeat=n))

    def extend(prefix: tuple):
        span = set(_span(f, [prefix[i:i + n] for i in range(0, len(prefix), n)])) if prefix else {vectors[0]}
        rows = (prefix + v for v in vectors if v not in span)
        return rows if len(prefix) == n * n - n else itertools.chain.from_iterable(map(extend, rows))

    return extend(())


def is_semisimple(f: FieldSpec, m) -> bool:
    """Whether the flat row-major matrix m over f has order prime to p: m^(r+1) == m, r = lcm(q^i - 1, i <= n).

    m is any sequence of n^2 field-element codes, n >= 1; a length that is
    not a positive square, or a code outside 0 .. q - 1, raises ValueError.

    For invertible m the test says that the order of m divides r, which is
    prime to p.  An element of GL_n(F_q) has order prime to p exactly when
    it is semisimple, and then F_q[m] is a product of fields F_{q^d} with
    d <= n, in each of which m^(q^d - 1) = 1, so its order divides r.
    A singular m splits into an invertible part and a nilpotent part (Fitting
    decomposition); a nilpotent N has N^(r+1) == N only when N == 0, so the
    test decides semisimplicity on every square matrix over the field.
    """
    m = tuple(m)
    n = isqrt(len(m))
    if not m or n * n != len(m):
        raise ValueError(f"{len(m)} entries do not make a square matrix")
    if any(not 0 <= v < f.size for v in m):
        raise ValueError("entry out of range for the field")
    add_t, mul_t = f.add_table, f.mul_table
    r = lcm(*(f.size**i - 1 for i in range(1, n + 1)))
    power = base = m
    while r:  # square-and-multiply: power runs from m^1 up to m^(r+1)
        if r & 1:
            power = _mat_mul_raw(add_t, mul_t, power, base)
        r >>= 1
        if r:
            base = _mat_mul_raw(add_t, mul_t, base, base)
    return power == m


# ---------------------------------------------------------------------------
# group-level scans

MODE_ALL_SEMISIMPLE = "all-semisimple"
MODE_LAST_FREE = "last-free"


def _commutant_basis(f: FieldSpec, x: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of ker(Y -> XY - YX) in M_n(F_q), as flat matrices.

    Gaussian elimination brings the n^2 x n^2 system to reduced row-echelon
    form; each free coordinate gives one basis vector.  Equal kernels give
    equal bases, so the result can key a memo.
    """
    add_t, neg_t = f.add_table, f.neg_table
    size = len(x)
    n = isqrt(size)
    rows = []
    for i in range(n):
        for j in range(n):
            # (XY - YX)_ij = sum_a X_ia Y_aj - sum_b Y_ib X_bj
            row = [0] * size
            for a in range(n):
                row[a * n + j] = x[i * n + a]
            for b in range(n):
                row[i * n + b] = add_t[row[i * n + b]][neg_t[x[b * n + j]]]
            rows.append(row)
    pivots = _rref(f, rows)
    basis = []
    for free_col in (c for c in range(size) if c not in pivots):
        vec = [0] * size
        vec[free_col] = 1
        for row, col in zip(rows, pivots):
            vec[col] = neg_t[row[free_col]]
        basis.append(tuple(vec))
    return tuple(basis)


@lru_cache(maxsize=None)
def _identity(n: int) -> tuple[int, ...]:
    return tuple(int(i % (n + 1) == 0) for i in range(n * n))


def _algebra_key(f: FieldSpec, x: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of F_q[X]: the nonzero reduced-echelon rows of the flat I, X, ..., X^(n-1).

    By Cayley-Hamilton these powers span F_q[X].  The bicommutant of X is
    F_q[X], so two elements have the same commutant exactly when they have
    the same key; when the key has n rows, F_q[X] is that commutant.
    """
    n = isqrt(len(x))
    powers = [_identity(n), x]
    while len(powers) < n:
        powers.append(_mat_mul_raw(f.add_table, f.mul_table, powers[-1], x))
    rows = [list(m) for m in powers[:n]]
    return tuple(map(tuple, rows[:len(_rref(f, rows))]))


class _GroupContext:
    """Everything enumerated once per (field, n): elements, algebra ids, the semisimple set, centralizers.

    Every element X is keyed by its algebra F_q[X]; equal algebras mean
    equal commutants.  The elements are walked in enumeration order, and
    each one that no earlier class has claimed is keyed (``_algebra_key``):
    a known key gives its id, a new key the next id, so ids are numbered in
    order of first element, as keying every element would number them.
    That id goes to X's affine class {aX + sI : a != 0}, which has the same
    algebra.  A new algebra A is spanned once, as F_q I + T with T the span
    of the key's rows after the first (zero in column 0, the first row's
    pivot), so T holds t = X - X_00 I, and the walk claims X's class as the
    translates of the nonzero multiples of t.  It visits every unit of A, so
    A is semisimple exactly when their count is prime to p (the rule in the
    module docstring); when dim A = n, A is the commutant of X, and its units
    are the centralizer of every Y with F_q[Y] = A.  A known A is not spanned.
    The context keeps one record per algebra, in id order: its first element,
    and its units when dim A = n, else None.
    """

    def __init__(self, f: FieldSpec, n: int):
        self.field = f
        self.mats = tuple(enumerate_invertible(n, f, override_budget=True))
        self._index = index = {m: i for i, m in enumerate(self.mats)}
        self._algebra_ids: list = [None] * len(self.mats)
        self._algebras: list[tuple[int, frozenset | None]] = []  # (first element, A^x when dim A = n), in id order
        semisimple: list[bool] = []  # whether each algebra is semisimple, in id order
        ids, add_t, mul_t, neg_t = self._algebra_ids, f.add_table, f.mul_table, f.neg_table
        diagonal = range(0, n * n, n + 1)
        by_key: dict[tuple, int] = {}  # algebra key -> id
        for pos, x in enumerate(self.mats):
            if ids[pos] is not None:
                continue
            key = _algebra_key(f, x)
            c = by_key.setdefault(key, len(by_key))
            t_x = [add_t[v][mul_t[e][neg_t[x[0]]]] for v, e in zip(x, _identity(n))]  # X - X_00 I
            line = {tuple([mul_t[a][v] for v in t_x]) for a in range(1, f.size)}  # X's class is line + F_q I
            new = c == len(self._algebras)
            units = []
            for t in _span(f, key[1:]) if new and len(key) > 1 else line:  # T = {0} = line when A = F_q
                found = []
                row = list(t)
                for s in range(f.size):  # the translates t + s I
                    for d in diagonal:
                        row[d] = add_t[t[d]][s]
                    i = index.get(tuple(row))
                    if i is not None:
                        found.append(i)
                if t in line:
                    for i in found:
                        ids[i] = c
                units += found
            if new:
                self._algebras.append((pos, frozenset(units) if len(key) == n else None))
                semisimple.append(len(units) % f.p != 0)
        self.ss_set = frozenset(i for i, c in enumerate(ids) if semisimple[c])

    @cached_property
    def centralizers(self) -> tuple[frozenset, ...]:
        """C(X) as the invertible part of X's commutant, enumerated once per distinct algebra.

        An algebra of dimension n is its own commutant, already spanned; any
        other commutant is solved by ``_commutant_basis`` on the algebra's
        first element.  A commutant of dimension n^2 (the scalars') is all of
        M_n(F_q), so its invertible part is the whole group, not spanned.
        """
        f, index, order = self.field, self._index, len(self.mats)
        cents = []
        for first, own in self._algebras:
            if own is None:
                basis = _commutant_basis(f, self.mats[first])
                if len(basis) == len(basis[0]):
                    own = frozenset(range(order))
                else:
                    own = frozenset(i for i in map(index.get, _span(f, basis)) if i is not None)
            cents.append(own)
        self._index = None  # no span needs it any more
        return tuple(cents[c] for c in self._algebra_ids)


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
    check_gl_budget(f.size, n, override_budget)
    ctx = _group_context(f, n)
    if k == 1:  # a single entry commutes with itself: no centralizer scan needed
        return len(ctx.ss_set if mode == MODE_ALL_SEMISIMPLE else ctx.mats)
    from .commuting import count_commuting_tuples  # imported here, so ``census`` never compiles it
    if mode == MODE_ALL_SEMISIMPLE:
        return count_commuting_tuples(ctx.centralizers, ctx.ss_set, k)
    return count_commuting_tuples(ctx.centralizers, ctx.ss_set, k - 1, free=frozenset(range(len(ctx.mats))))


def brute_conj_count(n: int, f: FieldSpec, k: int, override_budget: bool = False) -> int:
    """Orbit count of commuting all-semisimple k-tuples under conjugation.

    The stabilizer of a tuple is the intersection of its entries'
    centralizers, so the last-free count of k + 1 entries, which adds one
    commuting element from the whole group, is sum |Stab(t)| = |G| * #orbits
    (orbit-stabilizer).  The division by |G| must be exact.
    """
    if k < 1:
        raise ValueError("tuple length must be >= 1")
    weighted = brute_hom_count(n, f, k + 1, MODE_LAST_FREE, override_budget)
    order = gl_order_int(f.size, n)
    orbits, remainder = divmod(weighted, order)
    if remainder:
        raise NotDivisible(f"stabilizer sum {weighted} is not a multiple of |GL_{n}(F_{f.size})| = {order}")
    return orbits


# ---------------------------------------------------------------------------
# polynomial census


@record
class CensusRecord:
    """Tally of monic degree-n polynomials of one factorization type."""

    type: FactorizationType
    count: int


def poly_type_census(f: FieldSpec, n: int, override_budget: bool = False) -> tuple[CensusRecord, ...]:
    """Tally every monic degree-n polynomial with nonzero constant term by type.

    A multiplicative sieve: for each degree d = 1..n, every product of
    powers of distinct irreducibles of degree < d with total degree d is
    built once and marked in a table indexed by its low coefficients; the
    unmarked entries with nonzero constant term are the irreducibles of
    degree d.  At d = n each product is tallied under its type, and the
    irreducibles under (n | n:(1)).  A slot marked twice or a product with
    constant term zero means the tables are not a field and raises
    ValueError.

    Returns one record per factorization type of weight n, in enumeration
    order, including zero tallies.  The counts sum to (q - 1) q^(n - 1).
    """
    if n < 1:
        raise ValueError("census degree must be >= 1")
    check_census_budget(f.size, n, override_budget)
    q, add_t, mul_t = f.size, f.add_table, f.mul_table
    tally = {type_pairs(t): 0 for t in enumerate_types(n)}
    irreducibles: list[tuple[int, tuple[int, ...]]] = []  # (degree, coefficients), degree ascending
    for d in range(1, n + 1):
        marks = bytearray(q**d)

        def extend(start: int, poly: tuple[int, ...], remaining: int, pairs: tuple) -> None:
            if not remaining:
                if not poly[0]:
                    raise ValueError(f"product {poly} has constant term zero; {f} is not a field")
                slot = 0
                for c in poly[:d]:  # the index of the low coefficients in itertools.product order
                    slot = slot * q + c
                if marks[slot]:
                    raise ValueError(f"product {poly} is built twice; {f} is not a field")
                marks[slot] = 1
                if d == n:
                    tally[tuple(sorted(pairs, reverse=True))] += 1
                return
            for j in range(start, len(irreducibles)):
                degree, irr = irreducibles[j]
                if degree > remaining:
                    break
                power = poly
                for e in range(1, remaining // degree + 1):
                    power = _fq_mul(add_t, mul_t, power, irr)
                    extend(j + 1, power, remaining - degree * e, pairs + ((degree, e),))

        extend(0, (1,), d, ())
        lows = (low for low, hit in zip(itertools.product(range(q), repeat=d), marks) if low[0] and not hit)
        if d < n:
            irreducibles += ((d, low + (1,)) for low in lows)
        else:
            tally[((n, 1),)] = sum(1 for _ in lows)
    return tuple(CensusRecord(t, tally[type_pairs(t)]) for t in enumerate_types(n))
