"""Divisibility checks for homomorphism counts into small finite groups.

Groups live here as explicit permutation tables generated from a handful of
generators.  The checks mirror classical counting facts: the number of
solutions of x^n = e is divisible by n whenever n divides the group order;
cosets of a normalized subgroup carry p-power-order elements in multiples of
the p-part of the subgroup order; and counts of commuting tuples whose
orders avoid a prime set S are divisible by the away-from-S part of the
group order.

Composition convention: ``compose(a, b)`` applies b first, then a.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import re
from collections.abc import Iterable, Iterator, Sequence

from . import BudgetExceeded, Refusal, decimal_str, prime_factors, record
from .commuting import commuting_tuple_counts

CLOSURE_BUDGET = 10_000
HOM_GROUP_BUDGET = 2_000
HOM_RANK_CEILING = 10_000  # largest hom rank k; the tuple count runs k - 1 levels
SWEEP_GROUP_BUDGET = 720
CORPUS_DOMAIN_CEILING = 1_000  # most points a corpus group may act on; the packaged corpus needs 12
# parse_cycles' syntax: a cycle's body is blank or starts with a digit, so a string matches in one way only
CYCLES_PATTERN = r"(\(\s*(?:[0-9][0-9\s,]*)?\)\s*)+"


class ClosureBudgetExceeded(Refusal, RuntimeError):
    """Generated group outgrew the closure ceiling."""


class PreconditionViolated(Refusal, ValueError):
    """Input fails a stated hypothesis (normalization or element order)."""


# ---------------------------------------------------------------------------
# permutations


def compose_perms(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[x] for x in b)


def parse_cycles(text: str, domain: int) -> tuple[int, ...]:
    """Cycle notation with 1-based points, e.g. ``(1 2 3)(4 5)``.

    Multiple cycles are applied left to right (irrelevant when disjoint).
    ``()`` is the identity.
    """
    perm = tuple(range(domain))
    body = text.strip()
    if not re.fullmatch(CYCLES_PATTERN, body):
        raise ValueError(f"bad cycle notation: {text!r}")
    for cycle_text in re.findall(r"\(([^)]*)\)", body):
        points = [int(tok) for tok in re.split(r"[\s,]+", cycle_text.strip()) if tok]
        if not points:
            continue
        if any(not 1 <= pt <= domain for pt in points) or len(set(points)) != len(points):
            raise ValueError(f"cycle {cycle_text!r} is not valid on 1..{domain}")
        mapping = list(range(domain))
        for at, nxt in zip(points, points[1:] + points[:1]):
            mapping[at - 1] = nxt - 1
        perm = compose_perms(tuple(mapping), perm)
    return perm


def _cycles(perm: tuple[int, ...]) -> Iterator[list[int]]:
    """The cycles of length at least 2, each starting from its least point."""
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            continue
        cycle = [start]
        seen[start] = True
        at = perm[start]
        while at != start:
            cycle.append(at)
            seen[at] = True
            at = perm[at]
        yield cycle


# ---------------------------------------------------------------------------
# group tables


class FiniteGroupTable:
    """A finite permutation group with a fixed, deterministic element order."""

    def __init__(self, elements: Sequence[tuple[int, ...]], name: str = ""):
        elems = tuple(tuple(p) for p in elements)
        if not elems:
            raise ValueError("a group table needs at least the identity")
        domain = len(elems[0])
        identity = tuple(range(domain))
        for p in elems:
            if len(p) != domain or sorted(p) != list(range(domain)):
                raise ValueError(f"{p!r} is not a permutation of 0..{domain - 1}")
        if len(set(elems)) != len(elems):
            raise ValueError("duplicate elements in group table")
        if identity not in elems:
            raise ValueError("group table lacks the identity")
        self.name = name
        self.elements = elems
        self.domain = domain
        self._index = {p: i for i, p in enumerate(elems)}
        self.identity_index = self._index[identity]
        # per deleted-prime set: the hom counts for k = 1, 2, ... found so far, and the walk that finds more
        self._hom_walks: dict[frozenset[int], tuple[list[int], Iterator[int]]] = {}

    def __len__(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table by columns: ``columns[j][i]`` indexes ``compose(elements[i], elements[j])``.

        Only a generator's column is looked up in the element index, after
        one C-level getter of its permutation per element; a generator is
        the first element with no column yet.  The column of w·g is the
        column of w read through that of g, since e_i(e_w g) = (e_i e_w)g:
        one C-level getter of w's column (at least two entries, so the
        getter returns a tuple).  Each generator's column checks e_i·g for
        every i, and every element is a product of generators, so a list
        that is not closed under composition raises ``ValueError``.
        """
        if len(self) > HOM_GROUP_BUDGET:
            raise BudgetExceeded(f"group order {len(self)} exceeds {HOM_GROUP_BUDGET}")
        lookup = self._index.__getitem__
        columns: list[tuple[int, ...] | None] = [None] * len(self)
        columns[self.identity_index] = tuple(range(len(self)))
        reached = [self.identity_index]
        gens: list[int] = []
        for g, perm in enumerate(self.elements):
            if columns[g] is not None:
                continue
            try:
                columns[g] = tuple(map(lookup, map(operator.itemgetter(*perm), self.elements)))
            except KeyError:
                raise ValueError("element list is not closed under composition") from None
            gens.append(g)
            reached.append(g)
            for w in reached:  # grows while products with the generators reach new elements
                for h in gens:
                    x = columns[h][w]  # w·h
                    if columns[x] is None:
                        columns[x] = operator.itemgetter(*columns[w])(columns[h])
                        reached.append(x)
        return tuple(columns)

    @functools.cached_property
    def products(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table: ``products[i][j]`` indexes ``compose(elements[i], elements[j])``."""
        return tuple(zip(*self.columns))

    @functools.cached_property
    def inverses(self) -> tuple[int, ...]:
        """For each element, the index of its inverse: where its column holds the identity."""
        return tuple(column.index(self.identity_index) for column in self.columns)

    @functools.cached_property
    def centralizers(self) -> tuple[frozenset[int], ...]:
        """For each element, the indices of the elements commuting with it: where its row equals its column."""
        everything = range(len(self))
        return tuple(
            frozenset(itertools.compress(everything, map(operator.eq, row, col)))
            for row, col in zip(self.products, self.columns)
        )

    @functools.cached_property
    def orders(self) -> tuple[int, ...]:
        """Element orders: the lcm of the cycle lengths."""
        return tuple(math.lcm(*map(len, _cycles(p))) for p in self.elements)

    def subgroup_closure(self, gens: Iterable[int], base: frozenset[int] | None = None) -> frozenset[int]:
        """Indices of the subgroup generated by the given element indices.

        It grows from ``base``, a subgroup H whose generators are among
        ``gens`` (by default the trivial group), one whole right coset Ht at a
        time, until every coset representative times every generator lies in
        a coset already added (Dimino's algorithm).
        """
        gen_list = list(gens)
        if base is None:
            base = (self.identity_index,)
        products, columns = self.products, self.columns
        seen = set(base)
        reps = [self.identity_index]
        for t in reps:  # grows while new cosets are found
            row = products[t]
            for g in gen_list:
                y = row[g]
                if y not in seen:
                    seen.update(map(columns[y].__getitem__, base))
                    reps.append(y)
        return frozenset(seen)


def group_generate(gens: Sequence[tuple[int, ...]], name: str = "", budget: int = CLOSURE_BUDGET) -> FiniteGroupTable:
    """Breadth-first closure of the generators, identity first."""
    if not gens:
        raise ValueError("need at least one generator")
    domain = len(gens[0])
    if any(len(g) != domain for g in gens):
        raise ValueError("generators act on different domains")
    identity = tuple(range(domain))
    order: list[tuple[int, ...]] = [identity]
    seen = {identity}
    at = 0
    while at < len(order):
        x = order[at]
        at += 1
        for g in gens:
            y = compose_perms(x, g)
            if y not in seen:
                if len(order) >= budget:
                    raise ClosureBudgetExceeded(f"closure exceeded {budget} elements")
                seen.add(y)
                order.append(y)
    return FiniteGroupTable(order, name=name)


# ---------------------------------------------------------------------------
# number-theory helpers


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981  # the bases above decide every n below it


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n it cannot decide exactly."""
    if n >= _MILLER_RABIN_LIMIT:
        raise PreconditionViolated(f"{n} is too large to test for primality (limit {_MILLER_RABIN_LIMIT})")
    if n < 2 or any(n % b == 0 for b in _MILLER_RABIN_BASES):
        return n in _MILLER_RABIN_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)  # b witnesses compositeness unless x == 1 or some x^(2^i) == -1, i < s
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
    return True


def _valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _is_prime_power_or_one(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------
# counting checks


def frobenius_count(table: FiniteGroupTable, n: int) -> tuple[int, bool]:
    """Count solutions of x^n = e and report whether n divides the count.

    The divisibility is guaranteed when n divides |G|; for other n the
    verdict is still returned but means nothing.
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    count = sum(1 for order in table.orders if n % order == 0)
    return count, count % n == 0


def coset_p_power_count(
    table: FiniteGroupTable, h_gens: Sequence[int], x: int, p: int
) -> tuple[int, bool]:
    """Count p-power-order elements in the coset Hx; verdict: p-part of |H| divides it.

    Requires x to normalize H = <h_gens> and to have p-power order (1 counts).
    """
    if not _is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    subgroup = table.subgroup_closure(h_gens)
    if not _is_prime_power_or_one(table.orders[x], p):
        raise PreconditionViolated(f"element {x} has order {table.orders[x]}, not a power of {p}")
    if not _normalizes(table, x, h_gens, subgroup):
        raise PreconditionViolated(f"element {x} does not normalize the subgroup")
    count, required = _coset_count(table, subgroup, x, p)
    return count, count % required == 0


def _normalizes(table: FiniteGroupTable, x: int, gens: Iterable[int], subgroup: frozenset[int]) -> bool:
    """Whether x conjugates every generator of the subgroup back into it."""
    products, x_inv = table.products, table.inverses[x]
    return all(products[products[x][g]][x_inv] in subgroup for g in gens)


def _coset_count(table: FiniteGroupTable, subgroup: frozenset[int], x: int, p: int) -> tuple[int, int]:
    """p-power-order elements of the coset Hx, and the p-part of |H| that should divide their number."""
    orders, products = table.orders, table.products
    count = sum(1 for h in subgroup if _is_prime_power_or_one(orders[products[h][x]], p))
    return count, p ** _valuation(len(subgroup), p)


def check_sweep_order(order: int) -> None:
    """Refuse a subgroup sweep past SWEEP_GROUP_BUDGET; the front end calls it before any group is swept."""
    if order > SWEEP_GROUP_BUDGET:
        raise BudgetExceeded(f"subgroup sweep on order {order} exceeds {SWEEP_GROUP_BUDGET}")


def check_hom_rank(k: int) -> None:
    """Refuse a hom rank past HOM_RANK_CEILING; the front end calls it before any group is swept."""
    if k > HOM_RANK_CEILING:
        raise BudgetExceeded(f"hom rank {decimal_str(k)} exceeds the ceiling {HOM_RANK_CEILING}")


def hom_count_profinite_abelian(table: FiniteGroupTable, k: int, primes: Iterable[int]) -> int:
    """Commuting k-tuples whose element orders avoid every prime in the set.

    These are exactly the homomorphisms from a free profinite-abelian group
    of rank k with the given primes deleted.  The table keeps one walk per
    prime set (``commuting_tuple_counts``), so asking k = 1, 2, 3 in any
    order costs one walk to level 2.
    """
    if k < 1:
        raise ValueError("rank must be >= 1")
    check_hom_rank(k)
    prime_set = frozenset(primes)
    if any(not _is_prime(p) for p in prime_set):
        raise ValueError(f"prime set {sorted(prime_set)} contains a non-prime")
    walk = table._hom_walks.get(prime_set)
    if walk is None:
        eligible = frozenset(i for i, order in enumerate(table.orders) if all(order % p for p in prime_set))
        walk = table._hom_walks[prime_set] = ([], commuting_tuple_counts(table.centralizers, eligible))
    counts, pending = walk
    counts.extend(itertools.islice(pending, max(0, k - len(counts))))
    return counts[k - 1]


@record
class PrimeValuation:
    prime: int
    count_valuation: int
    order_valuation: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "countValuation": self.count_valuation,
            "orderValuation": self.order_valuation,
            "ok": self.ok,
        }


@record
class DivisibilityReport:
    """Hom count against group order, prime by prime away from the deleted set."""

    group_name: str
    group_order: int
    k: int
    primes: tuple[int, ...]
    hom_count: int
    checks: tuple[PrimeValuation, ...]
    passed: bool

    def to_json(self) -> dict:
        common = math.gcd(self.hom_count, self.group_order)
        num, den = self.hom_count // common, self.group_order // common
        return {
            "group": self.group_name,
            "order": self.group_order,
            "k": self.k,
            "S": list(self.primes),
            "homCount": decimal_str(self.hom_count),
            "quotient": decimal_str(num) if den == 1 else f"{decimal_str(num)}/{decimal_str(den)}",
            "checks": [c.to_json() for c in self.checks],
            "ok": self.passed,
        }


def divisibility_report(table: FiniteGroupTable, k: int, primes: Iterable[int]) -> DivisibilityReport:
    """For every prime l outside the set: l-valuation of the hom count >= that of |G|."""
    prime_set = tuple(sorted(frozenset(primes)))
    hom = hom_count_profinite_abelian(table, k, prime_set)
    checks = []
    for ell in prime_factors(len(table)):
        if ell in prime_set:
            continue
        cv = _valuation(hom, ell)
        ov = _valuation(len(table), ell)
        checks.append(PrimeValuation(ell, cv, ov, cv >= ov))
    return DivisibilityReport(
        group_name=table.name,
        group_order=len(table),
        k=k,
        primes=prime_set,
        hom_count=hom,
        checks=tuple(checks),
        passed=all(c.ok for c in checks),
    )


# ---------------------------------------------------------------------------
# subgroup sweep for the coset check


@record
class SubgroupEntry:
    """A subgroup's generators, and how it arises from its conjugacy class representative H."""

    gens: tuple[int, ...]
    rep: frozenset[int]
    conjugator: int  # y with this subgroup = y^-1 H y
    normalizer: tuple[int, ...]  # N_G(H) of the representative, ascending


def enumerate_subgroups(table: FiniteGroupTable) -> dict[frozenset[int], SubgroupEntry]:
    """Every subgroup, as an index set mapped to its generators and class data, by size then members.

    Cyclic subgroups closed under joins, one conjugacy class at a time (the
    cyclic extension method); a^y means y^-1 a y.  Each element's cyclic
    subgroup is read off its powers, once for all the generators i^m of it
    with m prime to the order of i.  A new class representative H has
    normalizer N, the y conjugating each generator of H into H.  The image
    H^y depends only on the right coset Ny, so H is conjugated once per
    coset, by its least element: the images are the class, each kept with
    the first y that reaches it.  Only representatives are joined with
    cyclic subgroups, since <H^y, c> = <H, c^(y^-1)>^y and the known set is
    closed under conjugation; and H is joined with one cyclic subgroup per
    N-orbit, since <H, c^x> = <H, c>^x for x in N and a new join brings in
    its whole class.
    """
    check_sweep_order(len(table))
    products, columns, inverses, identity = table.products, table.columns, table.inverses, table.identity_index
    # conjugators[y][h] indexes y^-1 h y
    conjugators = [tuple(map(columns[y].__getitem__, products[inverses[y]])) for y in range(len(table))]
    known: dict[frozenset[int], SubgroupEntry] = {}
    reps: list[frozenset[int]] = []

    def add_class(subgroup: frozenset[int], gens: tuple[int, ...]) -> None:
        normalizer = tuple(y for y, conj in enumerate(conjugators) if subgroup.issuperset(map(conj.__getitem__, gens)))
        known[subgroup] = SubgroupEntry(gens, subgroup, identity, normalizer)
        reached = set(normalizer)  # the cosets Ny already conjugated by their least element
        for y, conj in enumerate(conjugators):
            if y not in reached:
                reached.update(map(columns[y].__getitem__, normalizer))
                image = frozenset(map(conj.__getitem__, subgroup))
                known[image] = SubgroupEntry(tuple(map(conj.__getitem__, gens)), subgroup, y, normalizer)
        reps.append(subgroup)

    generated: list[frozenset[int] | None] = [None] * len(table)
    for i in range(len(table)):
        if generated[i] is None:
            powers = [identity]  # i^0, i^1, ..., up to the order of i
            at = i
            while at != identity:
                powers.append(at)
                at = products[at][i]
            cyc = frozenset(powers)
            order = len(powers)
            for m, power in enumerate(powers):
                if math.gcd(m, order) == 1:
                    generated[power] = cyc
    for i, cyc in enumerate(generated):
        if cyc not in known:
            add_class(cyc, (i,))
    cyclics = sorted(known, key=lambda s: (len(s), sorted(s)))
    position = {cyc: at for at, cyc in enumerate(cyclics)}
    cyclic_of = [position[cyc] for cyc in generated]  # element -> the cyclic subgroup it generates
    for current in reps:  # grows while joins find new classes
        entry = known[current]
        covered: set[int] = set()  # cyclic subgroups in the N-orbit of one already joined
        for at, cyc in enumerate(cyclics):
            (c,) = known[cyc].gens
            if at in covered or c in current:
                continue
            gens = entry.gens + (c,)
            joined = table.subgroup_closure(gens, current)
            if joined not in known:
                add_class(joined, gens)
            covered.update(cyclic_of[conjugators[x][c]] for x in entry.normalizer)
    return {s: known[s] for s in sorted(known, key=lambda s: (len(s), sorted(s)))}


@record
class CosetLemmaCheck:
    subgroup_order: int
    prime: int
    coset_rep: int
    count: int
    required_divisor: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "subgroupOrder": self.subgroup_order,
            "prime": self.prime,
            "cosetRep": self.coset_rep,
            "count": self.count,
            "requiredDivisor": self.required_divisor,
            "ok": self.ok,
        }


class CosetSweep:
    """The checks of ``coset_lemma_sweep``, counted per conjugacy class and built on demand.

    ``len()`` is the number of checks and ``failures`` holds the failing ones;
    iterating yields every check, in the sweep's order.
    """

    def __init__(self, table: FiniteGroupTable, subgroups: dict[frozenset[int], SubgroupEntry],
                 class_checks: dict[frozenset[int], list[tuple[int, int, list[tuple[int, int]]]]]):
        self._table = table
        self._subgroups = subgroups
        self._class_checks = class_checks
        self._size = sum(
            len(rep_checks) for entry in subgroups.values() for _, _, rep_checks in class_checks[entry.rep]
        )
        failing = {
            rep for rep, checks in class_checks.items()
            if any(count % required for _, required, rep_checks in checks for _, count in rep_checks)
        }
        self.failures = tuple(
            check
            for subgroup, entry in subgroups.items() if entry.rep in failing
            for check in self._checks(subgroup, entry) if not check.ok
        )

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[CosetLemmaCheck]:
        for subgroup, entry in self._subgroups.items():
            yield from self._checks(subgroup, entry)

    def _checks(self, subgroup: frozenset[int], entry: SubgroupEntry) -> Iterator[CosetLemmaCheck]:
        """One subgroup's checks: its representative's, with each x replaced by y^-1 x y."""
        table, order = self._table, len(subgroup)
        y_inv_times, times_y = table.products[table.inverses[entry.conjugator]], table.columns[entry.conjugator]
        for p, required, rep_checks in self._class_checks[entry.rep]:
            for x, count in sorted((times_y[y_inv_times[x]], count) for x, count in rep_checks):
                yield CosetLemmaCheck(order, p, x, count, required, count % required == 0)


def coset_lemma_sweep(table: FiniteGroupTable) -> CosetSweep:
    """Run the coset count over every (subgroup, normalizing p-power element, p).

    Covers each subgroup H of the group, each prime p dividing |G|, and each
    element x of the normalizer of H whose order is a power of p; checks are
    ordered by subgroup (size, then members), then p, then x.  Everything is
    done once per conjugacy class, on the representative H read off
    ``enumerate_subgroups``: a member y^-1 H y has normalizer y^-1 N_G(H) y,
    and its coset by y^-1 x y holds the conjugates of the p-power-order
    elements of Hx, so it has the representative's checks with each x
    replaced by y^-1 x y.  The class thus adds |class| times the
    representative's checks to ``len()``, and a ``CosetLemmaCheck`` is built
    only when the result is iterated, or for ``failures`` in a class whose
    representative has a failing check.
    """
    subgroups = enumerate_subgroups(table)  # refuses past the ceiling before the Cayley table is built
    columns = table.columns
    primes = prime_factors(len(table))
    # p_power[p][i]: whether element i has p-power order (1 counts)
    p_power = {p: [_is_prime_power_or_one(order, p) for order in table.orders] for p in primes}
    # the coset Hx is columns[x][h] over h in H; its p-power elements are counted at C level
    class_checks = {
        entry.rep: [
            (p, p ** _valuation(len(entry.rep), p),
             [(x, sum(map(p_power[p].__getitem__, map(columns[x].__getitem__, entry.rep))))
              for x in entry.normalizer if p_power[p][x]])
            for p in primes
        ]
        for subgroup, entry in subgroups.items() if subgroup == entry.rep
    }
    return CosetSweep(table, subgroups, class_checks)


# ---------------------------------------------------------------------------
# corpus


def parse_corpus(text: str) -> tuple[FiniteGroupTable, ...]:
    """Corpus lines: ``name domain gens`` with generators ';'-separated, each name on one line only.

    Example: ``S3 3 (1 2); (1 2 3)``.  Blank lines and ``#`` comments skipped.
    """
    groups = []
    first_line: dict[str, int] = {}  # group name -> the line that defines it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            fields = line.split(None, 2)
            if len(fields) < 3:
                raise ValueError("expected a name, a domain and generators")
            name, domain_text, rest = fields
            if name in first_line:
                raise ValueError(f"group name {name!r} repeats line {first_line[name]}")
            first_line[name] = line_no
            domain = int(domain_text)
            if not 1 <= domain <= CORPUS_DOMAIN_CEILING:
                raise ValueError(f"domain {domain} is not a number of points in 1..{CORPUS_DOMAIN_CEILING}")
            gens = [parse_cycles(g, domain) for g in rest.split(";")]
        except (ValueError, IndexError) as exc:
            raise ValueError(f"corpus line {line_no}: {exc}") from exc
        groups.append(group_generate(gens, name=name))
    return tuple(groups)


def load_corpus(path: str | None = None) -> tuple[FiniteGroupTable, ...]:
    """Groups from a corpus file, or the packaged default corpus."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "corpus.txt")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_corpus(text)
