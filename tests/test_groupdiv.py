"""Permutation groups, Frobenius counts, coset counts, and hom divisibility."""

import hashlib
import importlib
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from monodromy import cli, groupdiv, prime_factors
from monodromy.commuting import count_commuting_tuples
from monodromy.fforacle import MODE_ALL_SEMISIMPLE, brute_hom_count, field_make
from monodromy.groupdiv import (
    CORPUS_DOMAIN_CEILING,
    CYCLES_PATTERN,
    HOM_RANK_CEILING,
    SWEEP_GROUP_BUDGET,
    BudgetExceeded,
    ClosureBudgetExceeded,
    CosetLemmaCheck,
    FiniteGroupTable,
    PreconditionViolated,
    _coset_count,
    _cycles,
    _is_prime,
    _is_prime_power_or_one,
    _normalizes,
    check_sweep_order,
    compose_perms,
    coset_lemma_sweep,
    coset_p_power_count,
    divisibility_report,
    enumerate_subgroups,
    frobenius_count,
    group_generate,
    hom_count_profinite_abelian,
    load_corpus,
    parse_corpus,
    parse_cycles,
)

from matrix_groups import matrix_group_table

ROOT = Path(__file__).resolve().parent.parent


def make(name, domain, *cycle_texts):
    return group_generate([parse_cycles(t, domain) for t in cycle_texts], name=name)


def index_of(table, perm):
    return table.elements.index(perm)


def cycle_string(perm):
    """Inverse of parse_cycles; fixed points omitted, identity is ``()``."""
    text = "".join("(" + " ".join(str(pt + 1) for pt in cycle) + ")" for cycle in _cycles(perm))
    return text or "()"


def s3():
    return make("S3", 3, "(1 2)", "(1 2 3)")


def s4():
    return make("S4", 4, "(1 2)", "(1 2 3 4)")


def test_compose_applies_right_first():
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    # right factor acts first: 3 -> 2 -> 1
    assert compose_perms(a, b)[2] == 0


def test_parse_cycles():
    assert parse_cycles("(1 2 3)", 3) == (1, 2, 0)
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_cycles("()", 3) == (0, 1, 2)
    assert parse_cycles("(1, 2)", 2) == (1, 0)
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("1 2", 3)


def test_cycle_string_round_trip():
    for text, domain in [("(1 2 3)", 3), ("(1 3)(2 4)", 4), ("()", 5), ("(2 4 6)", 6)]:
        perm = parse_cycles(text, domain)
        assert parse_cycles(cycle_string(perm), domain) == perm
    assert cycle_string((0, 1, 2)) == "()"
    assert cycle_string(parse_cycles("(1 2 3)", 5)) == "(1 2 3)"


# the pattern parse_cycles used before: it can split a run of n digits in 2^(n-1) ways before it fails
OLD_CYCLES_PATTERN = r"(\(\s*([0-9]+[\s,]*)*\)\s*)+"


def test_cycles_pattern_accepts_what_the_old_one_did():
    old, new = re.compile(OLD_CYCLES_PATTERN), re.compile(CYCLES_PATTERN)
    accepted = 0
    for length in range(7):  # every string of up to 6 of these characters, tab included
        for chars in itertools.product("( )1,2x\t", repeat=length):
            text = "".join(chars)
            verdict = new.fullmatch(text) is not None
            assert verdict == (old.fullmatch(text) is not None), repr(text)
            accepted += verdict
    assert accepted > 1000


def test_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroupTable([])
    with pytest.raises(ValueError):
        FiniteGroupTable([(1, 0)])  # no identity
    with pytest.raises(ValueError):
        FiniteGroupTable([(0, 1), (0, 1)])  # duplicate
    with pytest.raises(ValueError):
        FiniteGroupTable([(0, 1), (1, 1)])  # not a permutation
    # not closed: {e, (1 2 3)} misses its square
    table = FiniteGroupTable([(0, 1, 2), (1, 2, 0)])
    with pytest.raises(ValueError):
        table.products


def test_closure_orders():
    assert len(s3()) == 6
    assert len(s4()) == 24
    assert len(make("A4", 4, "(1 2 3)", "(2 3 4)")) == 12
    assert len(make("D4", 4, "(1 2 3 4)", "(1 3)")) == 8
    assert len(make("C12", 12, "(1 2 3 4 5 6 7 8 9 10 11 12)")) == 12


def test_q8_structure():
    q8 = make("Q8", 8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")
    assert len(q8) == 8
    # one identity, a unique involution, six elements of order 4
    assert Counter(q8.orders) == {1: 1, 2: 1, 4: 6}


def test_element_orders_s4():
    assert Counter(s4().orders) == {1: 1, 2: 9, 3: 8, 4: 6}


def test_orders_match_power_walk():
    def walk(perm):
        power, order = perm, 1
        while power != tuple(range(len(perm))):
            power, order = compose_perms(power, perm), order + 1
        return order

    for table in load_corpus() + (make("S5", 5, "(1 2)", "(1 2 3 4 5)"),):
        assert table.orders == tuple(walk(p) for p in table.elements), table.name


def test_closure_budget():
    with pytest.raises(ClosureBudgetExceeded):
        group_generate([parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)], budget=100)


def test_matrix_group_table():
    table = matrix_group_table(field_make(2, 1), 2)
    assert len(table) == 6
    assert Counter(table.orders) == {1: 1, 2: 3, 3: 2}
    assert table.name == "GL2F2"
    big = matrix_group_table(field_make(3, 1), 2)
    assert len(big) == 48


def test_frobenius_counts():
    g = s3()
    assert frobenius_count(g, 1) == (1, True)
    assert frobenius_count(g, 2) == (4, True)
    assert frobenius_count(g, 3) == (3, True)
    assert frobenius_count(g, 6) == (6, True)
    assert frobenius_count(s4(), 2) == (10, True)
    assert frobenius_count(s4(), 4) == (16, True)
    with pytest.raises(ValueError):
        frobenius_count(g, 0)


def test_frobenius_all_corpus_divisors():
    for table in load_corpus():
        for n in range(1, len(table) + 1):
            count, divides = frobenius_count(table, n)
            if len(table) % n == 0:
                assert divides, f"{table.name}: #(x^{n}=e) = {count} not divisible by {n}"


def test_coset_p_power_count_a3():
    g = s3()
    rot = index_of(g, parse_cycles("(1 2 3)", 3))
    flip = index_of(g, parse_cycles("(1 2)", 3))
    # coset A3*(1 2) is the three transpositions, all of 2-power order;
    # the 2-part of |A3| = 3 is 1, so the verdict is trivially true
    assert coset_p_power_count(g, [rot], flip, 2) == (3, True)
    # H = <(1 2)> with x = e: the two elements of H itself, against 2-part 2
    assert coset_p_power_count(g, [flip], g.identity_index, 2) == (2, True)


def test_coset_p_power_count_klein_four():
    g = s4()
    v1 = index_of(g, parse_cycles("(1 2)(3 4)", 4))
    v2 = index_of(g, parse_cycles("(1 3)(2 4)", 4))
    x = index_of(g, parse_cycles("(1 2)", 4))
    # the Klein four subgroup is normal; its coset by a transposition holds
    # four 2-power-order elements, divisible by |V| = 4
    assert coset_p_power_count(g, [v1, v2], x, 2) == (4, True)


def test_coset_p_power_count_preconditions():
    g = s3()
    rot = index_of(g, parse_cycles("(1 2 3)", 3))
    flip = index_of(g, parse_cycles("(1 2)", 3))
    with pytest.raises(PreconditionViolated):
        coset_p_power_count(g, [rot], flip, 4)  # not a prime
    with pytest.raises(PreconditionViolated):
        coset_p_power_count(g, [rot], rot, 2)  # x has order 3
    with pytest.raises(PreconditionViolated):
        coset_p_power_count(g, [flip], index_of(g, parse_cycles("(1 3)", 3)), 2)  # no normalization


def test_coset_lemma_sweep_s3():
    g = s3()
    checks = coset_lemma_sweep(g)
    assert len(checks) == 30
    assert all(c.ok for c in checks)
    whole = {(c.prime, c.coset_rep): (c.count, c.required_divisor) for c in checks if c.subgroup_order == 6}
    assert whole[(2, g.identity_index)] == (4, 2)  # the identity and the three transpositions
    assert whole[(3, g.identity_index)] == (3, 3)  # the identity and the two 3-cycles


@pytest.mark.parametrize("name", ["S4", "A4", "D4", "Q8", "C12", "GL2F3"])
def test_coset_lemma_sweep_corpus(name):
    table = next(t for t in load_corpus() if t.name == name)
    checks = coset_lemma_sweep(table)
    assert checks and all(c.ok for c in checks)


def test_enumerate_subgroups():
    assert len(enumerate_subgroups(s3())) == 6
    assert len(enumerate_subgroups(s4())) == 30
    a4 = make("A4", 4, "(1 2 3)", "(2 3 4)")
    assert len(enumerate_subgroups(a4)) == 10
    q8 = make("Q8", 8, "(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)")
    assert len(enumerate_subgroups(q8)) == 6
    # orders partition correctly (Lagrange)
    for sub in enumerate_subgroups(s4()):
        assert 24 % len(sub) == 0


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "C6", "C8"])
def test_enumerate_subgroups_matches_brute_force(name):
    table = next(t for t in load_corpus() if t.name == name)
    size = len(table)
    closed = {
        frozenset(sub)
        for r in range(1, size + 1)
        for sub in itertools.combinations(range(size), r)
        if all(table.products[a][b] in sub for a in sub for b in sub)
    }
    subgroups = enumerate_subgroups(table)
    assert set(subgroups) == closed
    assert list(subgroups) == sorted(closed, key=lambda s: (len(s), sorted(s)))


def test_enumerate_subgroups_counts_and_generators():
    groups = [
        make("A5", 5, "(1 2 3)", "(3 4 5)"),
        make("S5", 5, "(1 2)", "(1 2 3 4 5)"),
        next(t for t in load_corpus() if t.name == "GL2F3"),
    ]
    for table, count in zip(groups, (59, 156, 55)):
        subgroups = enumerate_subgroups(table)
        assert len(subgroups) == count, table.name
        for subgroup, entry in subgroups.items():
            assert table.subgroup_closure(entry.gens) == subgroup


def _reference_closure(table, gens):
    """Breadth-first closure of the generators, independent of the table's own.

    It stops at more than half the group: by Lagrange only the whole group is
    that large.
    """
    products, order = table.products, len(table)
    seen = {table.identity_index}
    queue = [table.identity_index]
    while queue:
        if 2 * len(seen) > order:
            return frozenset(range(order))
        row = products[queue.pop()]
        for g in gens:
            if row[g] not in seen:
                seen.add(row[g])
                queue.append(row[g])
    return frozenset(seen)


def _closure_table(name):
    if name == "S4":
        return s4()
    if name == "GL2F3":
        return next(t for t in load_corpus() if t.name == name)
    domain, *gens = GENERATED[name]
    return make(name, domain, *gens)


CLOSURE_GROUPS = ["S4", "GL2F3", "A5", "D12"]


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
def test_closure_from_a_base_matches_reference(name):
    # Dimino's join, from the class representative H one coset at a time, against a closure from the identity
    table = _closure_table(name)
    subgroups = enumerate_subgroups(table)
    cyclic_gens = [entry.gens for entry in subgroups.values() if len(entry.gens) == 1]
    joins = 0
    for subgroup, entry in subgroups.items():
        if subgroup != entry.rep:
            continue
        for (c,) in cyclic_gens:
            gens = entry.gens + (c,)
            assert table.subgroup_closure(gens, subgroup) == _reference_closure(table, gens), (table.name, gens)
            joins += 1
    assert joins > len(subgroups)


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
def test_closure_of_one_element_matches_reference(name):
    table = _closure_table(name)
    for i in range(len(table)):
        assert table.subgroup_closure([i]) == _reference_closure(table, [i])


def _reference_subgroups(table):
    """The join loop the class-by-class sweep replaced, kept as a reference.

    Every known subgroup, not only a class representative, is joined with
    every cyclic subgroup.
    """
    known = {}
    for i in range(len(table)):
        known.setdefault(_reference_closure(table, [i]), (i,))
    cyclics = sorted(known, key=lambda s: (len(s), sorted(s)))
    queue = list(cyclics)
    while queue:
        current = queue.pop(0)
        for cyc in cyclics:
            if cyc <= current:
                continue
            gens = known[current] + known[cyc]
            joined = _reference_closure(table, gens)
            if joined not in known:
                known[joined] = gens
                queue.append(joined)
    return sorted(known, key=lambda s: (len(s), sorted(s)))


# the generated benchmark corpus: S5, A5 and D12
GENERATED = {
    "S5": (5, "(1 2)", "(1 2 3 4 5)"),
    "A5": (5, "(1 2 3)", "(3 4 5)"),
    "D12": (12, "(1 2 3 4 5 6 7 8 9 10 11 12)", "(1 12)(2 11)(3 10)(4 9)(5 8)(6 7)"),
}


def _sweep_tables():
    yield from load_corpus()
    for name, (domain, *gens) in GENERATED.items():
        yield make(name, domain, *gens)
    yield matrix_group_table(field_make(2, 1), 3)  # GL3(F2): 179 subgroups
    yield matrix_group_table(field_make(2, 2), 2)  # GL2(F4): order 180


# the groups the sweep ceiling of 720 admits: A6 (order 360) and S6 (720)
A6_CORPUS = "A6 6 (1 2 3); (2 3 4 5 6)\n"
S6_CORPUS = "S6 6 (1 2); (1 2 3 4 5 6)\n"


def _a6():
    (table,) = parse_corpus(A6_CORPUS)
    return table


def test_enumerate_subgroups_matches_reference_join_loop():
    for table in (*_sweep_tables(), _a6()):
        subgroups = enumerate_subgroups(table)
        assert list(subgroups) == _reference_subgroups(table), table.name
        for subgroup, entry in subgroups.items():
            assert table.subgroup_closure(entry.gens) == subgroup, table.name
        # closed under conjugation by every element
        products, inverses = table.products, table.inverses
        for x in range(len(table)):
            for subgroup in subgroups:
                assert frozenset(products[products[inverses[x]][h]][x] for h in subgroup) in subgroups


@pytest.mark.parametrize("name,checked", [("S5", 2412), ("A5", 658), ("D12", 356)])
def test_coset_lemma_sweep_sizes(name, checked):
    domain, *gens = GENERATED[name]
    checks = coset_lemma_sweep(make(name, domain, *gens))
    assert len(checks) == checked and all(c.ok for c in checks)


@pytest.mark.parametrize("corpus,subgroups,checked", [(A6_CORPUS, 501, 8922), (S6_CORPUS, 1455, 36510)],
                         ids=["A6", "S6"])
def test_sweep_reaches_a6_and_s6(corpus, subgroups, checked):
    (table,) = parse_corpus(corpus)
    checks = coset_lemma_sweep(table)
    assert len(checks) == checked and all(c.ok for c in checks)
    # the identity normalizes every subgroup and has 2-power order: one such check per subgroup
    assert sum(c.prime == 2 and c.coset_rep == table.identity_index for c in checks) == subgroups


def _reference_sweep(table):
    """The per-subgroup sweep the per-class one replaced, kept as a reference.

    Each subgroup's normalizer is found by testing every element, and each
    subgroup takes its own coset counts.
    """
    results = []
    for subgroup, entry in enumerate_subgroups(table).items():
        normalizer = [x for x in range(len(table)) if _normalizes(table, x, entry.gens, subgroup)]
        for p in prime_factors(len(table)):
            for x in normalizer:
                if _is_prime_power_or_one(table.orders[x], p):
                    count, required = _coset_count(table, subgroup, x, p)
                    results.append(CosetLemmaCheck(len(subgroup), p, x, count, required, count % required == 0))
    return tuple(results)


def _assert_sweep_matches_reference(table):
    sweep, reference = coset_lemma_sweep(table), _reference_sweep(table)
    assert tuple(sweep) == reference, table.name
    assert len(sweep) == len(reference), table.name
    assert sweep.failures == tuple(c for c in reference if not c.ok), table.name


def test_coset_lemma_sweep_matches_reference_sweep():
    for table in (*_sweep_tables(), _a6()):
        _assert_sweep_matches_reference(table)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_coset_lemma_sweep_matches_reference_on_relabelled_corpus(monkeypatch, seed):
    # the benchmark's generated corpus, its points relabelled by the seed
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for table in parse_corpus(workloads.corpus_text(random.Random(seed))):
        _assert_sweep_matches_reference(table)


def test_sweep_failures_are_the_failing_checks(monkeypatch, capsys):
    # no corpus group fails a coset check, so one power of 3 is added to every 3-part the checks require
    valuation = groupdiv._valuation
    monkeypatch.setattr(groupdiv, "_valuation", lambda n, p: valuation(n, p) + (p == 3))
    for table in (s4(), _closure_table("GL2F3"), _closure_table("D12")):
        sweep = coset_lemma_sweep(table)
        failing = tuple(c for c in sweep if not c.ok)
        assert 0 < len(failing) < len(sweep), table.name
        assert sweep.failures == failing, table.name
        _assert_sweep_matches_reference(table)
    assert cli.main(["divisibility", "--group", "S4", "--format", "json"]) == 1
    (group,) = json.loads(capsys.readouterr().out)["groups"]
    assert group["cosetLemma"]["failures"] == [c.to_json() for c in coset_lemma_sweep(s4()).failures]


# sha256 of every enumerate_subgroups dict (keys, gens, rep, conjugator, normalizer), recorded when each
# class representative was still conjugated by every element of the group
SUBGROUP_DIGESTS = {
    "S3": "61c371b820c5b31188260fa6592070860ecff8033ffb786415ac8b9f185457a8",
    "S4": "2a1c46dbb0a3ea23f55b89348d022054f16ccdb2dc7496cf7cd5e6a5787c2beb",
    "A4": "f23f4ccff3a06214dcc266dc99c0f569fd482441a40dd4cbde9645f0e015e0fb",
    "D4": "8649b9301992854f91e61ecad7b0a5a83b5d310996787e84ad1f35b542e0b466",
    "Q8": "e991f94f2fe7ec0ed180052d5fd9529b636ab02a34cdd4d71a6e4ecb6076bf60",
    "C6": "893932075d8a2c5299f495dde2ad381ad8fbecff972bba61597711a8421ac9e9",
    "C8": "d780246153664203864e2c6820f07bbc5afbe43f39465c11e8c07b82d9505dba",
    "C9": "bd8aa7d79ed5c233a56139ccb7b717dd9c7152704decd0f9ff0ad8c54809fcbe",
    "C12": "50de4720f3cd3ffa478b19fa4b156b7447abb8e957bbdde12143146a48310d32",
    "GL2F3": "6ad9533c6e3924cea4c27e1359a6998ad69eac37ea0aec16f8f15ff9a1b8d3b9",
    "S5": "aed11b80e7d5b1c606f904c412bebf18309f93bbca523a0dad73bf30ec423f95",
    "A5": "fb404bedf9a1e6ebb433c85f57cc270bc03615f2f0724e3a74b156867bfbce40",
    "D12": "94b89bbeea7f3ba1a2d889578f71df9a682a4b43cd75f091792fab27cbd0972b",
    "A6": "9cc3879c0d73e3e791ac151acbfce34877fc1c09476eb87ceaf6af34cb03cc4a",
    "S6": "a1816d7825ad3995290eba4ed761d2ebe3915defa977ab2ae8da0a52c64abe98",
}


def test_enumerate_subgroups_digests_are_pinned():
    tables = (*load_corpus(), *(_closure_table(name) for name in GENERATED), *parse_corpus(A6_CORPUS + S6_CORPUS))
    digests = {}
    for table in tables:
        h = hashlib.sha256()
        for subgroup, entry in enumerate_subgroups(table).items():
            fields = (sorted(subgroup), entry.gens, sorted(entry.rep), entry.conjugator, entry.normalizer)
            h.update(repr(fields).encode())
        digests[table.name] = h.hexdigest()
    assert digests == SUBGROUP_DIGESTS


@pytest.mark.parametrize("name", ["S4", "GL2F3", "D12"])
def test_normalizers_read_off_class_construction(name):
    table = next(t for t in _sweep_tables() if t.name == name)
    products, inverses = table.products, table.inverses
    for subgroup, entry in enumerate_subgroups(table).items():
        y = entry.conjugator

        def conjugate(h):  # y^-1 h y
            return products[products[inverses[y]][h]][y]

        assert frozenset(map(conjugate, entry.rep)) == subgroup
        scanned = [x for x in range(len(table)) if _normalizes(table, x, entry.gens, subgroup)]
        if subgroup == entry.rep:
            assert y == table.identity_index and list(entry.normalizer) == scanned
        assert sorted(map(conjugate, entry.normalizer)) == scanned


def _shuffled(table, seed):
    """The same group with its elements in a random order: the identity need not come first."""
    elems = list(table.elements)
    random.Random(seed).shuffle(elems)
    return FiniteGroupTable(elems, name=table.name)


@pytest.mark.parametrize("name,seed", [("S5", None), ("GL2F3", None), ("S5", 1), ("GL2F3", 2)],
                         ids=["S5", "GL2F3", "S5-shuffled", "GL2F3-shuffled"])
def test_products_match_compose_perms(name, seed):
    table = next(t for t in _sweep_tables() if t.name == name)
    if seed is not None:
        table = _shuffled(table, seed)
        assert table.identity_index != 0
    elems = table.elements
    assert table.products == tuple(tuple(index_of(table, compose_perms(a, b)) for b in elems) for a in elems)
    assert table.columns == tuple(zip(*table.products))


def test_columns_look_up_only_the_generator_columns():
    table = next(t for t in _sweep_tables() if t.name == "S5")  # closure order: (), (1 2), (1 2 3 4 5), ...
    lookups = []

    class CountingIndex(dict):
        def __getitem__(self, perm):
            lookups.append(perm)
            return super().__getitem__(perm)

    table._index = CountingIndex(table._index)
    table.columns
    assert len(lookups) == 2 * len(table)


@pytest.mark.parametrize("name", ["S5", "A5", "GL2F3"])
def test_centralizers_match_pairwise_scan(name):
    table = next(t for t in _sweep_tables() if t.name == name)
    elems = table.elements
    assert table.centralizers == tuple(
        frozenset(j for j, b in enumerate(elems) if compose_perms(a, b) == compose_perms(b, a)) for a in elems
    )


def test_hom_count_profinite_abelian_s3():
    g = s3()
    assert hom_count_profinite_abelian(g, 1, ()) == 6
    assert hom_count_profinite_abelian(g, 1, (2,)) == 3
    assert hom_count_profinite_abelian(g, 1, (3,)) == 4
    assert hom_count_profinite_abelian(g, 2, ()) == 18
    assert hom_count_profinite_abelian(g, 2, (2,)) == 9
    assert hom_count_profinite_abelian(g, 3, ()) == 48
    assert hom_count_profinite_abelian(g, 2, (2, 3)) == 1
    with pytest.raises(ValueError):
        hom_count_profinite_abelian(g, 0, ())
    with pytest.raises(ValueError):
        hom_count_profinite_abelian(g, 1, (4,))


def test_hom_counts_resume_one_walk_per_prime_set_in_any_order():
    for table in _sweep_tables():
        for primes in ((), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)):
            fresh = next(t for t in _sweep_tables() if t.name == table.name)
            eligible = frozenset(i for i, order in enumerate(fresh.orders) if all(order % p for p in primes))
            for k in (3, 1, 5, 2):
                expected = count_commuting_tuples(fresh.centralizers, eligible, k)
                assert hom_count_profinite_abelian(table, k, primes) == expected, (table.name, primes, k)


def test_hom_count_cyclic():
    c6 = make("C6", 6, "(1 2 3 4 5 6)")
    # abelian: commuting is free, only the order condition bites
    assert hom_count_profinite_abelian(c6, 1, ()) == 6
    assert hom_count_profinite_abelian(c6, 1, (2,)) == 3
    assert hom_count_profinite_abelian(c6, 2, ()) == 36
    assert hom_count_profinite_abelian(c6, 2, (3,)) == 4


def test_divisibility_report_s3():
    report = divisibility_report(s3(), 2, (2,))
    assert report.hom_count == 9
    assert Fraction(report.hom_count, report.group_order) == Fraction(3, 2)
    assert [c.prime for c in report.checks] == [3]
    assert report.checks[0].count_valuation == 2
    assert report.checks[0].order_valuation == 1
    assert report.passed
    doc = report.to_json()
    assert doc["homCount"] == "9" and doc["ok"] is True


def test_divisibility_report_full_sweep():
    for table in load_corpus():
        for k in (1, 2, 3):
            for primes in ((), (2,), (3,), (2, 3)):
                assert divisibility_report(table, k, primes).passed


def test_report_json_quotient_is_the_fraction_in_lowest_terms():
    # to_json writes hom_count/|G| with math.gcd, without building a Fraction
    fractional = 0
    for table in load_corpus():
        for k in (1, 2, 3):
            for primes in ((), (2,), (3,), (2, 3)):
                report = divisibility_report(table, k, primes)
                quotient = Fraction(report.hom_count, report.group_order)
                assert report.to_json()["quotient"] == str(quotient), (table.name, k, primes)
                fractional += quotient.denominator != 1
    assert fractional > 0


def test_parse_corpus():
    groups = parse_corpus("S3 3 (1 2); (1 2 3)\n# comment\n\nC2 2 (1 2)\n")
    assert [g.name for g in groups] == ["S3", "C2"]
    assert [len(g) for g in groups] == [6, 2]
    for short in ("broken 3\n", "X\n", "X 3 # (1 2)\n"):
        with pytest.raises(ValueError, match=r"^corpus line 1: expected a name, a domain and generators$"):
            parse_corpus(short)
    with pytest.raises(ValueError):
        parse_corpus("X 3 (1 9)\n")


def test_parse_corpus_refuses_a_repeated_name():
    # divisibility --group G picks one group by name, so a second G would be checked with the first
    with pytest.raises(ValueError) as exc:
        parse_corpus("G 3 (1 2)\nG 3 (1 2 3)\n")
    assert str(exc.value) == "corpus line 2: group name 'G' repeats line 1"
    with pytest.raises(ValueError, match=r"^corpus line 4: group name 'C2' repeats line 2$"):
        parse_corpus("S3 3 (1 2); (1 2 3)\nC2 2 (1 2)\n# comment\nC2 4 (1 2)(3 4)\n")


def test_parse_corpus_domain_ceiling():
    # the ceiling itself is accepted; one point more is a malformed line
    (group,) = parse_corpus(f"C2 {CORPUS_DOMAIN_CEILING} (1 {CORPUS_DOMAIN_CEILING})\n")
    assert len(group) == 2 and group.domain == CORPUS_DOMAIN_CEILING
    with pytest.raises(ValueError, match=f"corpus line 1: domain {CORPUS_DOMAIN_CEILING + 1} "):
        parse_corpus(f"C2 {CORPUS_DOMAIN_CEILING + 1} (1 2)\n")


def test_load_default_corpus():
    groups = load_corpus()
    by_name = {g.name: len(g) for g in groups}
    assert by_name == {
        "S3": 6,
        "S4": 24,
        "A4": 12,
        "D4": 8,
        "Q8": 8,
        "C6": 6,
        "C8": 8,
        "C9": 9,
        "C12": 12,
        "GL2F3": 48,
    }


def test_load_corpus_from_path(tmp_path):
    path = tmp_path / "groups.txt"
    path.write_text("K4 4 (1 2)(3 4); (1 3)(2 4)\n", encoding="utf-8")
    groups = load_corpus(str(path))
    assert len(groups) == 1 and len(groups[0]) == 4


def test_corpus_gl2f3_matches_matrix_group():
    corpus_gl = next(t for t in load_corpus() if t.name == "GL2F3")
    direct = matrix_group_table(field_make(3, 1), 2)
    assert set(corpus_gl.elements) == set(direct.elements)


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)])
def test_semisimple_hom_count_matches_prime_to_p_hom_count(p, e, n):
    # p-rank 0: commuting semisimple tuples in GL_n(F_q) are exactly the
    # commuting tuples of order prime to p, so the oracle's matrix-power test
    # and the permutation table's element orders must give the same count
    f = field_make(p, e)
    table = matrix_group_table(f, n)
    for k in (1, 2):
        assert brute_hom_count(n, f, k, MODE_ALL_SEMISIMPLE) == hom_count_profinite_abelian(table, k, (p,))


def test_hom_budget():
    big = make("C25", 25, "(" + " ".join(str(i) for i in range(1, 26)) + ")")
    # order 25 is fine; the budget only kicks in past the ceiling
    assert hom_count_profinite_abelian(big, 1, ()) == 25
    with pytest.raises(BudgetExceeded):
        enumerate_subgroups(matrix_group_table(field_make(7, 1), 2))


def test_cayley_table_budget_spares_table_free_checks():
    table = matrix_group_table(field_make(7, 1), 2)
    assert len(table) == 2016
    with pytest.raises(BudgetExceeded):
        table.products
    with pytest.raises(BudgetExceeded):
        hom_count_profinite_abelian(table, 1, ())
    # orders come from cycle types, so Frobenius needs no table
    assert frobenius_count(table, 1) == (1, True)
    count, divides = frobenius_count(table, 2)
    assert divides and count % 2 == 0


def test_hom_count_deep_rank():
    c12 = make("C12", 12, "(1 2 3 4 5 6 7 8 9 10 11 12)")
    assert hom_count_profinite_abelian(c12, 1500, ()) == 12**1500
    assert hom_count_profinite_abelian(c12, 1500, (2,)) == 3**1500


def test_sweep_order_ceiling():
    check_sweep_order(SWEEP_GROUP_BUDGET)
    with pytest.raises(BudgetExceeded, match=r"^subgroup sweep on order 721 exceeds 720$"):
        check_sweep_order(SWEEP_GROUP_BUDGET + 1)


def test_hom_rank_ceiling():
    c2 = make("C2", 2, "(1 2)")
    assert hom_count_profinite_abelian(c2, HOM_RANK_CEILING, ()) == 2**HOM_RANK_CEILING
    with pytest.raises(BudgetExceeded, match=r"^hom rank 10001 exceeds the ceiling 10000$"):
        hom_count_profinite_abelian(c2, HOM_RANK_CEILING + 1, ())
    with pytest.raises(BudgetExceeded):  # named in the message although str() refuses its 5001 digits
        hom_count_profinite_abelian(c2, 10**5000, ())


def test_inverses_read_off_the_columns():
    for table in (*_sweep_tables(), make("Z", 1, "()")):
        products, inverses, e = table.products, table.inverses, table.identity_index
        for i, inv in enumerate(inverses):
            assert products[i][inv] == products[inv][i] == e, (table.name, i)
        assert sorted(inverses) == list(range(len(table))), table.name


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(10**5))
    assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1)
    with pytest.raises(PreconditionViolated):  # past the range the bases decide exactly
        _is_prime(2**89 - 1)
