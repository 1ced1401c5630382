"""The shared commuting-tuple counter against the per-element counter it replaced."""

from itertools import islice

import pytest

from monodromy import fforacle
from monodromy.commuting import commuting_tuple_counts, count_commuting_tuples
from monodromy.groupdiv import group_generate, parse_cycles


def _reference_count(cents, allowed, k, free=None):
    """The counter before grouping: one intersection per candidate element."""
    if k == 0:
        return 1 if free is None else len(free)
    level = {(allowed, free): 1}
    for _ in range(k - 1):
        nxt = {}
        for (a, f), ways in level.items():
            for x in a:
                c = cents[x]
                key = (a & c, None if f is None else f & c)
                nxt[key] = nxt.get(key, 0) + ways
        level = nxt
    if free is None:
        return sum(ways * len(a) for (a, _), ways in level.items())
    return sum(ways * sum(len(f & cents[x]) for x in a) for (a, f), ways in level.items())


def _matrix_group(n, q):
    ctx = fforacle._group_context(fforacle.field_make(*fforacle.field_params(q)), n)
    return ctx.centralizers, ctx.ss_set


def _perm_group(domain, *cycle_texts):
    table = group_generate([parse_cycles(t, domain) for t in cycle_texts])
    odd = frozenset(i for i, order in enumerate(table.orders) if order % 2)
    return table.centralizers, odd


GROUPS = {
    "GL2F2": lambda: _matrix_group(2, 2),
    "GL2F3": lambda: _matrix_group(2, 3),
    "GL2F4": lambda: _matrix_group(2, 4),
    "GL2F5": lambda: _matrix_group(2, 5),
    "GL3F2": lambda: _matrix_group(3, 2),
    "GL3F3": lambda: _matrix_group(3, 3),
    "S4": lambda: _perm_group(4, "(1 2)", "(1 2 3 4)"),
    "A5": lambda: _perm_group(5, "(1 2 3)", "(3 4 5)"),
    "D12": lambda: _perm_group(12, "(1 2 3 4 5 6 7 8 9 10 11 12)", "(1 12)(2 11)(3 10)(4 9)(5 8)(6 7)"),
}


@pytest.mark.parametrize("name", GROUPS)
def test_grouped_count_matches_the_per_element_count(name):
    cents, restricted = GROUPS[name]()
    everything = frozenset(range(len(cents)))
    # every set its own object: grouping must go by equality, not identity
    copies = tuple(frozenset(list(c)) for c in cents)
    assert copies == cents and all(a is not b for a, b in zip(copies, cents))
    large = len(cents) > 10_000  # GL_3(F_3): the semisimple tuples only, and no copies, to stay fast
    for allowed in (restricted,) if large else (everything, restricted):
        for k in (0, 1, 2, 3):
            for free in (None, everything, restricted):
                expected = _reference_count(cents, allowed, k, free)
                assert count_commuting_tuples(cents, allowed, k, free) == expected, (k, free is None)
                if not large:
                    assert count_commuting_tuples(copies, allowed, k, free) == expected, (k, free is None)
        # the resumable walk gives the same counts for k = 1, 2, 3
        expected = [_reference_count(cents, allowed, k) for k in (1, 2, 3)]
        assert list(islice(commuting_tuple_counts(cents, allowed), 3)) == expected
        if not large:
            assert list(islice(commuting_tuple_counts(copies, allowed), 3)) == expected


@pytest.mark.parametrize("free", [None, frozenset({0})])
def test_negative_tuple_length_is_refused(free):
    # no centralizer sets at all: any level step would raise IndexError first
    with pytest.raises(ValueError, match=r"^tuple length k must be >= 0$"):
        count_commuting_tuples((), frozenset({0}), -1, free)
