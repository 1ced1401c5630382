"""The one commuting-tuple counter that the oracle and the group lab share.

The count runs level by level: level j maps each (allowed, free) subproblem
reached by the partial j-tuples to the number of partial tuples that reach
it.  ``_levels`` is the one level step.  ``count_commuting_tuples`` walks it
to one k; ``commuting_tuple_counts`` yields the counts for k = 1, 2, 3, ...
from one walk, for a caller that asks several k of the same allowed set.
"""

from collections import Counter
from collections.abc import Iterator
from itertools import islice


def _levels(cents, allowed: frozenset, free: frozenset | None) -> Iterator[dict]:
    """Level 0, 1, 2, ... of the walk; a level is built only when asked for, and only the last is kept.

    Within a subproblem the candidates are grouped by centralizer set (equal
    sets group together, the same object or not), so each distinct set is
    intersected once and weighted by its group's size.
    """
    level = {(allowed, free): 1}
    while True:
        yield level
        nxt: dict = {}
        for (a, f), ways in level.items():
            for c, size in Counter(map(cents.__getitem__, a)).items():
                key = (a & c, None if f is None else f & c)
                nxt[key] = nxt.get(key, 0) + ways * size
        level = nxt


def _tuples_from(level: dict) -> int:
    """The k-tuples that extend the partial (k - 1)-tuples of level k - 1, with no free slot."""
    return sum(ways * len(a) for (a, _), ways in level.items())


def count_commuting_tuples(cents, allowed: frozenset, k: int, free: frozenset | None = None) -> int:
    """Commuting k-tuples drawn from ``allowed``, followed by one from ``free`` if given.

    ``cents`` holds, per index, the set of indices of the elements commuting
    with it.  Partial tuples are extended through intersections of
    centralizer sets, never by raw enumeration of every candidate tuple.  Each
    (allowed, free) subproblem of a level is counted once, with the number of
    partial tuples that reach it, and no call recurses k deep.
    """
    if k == 0:
        return 1 if free is None else len(free)
    level = next(islice(_levels(cents, allowed, free), k - 1, None))
    if free is None:
        return _tuples_from(level)
    return sum(
        ways * sum(size * len(f & c) for c, size in Counter(map(cents.__getitem__, a)).items())
        for (a, f), ways in level.items()
    )


def commuting_tuple_counts(cents, allowed: frozenset) -> Iterator[int]:
    """``count_commuting_tuples(cents, allowed, k)`` for k = 1, 2, 3, ..., from one walk that resumes.

    The count at k is read off level k - 1, so the walk steps to level k - 1
    only when the count at k is asked for.
    """
    return map(_tuples_from, _levels(cents, allowed, None))
