"""The one commuting-tuple counter that the oracle and the group lab share.

A free entry commutes with every other entry, so it is drawn first: each y
in ``free`` leaves the subproblem ``allowed & cents[y]``.  From then on the
count runs level by level, and level j maps each subproblem (one set) reached
by the partial j-tuples to the number of partial tuples that reach it.
``_step`` is the one level step and ``_counts`` the one walk, which yields
the counts for k = 0, 1, 2, ...: ``count_commuting_tuples`` reads one k off
it, and ``commuting_tuple_counts`` is the same walk from k = 1.
"""

from collections import Counter
from collections.abc import Iterator
from itertools import islice


def _step(cents, level: dict, source: frozenset | None = None) -> dict:
    """The next level: each subproblem a draws one entry x from ``source`` (a itself if None) and leaves a & cents[x].

    The candidates are grouped by centralizer set (equal sets group together,
    the same object or not), so each distinct set is intersected once and
    weighted by its group's size.
    """
    nxt: dict = {}
    for a, ways in level.items():
        for c, size in Counter(map(cents.__getitem__, a if source is None else source)).items():
            key = a & c
            nxt[key] = nxt.get(key, 0) + ways * size
    return nxt


def _counts(cents, level: dict) -> Iterator[int]:
    """The tuple counts for k = 0, 1, 2, ... from level 0; the count at k + 1 is read off level k, built only when asked."""
    yield sum(level.values())
    while True:
        yield sum(ways * len(a) for a, ways in level.items())
        level = _step(cents, level)


def count_commuting_tuples(cents, allowed: frozenset, k: int, free: frozenset | None = None) -> int:
    """Commuting k-tuples drawn from ``allowed``, followed by one from ``free`` if given.

    ``cents`` holds, per index, the set of indices of the elements commuting
    with it.  Partial tuples are extended through intersections of
    centralizer sets, never by raw enumeration of every candidate tuple, and
    no call recurses k deep.
    """
    if k < 0:
        raise ValueError("tuple length k must be >= 0")
    level = {allowed: 1} if free is None else _step(cents, {allowed: 1}, free)
    return next(islice(_counts(cents, level), k, None))


def commuting_tuple_counts(cents, allowed: frozenset) -> Iterator[int]:
    """``count_commuting_tuples(cents, allowed, k)`` for k = 1, 2, 3, ..., from one walk that resumes."""
    return islice(_counts(cents, {allowed: 1}), 1, None)
