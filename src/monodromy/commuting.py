"""The one commuting-tuple counter that the oracle and the group lab share."""

from collections import Counter


def count_commuting_tuples(cents, allowed: frozenset, k: int, free: frozenset | None = None) -> int:
    """Commuting k-tuples drawn from ``allowed``, followed by one from ``free`` if given.

    ``cents`` holds, per index, the set of indices of the elements commuting
    with it.  Partial tuples are extended through intersections of
    centralizer sets, never by raw enumeration of every candidate tuple.  The
    count runs level by level, so each (allowed, free) subproblem of a level
    is counted once, with the number of partial tuples that reach it, and no
    call recurses k deep.  Within a subproblem the candidates are grouped by
    centralizer set (equal sets group together, the same object or not), so
    each distinct set is intersected once and weighted by its group's size.
    """
    if k == 0:
        return 1 if free is None else len(free)
    level = {(allowed, free): 1}
    for _ in range(k - 1):
        nxt: dict = {}
        for (a, f), ways in level.items():
            for c, size in Counter(map(cents.__getitem__, a)).items():
                key = (a & c, None if f is None else f & c)
                nxt[key] = nxt.get(key, 0) + ways * size
        level = nxt
    if free is None:
        return sum(ways * len(a) for (a, _), ways in level.items())
    return sum(
        ways * sum(size * len(f & c) for c, size in Counter(map(cents.__getitem__, a)).items())
        for (a, f), ways in level.items()
    )
