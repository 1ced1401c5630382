"""GL_n over a small field as a permutation group, for the tests that tie the oracle to the group lab."""

import itertools

from monodromy.fforacle import enumerate_invertible
from monodromy.groupdiv import FiniteGroupTable


def mat_vec(m, v):
    """Apply the matrix to a column vector."""
    f = m.field
    out = []
    for row in m.entries:
        acc = 0
        for x, y in zip(row, v):
            acc = f.add(acc, f.mul(x, y))
        out.append(acc)
    return tuple(out)


def matrix_group_table(f, n):
    """GL_n over the field as permutations of the nonzero column vectors."""
    vectors = [v for v in itertools.product(range(f.size), repeat=n) if any(v)]
    vec_index = {v: i for i, v in enumerate(vectors)}
    perms = [tuple(vec_index[mat_vec(m, v)] for v in vectors) for m in enumerate_invertible(n, f)]
    return FiniteGroupTable(perms, name=f"GL{n}F{f.size}")
