"""GL_n over a small field as a permutation group, for the tests that tie the oracle to the group lab."""

import itertools

from monodromy.fforacle import enumerate_invertible
from monodromy.groupdiv import FiniteGroupTable


def mat_vec(f, m, v):
    """Apply the flat row-major matrix m over the field f to a column vector."""
    n = len(v)
    add, mul = f.add_table, f.mul_table
    out = []
    for i in range(0, n * n, n):
        acc = 0
        for x, y in zip(m[i:i + n], v):
            acc = add[acc][mul[x][y]]
        out.append(acc)
    return tuple(out)


def matrix_group_table(f, n):
    """GL_n over the field as permutations of the nonzero column vectors."""
    vectors = [v for v in itertools.product(range(f.size), repeat=n) if any(v)]
    vec_index = {v: i for i, v in enumerate(vectors)}
    perms = [tuple(vec_index[mat_vec(f, m, v)] for v in vectors) for m in enumerate_invertible(n, f)]
    return FiniteGroupTable(perms, name=f"GL{n}F{f.size}")
