"""Concrete elements of table-held groups, rebuilt in the tests.

A FiniteGroup keeps only its tables.  Element i of a group closed by
`generate_group` is the BFS word of id i, read off pred, evaluated in the
concrete generators; `unitriangular_matrices` evaluates those words one
position at a time, with no `core.bfs_levels`, so it serves as the
reference for code that reads matrix entries off the tables.
"""

import numpy as np

from pcohom.core import element_order
from pcohom.elements import MatMod


def unitriangular_matrices(E):
    """E = U_n(Z/m), built from the superdiagonal generators 1 + E_{i,i+1}
    in order, as an (|E|, n+1, n+1) array: the matrix of every id, by
    MatMod products along E's BFS words, mats[c] = mats[d] * gens[s] for
    pred[c] = (d, s).  n is the number of generators and m the order of
    the first, 1 + E_01.  The matrices are checked to be distinct."""
    n, m = len(E.generators), element_order(E, E.generators[0])
    gens = []
    for i in range(n):
        a = np.eye(n + 1, dtype=np.int64)
        a[i, i + 1] = 1
        gens.append(MatMod(a, m))
    mats = [MatMod(np.eye(n + 1, dtype=np.int64), m)]
    for d, s in E.pred[1:]:
        mats.append(mats[d] * gens[s])
    if len(set(mats)) != E.order:
        raise ValueError("the BFS words do not give distinct matrices")
    return np.stack([x.entries for x in mats])
