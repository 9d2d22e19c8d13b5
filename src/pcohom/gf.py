"""Exact linear algebra over the prime field F_p (p prime: inverses are
taken by Fermat's little theorem).

Matrices are dense numpy int64 arrays with entries reduced mod p.  ``rref``,
``rank`` and ``nullspace`` eliminate a matrix once.  A matrix that is
queried many times (membership, coordinates, solutions) is factored once
into a ``Span``, the one factored-solve object, and each query is then a
single product against its kept rref rows and transform.
"""

from __future__ import annotations

import bisect

import numpy as np


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(a, p):
    """Reduced row echelon form of ``a`` mod p.

    Returns (R, pivots) where R contains only the nonzero rows and
    pivots[i] is the pivot column of row i.
    """
    a = np.array(a, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * _inv_mod(a[r, c], p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(a, p) -> int:
    r, _ = rref(a, p)
    return r.shape[0]


def nullspace(a, p):
    """Basis (rows) of {x : a @ x = 0 mod p}: row k is the identity on
    the free (non-pivot) columns, free[k] = 1, taken in increasing order
    of the free column."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    ncols = a.shape[1]
    r, pivots = rref(a, p)
    free = np.setdiff1d(np.arange(ncols), pivots)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[:, free]).T % p
    return basis


class Span:
    """The one factored-solve object over F_p.

    It holds the row space of the vectors added so far (``added``, in
    order) as rref ``rows`` with pivot columns ``pivots``, plus the
    transform ``trans`` with rows == trans @ added (mod p).  Column k of
    ``trans`` is zero when added[k] did not grow the span.  Every query is
    then one product against the kept factors: a vector v reduces to
    v - v[pivots] @ rows, because each rref row is zero at the other
    pivots.
    """

    def __init__(self, ncols: int, p: int, vectors=()):
        self.p = p
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []
        self.trans = np.zeros((0, 0), dtype=np.int64)
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def reduce(self, v):
        """v minus its projection on the span; v is one vector or a
        matrix of row vectors, reduced row by row."""
        v = np.asarray(v, dtype=np.int64) % self.p
        return (v - v[..., self.pivots] @ self.rows) % self.p

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))

    def add(self, v) -> bool:
        """Add v to the span; returns True if the dimension grew."""
        p = self.p
        v = np.asarray(v, dtype=np.int64) % p
        coef = v[self.pivots]
        r = (v - coef @ self.rows) % p
        self.trans = np.pad(self.trans, ((0, 0), (0, 1)))
        nz = np.nonzero(r)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        t = (-coef @ self.trans) % p        # r == t @ added once t[-1] = 1
        t[-1] = 1
        inv = _inv_mod(r[c], p)
        r, t = (r * inv) % p, (t * inv) % p
        # back-substitute into existing rows to keep rref shape
        col = self.rows[:, c].copy()
        self.rows = (self.rows - np.outer(col, r)) % p
        self.trans = (self.trans - np.outer(col, t)) % p
        # insert keeping pivot columns sorted
        pos = bisect.bisect(self.pivots, c)
        self.rows = np.insert(self.rows, pos, r, axis=0)
        self.trans = np.insert(self.trans, pos, t, axis=0)
        self.pivots.insert(pos, c)
        return True

    def basis(self):
        return self.rows.copy()

    def coords(self, v):
        """Coefficients expressing v over the basis rows, or None."""
        v = np.asarray(v, dtype=np.int64) % self.p
        return v[self.pivots] if self.contains(v) else None

    def solve(self, v):
        """x with x @ added == v (mod p), or None if v is outside the span.

        x is zero on every added vector that did not grow the span, which
        is the solution of added.T @ x == v with free variables zero.  For
        a matrix of row vectors v, x has one row per row of v, and None
        means some row is outside the span."""
        v = np.asarray(v, dtype=np.int64) % self.p
        if not self.contains(v):
            return None
        return (v[..., self.pivots] @ self.trans) % self.p
