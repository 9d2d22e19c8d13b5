"""Exact linear algebra over the prime field F_p (p prime: inverses are
taken by Fermat's little theorem).

Results are dense numpy int64 arrays with entries reduced mod p.
``rref`` eliminates in the narrowest dtype that keeps every intermediate
exact (``_working_dtype``): bool rows updated by XOR for p = 2, int16 for
3 <= p <= 181, where every intermediate lies in [-(p-1)^2, (p-1)^2] and
180^2 < 2^15, and int64 above (the lemma is at ``rref``); it returns int64
all the same, for its callers' products, except to ``rank`` and
``nullspace``, which read its working-dtype rows and widen only what they
return.  Its input may be any integer or bool array, and ``nullspace``
passes its input on as it is: a caller that builds a large system builds
it in the working dtype, and no int64 copy of it is ever made.  ``rref``,
``rank`` and ``nullspace`` eliminate a matrix once.  A matrix whose span
answers solves is factored once into a ``Span``, the one factored-solve
object, and each query is then a single product against its kept rref
rows and transform.  Every query takes one vector or a matrix of row
vectors, so a batch of solves is one product too.  A subspace is passed
around as its basis rows (a plain array); ``Span.rows`` is the rref basis
of a span, which is ``rref(vectors)[0]``, as an rref is unique.  An
inclusion between two bases asks for no solve, and one ``rank`` answers
it: for Y with independent rows, rowspace(X) <= rowspace(Y) iff
rank([Y; X]) = len(Y).

Each elimination touches only what it changes: ``rref`` drops the zero
rows and, at each pivot, updates only the rows that are nonzero in the
pivot column, from that column on.  ``Span.add`` is the one way a span is
factored: its initial vectors and every later vector, or matrix of them,
go through it.  It finds the vectors that grow the span by one rref, and
merges them into the kept factors by one more rref of the stacked
factors, which is unique.
"""

from __future__ import annotations

import numpy as np

from .core import _CHUNK_ENTRIES
from .errors import EdgeCheckFailed


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


# (p - 1)^2 <= 32,400 < 2^15 for p <= 181; the next prime, 191, exceeds it
_INT16_MAX_P = 181


def _working_dtype(p: int):
    """The narrowest dtype in which `rref` eliminates mod p exactly."""
    if p == 2:
        return np.bool_
    return np.int16 if p <= _INT16_MAX_P else np.int64


def _reduced(a, p) -> np.ndarray:
    """a mod p in the working dtype, the remainder taken in int64 a buffer
    at a time, so no int64 copy of a is made."""
    w = np.empty(a.shape, dtype=_working_dtype(p))
    np.remainder(a, np.int64(p), out=w, casting="unsafe")
    return w


def rref(a, p, *, int64=True):
    """Reduced row echelon form of ``a`` mod p.

    Returns (R, pivots) where R is int64, contains only the nonzero rows
    and pivots[i] is the pivot column of row i.  With int64=False, R is
    left in the working dtype, a view of the compacted working copy, so
    no int64 copy of the pivot rows is made (`rank`, `nullspace`).

    The input is reduced mod p into the working dtype (`_reduced`; the
    caller's array is never written), and only its rows that are nonzero
    mod p are kept through the elimination.  An input of more than one
    chunk of about `core._CHUNK_ENTRIES` = 2^16 entries is read twice, a
    chunk at a time: one pass finds the rows that are nonzero mod p, and a
    second reduces only those rows into the compacted array.  So besides
    the input and the compacted copy, no array above a chunk's size is
    made: no int64 copy of the input and no uncompacted working copy.

    Each pivot step scans its column once and touches only the entries it
    changes: the pivot row is the first nonzero one at or below row r,
    swapped into place (row r was zero there, so the other nonzero rows
    keep their places); it is scaled from the pivot column on, and only
    the other rows that are nonzero in the pivot column are updated, from
    the pivot column on (left of it the pivot row is zero).
    The rref of a matrix is unique, so R and pivots are those of a full
    elimination.

    Lemma: the working dtype (`_working_dtype`) is exact.  Every entry
    held between steps lies in [0, p).  For p = 2 the pivot entry is 1
    and so is every hit row's entry in the pivot column, so there is no
    scaling and the update subtracts the pivot row, which mod 2 is XOR of
    bool rows.  Otherwise, with x, y, h, inv in [0, p), the scaling
    x * inv lies in [0, (p-1)^2] and the update y - h * x in
    [-(p-1)^2, p-1] before their % p; for 3 <= p <= 181,
    (p-1)^2 <= 32,400 < 2^15, so both fit int16.  Larger p stay in
    int64, where (p-1)^2 < 2^63 for every p below 2^31."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise EdgeCheckFailed("rref expects a 2-d array")
    step = max(1, _CHUNK_ENTRIES // max(a.shape[1], 1))
    if a.shape[0] <= step:
        a = _reduced(a, p)
        a = a[a.any(axis=1)]
    else:
        live = np.concatenate([_reduced(a[lo:lo + step], p).any(axis=1)
                               for lo in range(0, a.shape[0], step)])
        live = live.nonzero()[0]
        w = np.empty((len(live), a.shape[1]), dtype=_working_dtype(p))
        for lo in range(0, len(live), step):
            w[lo:lo + step] = _reduced(a[live[lo:lo + step]], p)
        a = w
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[:, c].nonzero()[0]
        j = col.searchsorted(r)
        if j == col.size:
            continue
        i = int(col[j])
        if i != r:
            a[[r, i]] = a[[i, r]]
        hit = col[col != i]
        if p == 2:
            if hit.size:
                a[hit, c:] ^= a[r, c:]
        else:
            row = a[r, c:]
            row *= _inv_mod(row[0], p)
            row %= p
            if hit.size:
                a[hit, c:] = (a[hit, c:] - a[hit, c, None] * row) % p
        pivots.append(c)
        r += 1
    return (a[:r].astype(np.int64) if int64 else a[:r]), pivots


def rank(a, p) -> int:
    return len(rref(a, p, int64=False)[1])


def nullspace(a, p):
    """Basis (rows) of {x : a @ x = 0 mod p}: row k is the identity on
    the free (non-pivot) columns, free[k] = 1, taken in increasing order
    of the free column.  An integer or bool ``a`` is read as it is, with
    no int64 copy: `rref` reduces it into the working dtype, and only the
    free columns of its pivot rows are widened to int64."""
    a = np.atleast_2d(np.asarray(a))
    ncols = a.shape[1]
    r, pivots = rref(a, p, int64=False)
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    free = free.nonzero()[0]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[:, free].astype(np.int64)).T % p
    return basis


class Span:
    """The one factored-solve object over F_p.

    It holds the row space of the vectors added so far (``added``, in
    order) as rref ``rows`` with pivot columns ``pivots``, plus the
    transform ``trans`` with rows == trans @ added (mod p).  Column k of
    ``trans`` is nonzero exactly when added[k] grew the span: on those
    columns ``trans`` is invertible, as it maps one basis of the span onto
    another, and the other columns are zero.  Every query is
    then one product against the kept factors: a vector v reduces to
    v - v[pivots] @ rows, because each rref row is zero at the other
    pivots.
    """

    def __init__(self, ncols: int, p: int, vectors=()):
        self.p = p
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []
        self.trans = np.zeros((0, 0), dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.int64)
        if len(vectors):
            self.add(vectors)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def reduce(self, v):
        """v minus its projection on the span; v is one vector or a
        matrix of row vectors, reduced row by row."""
        v = np.asarray(v, dtype=np.int64) % self.p
        return (v - v[..., self.pivots] @ self.rows) % self.p

    def contains(self, v) -> bool:
        """v lies in the span; for a matrix v, every row of it does."""
        return not np.any(self.reduce(v))

    def add(self, v):
        """Add v to the span; returns True if the dimension grew.

        v may also be a matrix of row vectors, added in order in one
        elimination; then the result is a bool array, True at each row
        that grew the span of the vectors before it.  The rows that grow
        are the pivot columns of rref(w.T), w the rows reduced against the
        span (w[j] is independent of w[:j] iff v[j] is independent of the
        span and v[:j]).  One rref of the stacked factors
        [[rows | trans, 0]; [w[grow] | x]], with x = [-coef[grow] @ trans,
        I[grow]] the coefficients of w[grow] over the added vectors, then
        gives the new rows, pivots and transform.  Every stacked row is a
        pair (t @ added, t) with t zero off the vectors that grew, and the
        left block has full row rank, so every pivot is a column of the
        left block, and the row space is that of all such pairs.  An rref
        is unique, so the state is the one adding the rows one at a time
        would leave."""
        p = self.p
        v = np.asarray(v, dtype=np.int64) % p
        w = np.atleast_2d(v)
        (r, ncols), k = self.rows.shape, len(w)
        coef = w[:, self.pivots]
        w = (w - coef @ self.rows) % p
        grow = rref(w.T, p)[1]
        m = self.trans.shape[1]
        stacked = np.zeros((r + len(grow), ncols + m + k), dtype=np.int64)
        stacked[:r, :ncols] = self.rows
        stacked[:r, ncols:ncols + m] = self.trans
        stacked[r:, :ncols] = w[grow]
        stacked[r:, ncols:ncols + m] = -coef[grow] @ self.trans
        stacked[np.arange(r, r + len(grow)),
                ncols + m + np.asarray(grow, dtype=np.intp)] = 1
        R, self.pivots = rref(stacked, p)
        self.rows, self.trans = R[:, :ncols], R[:, ncols:]
        grew = np.isin(np.arange(k), grow)
        return bool(grew[0]) if v.ndim == 1 else grew

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
