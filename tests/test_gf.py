import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcohom import core, gf
from pcohom.catalog import catalog_instances
from pcohom.cohomology import (_kept_loops, _tree_coboundaries, _z2_basis,
                               h2_space)

PRIMES = [2, 3, 5, 7]
# the two sides of rref's int16 gate: (p-1)^2 is 32,400 < 2^15 at 181 and
# 36,100 > 2^15 at 191
KERNEL_PRIMES = PRIMES + [181, 191]


def rand_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols)).astype(np.int64)


# ---------------------------------------------------------------------
# fixed oracles
# ---------------------------------------------------------------------

def test_rref_identity():
    r, piv = gf.rref(np.eye(3, dtype=np.int64), 5)
    assert np.array_equal(r, np.eye(3, dtype=np.int64))
    assert piv == [0, 1, 2]


def test_rref_known_rank():
    # rows 2 and 3 are multiples of row 1 mod 5
    a = np.array([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
    assert gf.rank(a, 5) == 1
    # mod 2 the second row vanishes entirely
    assert gf.rank(a, 2) == 1


def solve(a, b, p):
    """One solution x of a @ x = b mod p via a Span over the columns of a."""
    return gf.Span(a.shape[0], p, a.T).solve(b)


def test_solve_known_system():
    a = np.array([[1, 1], [0, 1]])
    x = solve(a, np.array([0, 1]), 2)
    assert np.array_equal((a @ x) % 2, [0, 1])
    # inconsistent system
    a = np.array([[1, 1], [1, 1]])
    assert solve(a, np.array([0, 1]), 2) is None


def test_nullspace_known():
    a = np.array([[1, 1, 0], [0, 0, 1]])
    ns = gf.nullspace(a, 3)
    assert ns.shape == (1, 3)
    assert np.array_equal((a @ ns.T) % 3, np.zeros((2, 1)))


# ---------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PRIMES),
       st.integers(1, 8), st.integers(1, 8))
def test_rref_preserves_row_space(seed, p, rows, cols):
    rng = np.random.default_rng(seed)
    a = rand_matrix(rng, rows, cols, p)
    r, piv = gf.rref(a, p)
    assert len(piv) == r.shape[0] == gf.rank(a, p)
    # every original row is in the span of the rref rows, and vice versa
    for v in a:
        assert gf.Span(cols, p, r).contains(v) if r.shape[0] else not v.any()
    for v in r:
        assert gf.Span(cols, p, a).contains(v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KERNEL_PRIMES),
       st.integers(1, 7), st.integers(1, 7))
def test_nullspace_and_rank_nullity(seed, p, rows, cols):
    rng = np.random.default_rng(seed)
    a = rand_matrix(rng, rows, cols, p)
    ns = gf.nullspace(a, p)
    assert not np.any((a @ ns.T) % p)
    assert gf.rank(a, p) + ns.shape[0] == cols
    # canonical form: the identity on the free columns, in increasing order
    free = np.setdiff1d(np.arange(cols), gf.rref(a, p)[1])
    assert np.array_equal(ns[:, free], np.eye(len(free), dtype=np.int64))
    if ns.shape[0]:
        assert gf.rank(ns, p) == ns.shape[0]


def test_nullspace_reads_narrow_inputs_as_they_are():
    """nullspace over bool, int8, int16 and int64 inputs gives the int64
    basis of the int64 input, at p = 2 (bool working dtype), 3 (int16)
    and 191 (int64): 0/1 matrices in every dtype, and signed entries in
    the integer ones."""
    rng = np.random.default_rng(20260824)
    for p in (2, 3, 191):
        for rows, cols in [(1, 1), (4, 9), (9, 4), (12, 12)]:
            a = rng.integers(0, 2, size=(rows, cols))
            want = gf.nullspace(a.astype(np.int64), p)
            assert want.dtype == np.int64
            for dt in (np.bool_, np.int8, np.int16, np.int64):
                got = gf.nullspace(a.astype(dt), p)
                assert got.dtype == np.int64 and np.array_equal(got, want)
            a = rng.integers(-100, 100, size=(rows, cols))
            want = gf.nullspace(a.astype(np.int64), p)
            assert not ((a @ want.T) % p).any()
            for dt in (np.int8, np.int16):
                assert np.array_equal(gf.nullspace(a.astype(dt), p), want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PRIMES),
       st.integers(1, 7), st.integers(1, 7))
def test_solve_solves_solvable_systems(seed, p, rows, cols):
    rng = np.random.default_rng(seed)
    a = rand_matrix(rng, rows, cols, p)
    x0 = rng.integers(0, p, size=cols)
    b = (a @ x0) % p
    x = solve(a, b, p)
    assert x is not None
    assert np.array_equal((a @ x) % p, b)


def rref_solve(a, b, p):
    """Reference: rref of [a | b], free variables zero; None if the
    augmented column is a pivot."""
    ncols = a.shape[1]
    r, pivots = gf.rref(np.concatenate([a, b.reshape(-1, 1)], axis=1), p)
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r[i, ncols]
    return x


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PRIMES),
       st.integers(1, 7), st.integers(1, 7), st.booleans())
def test_span_solve_matches_rref_reference(seed, p, rows, cols, consistent):
    rng = np.random.default_rng(seed)
    # a random product of rank at most k, so that free variables and
    # inconsistent right-hand sides both occur
    k = int(rng.integers(1, min(rows, cols) + 1))
    a = (rand_matrix(rng, rows, k, p) @ rand_matrix(rng, k, cols, p)) % p
    b = (a @ rng.integers(0, p, size=cols)) % p if consistent else \
        rng.integers(0, p, size=rows)
    expect = rref_solve(a, b, p)
    x = gf.Span(rows, p, a.T).solve(b)
    if expect is None:
        assert x is None
    else:
        assert np.array_equal(x, expect)
        assert np.array_equal((a @ x) % p, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PRIMES), st.integers(1, 6))
def test_span_matches_batch_rank(seed, p, cols):
    rng = np.random.default_rng(seed)
    vs = rand_matrix(rng, 8, cols, p)
    span = gf.Span(cols, p)
    for v in vs:
        grew = span.add(v.copy())
        assert isinstance(grew, bool)
    assert span.dim == gf.rank(vs, p)
    assert span.contains(vs)
    for v in vs:
        assert span.contains(v)
        # rref rows: a member is its entries at the pivots over the rows
        assert np.array_equal((v[span.pivots] @ span.rows) % p, v % p)
    # reduce is one product; the pivot loop is its reference
    w = rng.integers(0, p, size=cols)
    ref = w.copy()
    for i, c in enumerate(span.pivots):
        ref = (ref - ref[c] * span.rows[i]) % p
    assert np.array_equal(span.reduce(w), ref)


def test_span_rejects_dependent_vector():
    span = gf.Span(3, 2)
    assert span.add([1, 1, 0])
    assert span.add([0, 1, 1])
    assert not span.add([1, 0, 1])   # sum of the first two
    assert span.dim == 2
    assert not span.contains([1, 1, 1])
    # the dependent vector gets coefficient zero; the others are unique
    assert np.array_equal(span.solve([1, 0, 1]), [1, 1, 0])
    assert np.array_equal(span.trans @ np.array([[1, 1, 0], [0, 1, 1],
                                                 [1, 0, 1]]) % 2, span.rows)


# ---------------------------------------------------------------------
# touched-entry elimination against the parent's full updates
# ---------------------------------------------------------------------

def full_rref(a, p):
    """Reference: gf.rref before it touched only the entries it changes;
    the whole matrix is updated at every pivot."""
    a = np.array(a, dtype=np.int64) % p
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
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


class LoopSpan:
    """Reference: gf.Span before it factored its initial vectors in one
    elimination; each vector is added by itself, padding the transform,
    back-substituting and inserting one row."""

    def __init__(self, ncols, p, vectors=()):
        self.p = p
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots = []
        self.trans = np.zeros((0, 0), dtype=np.int64)
        self.grew = [self.add(v) for v in vectors]

    def add(self, v):
        p = self.p
        v = np.asarray(v, dtype=np.int64) % p
        coef = v[self.pivots]
        r = (v - coef @ self.rows) % p
        self.trans = np.pad(self.trans, ((0, 0), (0, 1)))
        nz = np.nonzero(r)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        t = (-coef @ self.trans) % p
        t[-1] = 1
        inv = pow(int(r[c]), p - 2, p)
        r, t = (r * inv) % p, (t * inv) % p
        col = self.rows[:, c].copy()
        self.rows = (self.rows - np.outer(col, r)) % p
        self.trans = (self.trans - np.outer(col, t)) % p
        pos = int(np.searchsorted(self.pivots, c))
        self.rows = np.insert(self.rows, pos, r, axis=0)
        self.trans = np.insert(self.trans, pos, t, axis=0)
        self.pivots.insert(pos, c)
        return True


def assert_same_span(got, want):
    assert got.pivots == want.pivots
    for a, b in ((got.rows, want.rows), (got.trans, want.trans)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def shaped_matrix(rng, rows, cols, p):
    """A random matrix mod p, half the time of low rank, with zero rows
    and repeats of earlier rows spliced in."""
    if rng.random() < 0.5:
        k = int(rng.integers(0, min(rows, cols) + 1))
        a = (rand_matrix(rng, rows, k, p) @ rand_matrix(rng, k, cols, p)) % p
    else:
        a = rand_matrix(rng, rows, cols, p)
    for i in range(rows):
        u = rng.random()
        if u < 0.15:
            a[i] = 0
        elif u < 0.3 and i:
            a[i] = a[rng.integers(i)]
    return a


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KERNEL_PRIMES),
       st.integers(0, 9), st.integers(0, 9), st.booleans())
@example(1, 2, 7, 6, True)
@example(2, 3, 8, 5, True)
@example(3, 191, 6, 8, True)
def test_rref_matches_full_update_reference(seed, p, rows, cols, lifted):
    """rref against the reference; a lifted input has the same residues
    with negative entries and entries >= p, which rref reduces as it reads
    them into its working dtype (the examples cover p = 2, 3 and 191, one
    per dtype)."""
    rng = np.random.default_rng(seed)
    a = shaped_matrix(rng, rows, cols, p)
    if lifted:
        a = a + p * rng.integers(-3, 4, size=a.shape)
    r, piv = gf.rref(a, p)
    want_r, want_piv = full_rref(a, p)
    assert piv == want_piv
    assert r.dtype == want_r.dtype and r.shape == want_r.shape
    assert np.array_equal(r, want_r)


@pytest.mark.parametrize("p", [181, 191])
def test_rref_reaches_the_int16_bound(p):
    """Entries p - 1 drive both intermediates of the lemma at gf.rref to
    their bound.  Scaling row 0 by 1/(p-1) = p-1 gives (p-1)^2 and leaves
    (1, 1, 0); row 1 becomes (0, 1, p-1), the second pivot row; the
    update of row 2, which is p-1 in the pivot column and 0 where that row
    is p-1, gives 0 - (p-1)(p-1) = -(p-1)^2.  That fits int16 at 181; at
    191 it does not, so there rref must stay in int64."""
    m = p - 1
    a = np.array([[m, m, 0],
                  [m, 0, m],
                  [0, m, 0]], dtype=np.int64)
    r, piv = gf.rref(a, p)
    want_r, want_piv = full_rref(a, p)
    assert piv == want_piv
    assert r.dtype == np.int64 and np.array_equal(r, want_r)


@pytest.mark.parametrize("p", [2, 3, 191])
def test_rref_leaves_its_input_unchanged(p):
    """One prime per working dtype (bool, int16, int64): an int64 input,
    which np.asarray does not copy, with entries beyond p, a zero row and
    a row swap, is unchanged, and R shares no memory with it."""
    a = np.array([[0, 0, 0, 0],
                  [0, p + 1, 2 * p, 1],
                  [p, 1, 1, 0],
                  [1, 0, p - 1, 1]], dtype=np.int64)
    before = a.copy()
    r, piv = gf.rref(a, p)
    assert np.array_equal(a, before)
    assert not np.shares_memory(r, a)
    assert np.array_equal(r, full_rref(before, p)[0])


def zero_mod_p_rows(p, chunks=3):
    """An int64 input of `chunks` chunks of `core._CHUNK_ENTRIES` entries
    and a few rows more, whose rows are 0 mod p but not 0 (random
    multiples of p, and 0), except five rows in the first and last
    chunks; the chunks between are 0 mod p throughout."""
    rng = np.random.default_rng(p)
    cols = 4
    step = core._CHUNK_ENTRIES // cols
    a = p * rng.integers(-3, 4, size=(chunks * step + 7, cols))
    live = [0, 5, step - 1, chunks * step + 3, chunks * step + 6]
    a[live] += rng.integers(1, p, size=(len(live), cols))
    return a, live


@pytest.mark.parametrize("p", [2, 3, 5, 191])
def test_rref_drops_rows_that_are_zero_mod_p(p):
    """Rows that are 0 mod p are dropped, in every chunk, before the
    elimination: R equals the full-update reference on the whole input
    and on its live rows alone, and the input is unchanged.  One prime per
    working dtype and one more (bool, int16 twice, int64)."""
    a, live = zero_mod_p_rows(p)
    assert (a % p).any(axis=1).nonzero()[0].tolist() == live
    assert (a != 0).any(axis=1).sum() > len(live)
    before = a.copy()
    r, piv = gf.rref(a, p)
    want_r, want_piv = full_rref(a[live], p)
    assert piv == want_piv and r.dtype == np.int64
    assert np.array_equal(r, want_r)
    assert np.array_equal(a, before)


def test_rref_keeps_no_working_copy_of_zero_rows():
    """rref holds no working-dtype copy of the rows that are 0 mod p: on an
    input of 16 chunks whose rows are 0 mod 3 but five, it allocates less
    than one int16 copy of the input would take (2 MiB; a chunk's int64
    remainders take 0.5 MiB)."""
    a, _ = zero_mod_p_rows(3, chunks=16)
    tracemalloc.start()
    try:
        gf.rref(a, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.size * np.dtype(np.int16).itemsize, peak


def test_nullspace_makes_no_int64_copy_of_the_pivot_rows():
    """nullspace widens only the free columns of the pivot rows: on a
    700 x 720 bool system of rank 700 at p = 2 it allocates less than half
    of what an int64 copy of the pivot rows (3.8 MiB) would take, and its
    basis is that of the int64 input."""
    rng = np.random.default_rng(20260824)
    a = rng.integers(0, 2, size=(700, 720)).astype(np.bool_)
    want = gf.nullspace(a.astype(np.int64), 2)
    assert want.shape == (20, 720)
    tracemalloc.start()
    try:
        got = gf.nullspace(a, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 700 * 720 * np.dtype(np.int64).itemsize // 2, peak


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KERNEL_PRIMES),
       st.integers(0, 8), st.integers(0, 6), st.integers(0, 4))
def test_span_matches_add_loop_reference(seed, p, rows, cols, more):
    """The one-elimination constructor and a batch add leave the state of
    the add loop; so does each single add after them."""
    rng = np.random.default_rng(seed)
    v = shaped_matrix(rng, rows, cols, p)
    want = LoopSpan(cols, p, v)
    for vectors in (v, list(v)):
        assert_same_span(gf.Span(cols, p, vectors), want)
    span = gf.Span(cols, p, v)
    w = np.concatenate([shaped_matrix(rng, more, cols, p), v[:1]])
    grew = span.add(w)
    assert grew.dtype == bool
    assert list(grew) == [want.add(u) for u in w]
    assert_same_span(span, want)
    for u in shaped_matrix(rng, 3, cols, p):
        assert span.add(u) is want.add(u)
        assert_same_span(span, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PRIMES),
       st.integers(0, 8), st.integers(0, 6))
def test_trans_columns_mark_the_vectors_that_grew(seed, p, rows, cols):
    """trans restricted to the vectors that grew the span is invertible,
    so its column k is nonzero exactly when added[k] grew the span."""
    v = shaped_matrix(np.random.default_rng(seed), rows, cols, p)
    grew = LoopSpan(cols, p, v).grew
    span = gf.Span(cols, p, v)
    assert list(span.trans.any(axis=0)) == grew
    assert list(gf.Span(cols, p).add(v)) == grew
    t = span.trans[:, grew]
    assert gf.rank(t, p) == t.shape[0] == t.shape[1]


def coboundary_matrix(G):
    """B^2 before the tree gauge: the matrix with rows indexed by
    (g, generator index) and columns by y in {1..n-1}, where
    (d c)(g, s) = c[g] + c[s] - c[g s]; column y is the coboundary of the
    delta function at y."""
    n = G.order
    ngens = len(G.generators)
    B = np.zeros((n, n, ngens), dtype=np.int64)
    B[np.arange(n), np.arange(n), :] += 1
    for i, s in enumerate(G.generators):
        B[s, :, i] += 1
    B[G.mult_gen, np.arange(n)[:, None], np.arange(ngens)[None, :]] -= 1
    return B[1:].reshape(n - 1, n * ngens).T   # rows (g,i), cols y=1..n-1


def test_references_agree_on_cohomology_systems():
    """The rref of the Z^2 constraints (the reference rows of
    `test_cohomology.full_cocycle_constraints` over the off-tree columns),
    the B^2 span, and in kept coordinates the span of X.T and the span H^2
    reads grew off, for every catalog group of order at most 32: X.T is
    the tree-gauged coboundaries d(W[:, i]) at the kept edges, and _span
    is the reference span over the rows of X.T and the gauged cand rows
    (`cocycle_tables.gauge`) at the kept edges."""
    from cocycle_tables import gauge
    from test_cohomology import full_cocycle_constraints, off_tree
    n_groups = 0
    for name, G, p in catalog_instances():
        if G.order > 32:
            continue
        cons = full_cocycle_constraints(G, p)[:, off_tree(G)]
        r, piv = gf.rref(cons, p)
        want_r, want_piv = full_rref(cons, p)
        assert piv == want_piv and np.array_equal(r, want_r), name
        ncols = G.order * len(G.generators)
        bmat = coboundary_matrix(G).T
        assert_same_span(gf.Span(ncols, p, bmat), LoopSpan(ncols, p, bmat))
        W, X, xspan = _tree_coboundaries(G, p)
        kept = _kept_loops(G)[0]
        D = W[1:].T.astype(np.int64) @ bmat % p        # the d(W[:, i])
        assert np.array_equal(gauge(G, D, p), D), name
        assert np.array_equal(X.T, D[:, kept]), name
        assert_same_span(xspan, LoopSpan(len(kept), p, X.T))
        space = h2_space(G, p)
        cand = _z2_basis(G, p)
        want = LoopSpan(len(kept), p,
                        np.concatenate([X.T, gauge(G, cand, p)[:, kept]]))
        assert_same_span(space._span, want)
        assert list(space._reps) == list(
            np.flatnonzero(want.grew[len(X.T):]) + len(X.T)), name
        n_groups += 1
    assert n_groups == 33
