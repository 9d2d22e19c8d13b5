import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcohom import gf

PRIMES = [2, 3, 5, 7]


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
@given(st.integers(0, 2**32 - 1), st.sampled_from(PRIMES),
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
    for v in vs:
        assert span.contains(v)
        c = span.coords(v)
        assert c is not None
        assert np.array_equal((c @ span.basis()) % p, v % p)
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
