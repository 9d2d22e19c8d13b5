"""The table path of the 2-cocycle constructors, kept as the reference for
the generator-column constructors of `pcohom.cohomology`.

Each constructor below builds the whole n x n table f(x, y) as the
package once did, and checks it with the table check
(`constraint_violations`, plus normalization) before returning it.
`generator_columns` reads a table at the generator columns, `expand`
rebuilds the table from generator columns one BFS position at a time,
with no `core.bfs_levels`, and `matches_table` compares a Cocycle2 with a
reference table.  `gauge` is the BFS-tree gauge of generator columns,
the reference for the loop sums of `cohomology._kept_sums`.
"""

import numpy as np

from pcohom.cohomology import _expand_from_columns
from pcohom.core import bfs_levels


def generator_columns(G, table):
    """The values f(x, s) of a table at the generators s, as one vector of
    n * ngens entries, x major."""
    table = np.asarray(table, dtype=np.int64)
    return table[:, G.generators].reshape(G.order * len(G.generators))


def expand(G, u, p):
    """The table f with generator columns u, by f(g, d*s) = f(g, d) +
    u(g*d, s) - u(d, s) along the BFS predecessors, one position at a
    time."""
    n, ngens = G.order, len(G.generators)
    U = np.asarray(u, dtype=np.int64).reshape(n, ngens)
    f = np.zeros((n, n), dtype=np.int64)
    for x in range(1, n):
        pe, pg = G.pred[x]
        f[:, x] = (f[:, pe] + U[G.mult[:, pe], pg] - U[pe, pg]) % p
    return f


def gauge(G, u, p):
    """u - dc for generator columns u (one vector, or a matrix with one
    per row), where c(1) = 0 and c(x) = c(d) - u(d, s) along the BFS edge
    G.pred[x] = (d, s), computed a BFS level at a time (`bfs_levels`).
    For normalized u it is 0 on every tree edge, keeps the class of u and
    whether u is in Z^2, and at the kept edges it is the loop sums of
    `cohomology._kept_sums` (the lemma there)."""
    n, gens = G.order, np.asarray(G.generators, dtype=np.intp)
    u = np.asarray(u, dtype=np.int64)
    lead = u.shape[:-1]
    U = u.reshape(lead + (n, len(gens)))
    c = np.zeros(lead + (n,), dtype=np.int64)
    for lo, hi, d, s in bfs_levels(G.pred):
        c[..., lo:hi] = (c[..., d] - U[..., d, s]) % p
    dc = c[..., :, None] + c[..., None, gens] - c[..., G.mult_gen]
    return ((U - dc) % p).reshape(u.shape)


def matches_table(c, table):
    """Is the Cocycle2 c the reference table: its columns the table at the
    generator columns, and their expansion the whole table?"""
    return (np.array_equal(c.columns, generator_columns(c.group, table))
            and np.array_equal(_expand_from_columns(c.group, c.columns, c.p),
                               table))


def constraint_violations(G, f, p):
    """g-ids at which some identity f(g,h)+f(gh,s)-f(h,s)-f(g,hs) != 0
    (s ranging over generators) fails, i.e. df(g,h,s) != 0.

    Lemma: a normalized f with no violation is a cocycle.  From dd = 0,
    df(g,h,ks) = df(g,h,k) + df(h,k,s) - df(gh,k,s) + df(g,hk,s), so
    df(g,h,ks) = df(g,h,k) whenever s is a generator; by induction along
    the BFS word of c, df(g,h,c) = df(g,h,1) = 0 by normalization."""
    fs = f[:, G.generators]
    lhs = f[:, :, None] + fs[G.mult]
    rhs = fs[None, :, :] + f[:, G.mult_gen]
    bad = ((lhs - rhs) % p != 0).any(axis=(1, 2))
    return np.nonzero(bad)[0]


def table_accepts(G, f, p):
    """Does the table check accept f: shape n x n, normalized, and no
    violated identity?"""
    f = np.asarray(f, dtype=np.int64) % p
    n = G.order
    return (f.shape == (n, n) and not f[0].any() and not f[:, 0].any()
            and not len(constraint_violations(G, f, p)))


def checked(G, table, p):
    """The table mod p, after the table check."""
    f = np.asarray(table, dtype=np.int64) % p
    assert table_accepts(G, f, p)
    return f


def classifying_table(ext):
    """f(x,y) = iota^-1( s(x) s(y) s(xy)^-1 ) for the chosen section s."""
    E, Gbar, p = ext.E, ext.Gbar, ext.p
    z_of = np.full(E.order, -1, dtype=np.int64)
    z_of[ext.iota.image] = np.arange(ext.Z.order)
    sec = ext.section
    prod = E.mult[np.ix_(sec, sec)]
    vals = z_of[E.mult[prod, E.inv[sec[Gbar.mult]]]]
    assert vals.min() >= 0
    return checked(Gbar, vals, p)


def pullback_table(alpha, rho, p):
    """alpha(rho(x), rho(y)) for the table alpha on rho's codomain."""
    return checked(rho.domain, alpha[np.ix_(rho.image, rho.image)], p)


def cup_table(phi, psi):
    """phi(x) psi(y) for two characters on one group."""
    return checked(phi.group, phi.values[:, None] * psi.values[None, :],
                   phi.p)


def bockstein_table(phi):
    """carry / p, carry = v(x) + v(y) - v(xy) for the values v in [0, p)."""
    p, G = phi.p, phi.group
    v = phi.values % p
    carry = v[:, None] + v[None, :] - v[G.mult]
    return checked(G, (carry // p) % p, p)


def transgression_table(pi, psi):
    """psi( t(x) t(y) t(xy)^-1 ) for the BFS-minimal section t of pi."""
    G, Q = pi.domain, pi.codomain
    t = pi.section()
    prod = G.mult[np.ix_(t, t)]
    arg = G.mult[prod, G.inv[t[Q.mult]]]
    return checked(Q, psi.values[arg], psi.p)
