"""Mod-p cohomology of finite groups with trivial coefficients.

Cochains are normalized (f(1,.) = f(.,1) = 0).  The key representation
fact used throughout: a normalized 2-cocycle is determined by its
"generator columns" f(g, s) for s a group generator, via

    f(g, h*s) = f(g, h) + f(g*h, s) - f(h, s),

so Z^2 is the nullspace of a linear system in |G| * ngens unknowns over
F_p, and coboundary tests are small linear solves.  The constraint system
is assembled lazily: candidate nullspace vectors are expanded to full
tables and re-checked against the complete identity set, and violated
constraints are fed back until the candidate space is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .core import (FiniteGroup, GroupHom, Subgroup, memo,
                   power_commutator_subgroup, quotient_group, subgroup_as_group,
                   subgroup_generated)
from .errors import GroupTooLarge, NotInvariant
from .unitriangular import CentralExtension

H2_ORDER_CAP = 128


# ---------------------------------------------------------------------
# Cochains and cocycles
# ---------------------------------------------------------------------

@dataclass
class Cochain1:
    group: FiniteGroup
    values: np.ndarray
    p: int
    is_hom: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64) % self.p
        if self.is_hom:
            assert self.values[0] == 0
            expect = (self.values[:, None] + self.values[None, :]) % self.p
            assert np.array_equal(self.values[self.group.mult], expect)

    def __add__(self, other):
        return Cochain1(self.group, (self.values + other.values) % self.p,
                        self.p, is_hom=self.is_hom and other.is_hom)

    def __neg__(self):
        return Cochain1(self.group, (-self.values) % self.p, self.p,
                        is_hom=self.is_hom)


@dataclass
class Cocycle2:
    group: FiniteGroup
    values: np.ndarray
    p: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64) % self.p
        self.values = v
        n = self.group.order
        assert v.shape == (n, n)
        assert not v[0].any() and not v[:, 0].any(), "cocycle must be normalized"
        _assert_cocycle_identity(self.group, v, self.p)

    def __add__(self, other):
        return Cocycle2(self.group, (self.values + other.values) % self.p, self.p)

    def __sub__(self, other):
        return Cocycle2(self.group, (self.values - other.values) % self.p, self.p)

    def scale(self, c):
        return Cocycle2(self.group, (c * self.values) % self.p, self.p)


def _assert_cocycle_identity(G: FiniteGroup, v: np.ndarray, p: int):
    n = G.order
    mult = G.mult
    step = max(1, (2 ** 22) // (n * n))
    for lo in range(0, n, step):
        g = slice(lo, min(lo + step, n))
        lhs = v[g, :, None] + v[mult[g], :]
        rhs = v[None, :, :] + v[np.arange(n)[g][:, None, None], mult[None, :, :]]
        if not ((lhs - rhs) % p == 0).all():
            raise AssertionError("cocycle identity violated")


# ---------------------------------------------------------------------
# Coboundary linear algebra on generator columns
# ---------------------------------------------------------------------

@memo
def _coboundary_matrix(G: FiniteGroup):
    """Matrix A with rows indexed by (g, generator index) and columns by
    y in {1..n-1}, where (d c)(g, s) = c[g] + c[s] - c[g s]."""
    n = G.order
    ngens = len(G.generators)
    B = np.zeros((n, n, ngens), dtype=np.int64)
    B[np.arange(n), np.arange(n), :] += 1
    for i, s in enumerate(G.generators):
        B[s, :, i] += 1
    B[G.mult_gen, np.arange(n)[:, None], np.arange(ngens)[None, :]] -= 1
    return B[1:].reshape(n - 1, n * ngens).T   # rows (g,i), cols y=1..n-1


def _generator_columns(G: FiniteGroup, table: np.ndarray):
    ngens = len(G.generators)
    if ngens == 0:
        return np.zeros(0, dtype=np.int64)
    return table[:, G.generators].reshape(G.order * ngens)


def is_coboundary(G: FiniteGroup, table, p: int, witness=False):
    """Is the (already verified) normalized 2-cocycle table a coboundary?"""
    table = np.asarray(table, dtype=np.int64) % p
    if G.order == 1:
        return (True, np.zeros(0)) if witness else True
    A = _coboundary_matrix(G)
    u = _generator_columns(G, table)
    c = gf.solve(A, u, p)
    if witness:
        return c is not None, c
    return c is not None


def _expand_from_columns(G: FiniteGroup, u: np.ndarray, p: int):
    """Full normalized table from generator columns u[(g, i)]."""
    n = G.order
    ngens = len(G.generators)
    U = u.reshape(n, ngens)
    f = np.zeros((n, n), dtype=np.int64)
    for x in range(1, n):
        pe, pg = G.pred[x]
        f[:, x] = (f[:, pe] + U[G.mult[:, pe], pg] - U[pe, pg]) % p
    return f


def _constraint_violations(G: FiniteGroup, f: np.ndarray, p: int):
    """g-ids at which some identity f(g,h)+f(gh,s)-f(h,s)-f(g,hs) != 0
    (s ranging over generators) fails."""
    n = G.order
    lhs = f[:, :, None] + f[G.mult][:, :, G.generators]
    rhs = f[:, G.generators][None, :, :] + f[:, G.mult_gen]
    bad = ((lhs - rhs) % p != 0).any(axis=(1, 2))
    return np.nonzero(bad)[0]


@memo
def _column_forms(G: FiniteGroup) -> np.ndarray:
    """T[g, x, :]: the derived column f(g, x) as a linear form in the
    generator-column unknowns."""
    n = G.order
    ngens = len(G.generators)
    T = np.zeros((n, n, n * ngens), dtype=np.int16)
    for x in range(1, n):
        pe, pg = G.pred[x]
        T[:, x, :] = T[:, pe, :]
        np.add.at(T, (np.arange(n), x, G.mult[:, pe] * ngens + pg), 1)
        T[:, x, pe * ngens + pg] -= 1
    return T


def _constraint_rows(G: FiniteGroup, gs, p: int):
    """Constraint rows (over the generator-column unknowns) for the
    identities indexed by g in gs, all h, all generator s."""
    n = G.order
    ngens = len(G.generators)
    ngu = n * ngens
    T = _column_forms(G)
    rows = []
    for g in gs:
        for s in range(ngens):
            # f(g,h) + f(gh,s) - f(h,s) - f(g, h*gen_s) = 0 for all h
            r = T[g].astype(np.int64).copy()            # f(g, h)
            np.add.at(r, (np.arange(n), G.mult[g] * ngens + s), 1)
            r[np.arange(n), np.arange(n) * ngens + s] -= 1
            r -= T[g][G.mult_gen[:, s]]
            rows.append(r % p)
    return np.concatenate(rows) if rows else np.zeros((0, ngu), dtype=np.int64)


@dataclass
class H2Space:
    """H^2(G, Z/p) with a coordinate solver.

    basis: Cocycle2 representatives of a basis of Z^2/B^2;
    coords(c) expresses a cocycle's class over that basis.
    """
    group: FiniteGroup
    p: int
    dim: int
    basis: list
    _bmat: np.ndarray      # B^2 basis rows (generator-column coords)
    _hmat: np.ndarray      # chosen H^2 representative rows
    _solve_mat: np.ndarray

    def coords(self, c: Cocycle2):
        assert c.group.key == self.group.key
        u = _generator_columns(self.group, c.values)
        if self._solve_mat.shape[0] == 0:
            if np.any(u % self.p):
                raise ValueError("nonzero cocycle in a trivial cochain space")
            return np.zeros(0, dtype=np.int64)
        x = gf.solve(self._solve_mat.T, u, self.p)
        if x is None:
            raise ValueError("table is not a cocycle in the normalized space")
        return x[self._bmat.shape[0]:]

    def is_coboundary_class(self, c: Cocycle2):
        return not self.coords(c).any()

    def same_class(self, c1: Cocycle2, c2: Cocycle2):
        return np.array_equal(self.coords(c1), self.coords(c2))

    def rep(self, coords) -> Cocycle2:
        """A representative cocycle with the given coordinates."""
        n = self.group.order
        tab = np.zeros((n, n), dtype=np.int64)
        for c, b in zip(coords, self.basis):
            tab = (tab + int(c) * b.values) % self.p
        return Cocycle2(self.group, tab, self.p)


@memo
def h2_space(G: FiniteGroup, p: int) -> H2Space:
    if G.order > H2_ORDER_CAP:
        raise GroupTooLarge(f"|G| = {G.order} exceeds the H^2 cap {H2_ORDER_CAP}")
    n = G.order
    ngens = len(G.generators)
    ngu = n * ngens

    if ngens == 0:
        return H2Space(G, p, 0, [],
                       np.zeros((0, 0), dtype=np.int64),
                       np.zeros((0, 0), dtype=np.int64),
                       np.zeros((0, 0), dtype=np.int64))

    # normalization rows f(1, s) = 0 and an initial batch of identity rows
    norm = np.zeros((ngens, ngu), dtype=np.int64)
    for i in range(ngens):
        norm[i, 0 * ngens + i] = 1
    seed_gs = sorted(set(G.generators) | {0})
    rows = [norm, _constraint_rows(G, seed_gs, p)]
    added = set(seed_gs)

    while True:
        cand = gf.nullspace(np.concatenate(rows), p)
        bad_gs: set[int] = set()
        for u in cand:
            f = _expand_from_columns(G, u, p)
            viol = _constraint_violations(G, f, p)
            bad_gs.update(int(g) for g in viol[:8])
        bad_gs -= added
        if not bad_gs:
            break
        added.update(bad_gs)
        rows.append(_constraint_rows(G, sorted(bad_gs), p))

    zmat = cand  # basis rows of Z^2 in generator-column coordinates

    # B^2 basis: coboundaries of delta functions at y = 1..n-1
    A = _coboundary_matrix(G)          # (ngu) x (n-1)
    bspan = gf.Span(ngu, p)
    for y in range(n - 1):
        bspan.add(A[:, y])
    bmat = bspan.basis()

    # complete B^2 to Z^2
    hspan = gf.Span(ngu, p)
    for r in bmat:
        hspan.add(r)
    hreps = []
    for u in zmat:
        if hspan.add(u):
            hreps.append(u)
    hmat = np.stack(hreps) if hreps else np.zeros((0, ngu), dtype=np.int64)
    basis = [Cocycle2(G, _expand_from_columns(G, u, p), p) for u in hmat]
    solve_mat = np.concatenate([bmat, hmat]) if bmat.size or hmat.size else \
        np.zeros((0, ngu), dtype=np.int64)

    space = H2Space(G, p, len(basis), basis, bmat, hmat, solve_mat)
    # solver round-trip on the basis
    for i, b in enumerate(basis):
        e = space.coords(b)
        assert e[i] == 1 and not np.any(np.delete(e, i))
    return space


# ---------------------------------------------------------------------
# H^1 and characters
# ---------------------------------------------------------------------

@memo
def h1(G: FiniteGroup, p: int) -> list:
    """Basis of Hom(G, Z/p), via the elementary abelianization."""
    D = power_commutator_subgroup(G, G.whole(), p)
    Q, proj = quotient_group(G, D)
    # greedy independent generators of the elementary abelian Q
    basis_ids = []
    closure = {0}
    for x in range(1, Q.order):
        if x not in closure:
            basis_ids.append(x)
            closure = set(int(t) for t in
                          subgroup_generated(Q, basis_ids).members)
    d = len(basis_ids)
    assert p ** d == Q.order
    coords = np.zeros((Q.order, d), dtype=np.int64)
    # enumerate all combinations to invert the coordinate map
    ids = [0]
    vecs = [np.zeros(d, dtype=np.int64)]
    for j, b in enumerate(basis_ids):
        new_ids, new_vecs = [], []
        for e, v in zip(ids, vecs):
            cur = e
            for c in range(p):
                w = v.copy()
                w[j] = c
                new_ids.append(cur)
                new_vecs.append(w)
                cur = Q.mul(cur, b)
        ids, vecs = new_ids, new_vecs
    assert len(set(ids)) == Q.order
    for e, v in zip(ids, vecs):
        coords[e] = v
    return [Cochain1(G, coords[proj.image, j], p) for j in range(d)]


def conj_invariant_h1(G: FiniteGroup, N: Subgroup, p: int) -> list:
    """Basis of H^1(N)^G = {psi in Hom(N, Z/p) : psi(g n g^-1) = psi(n)}.

    Returned Cochain1 values are indexed by parent ids (zero off N)."""
    assert N.is_normal()
    K, embed = subgroup_as_group(G, N)
    kchars = h1(K, p)
    if not kchars:
        return []
    V = np.stack([c.values for c in kchars])       # (d, |N|)
    inv_embed = np.full(G.order, -1, dtype=np.int32)
    inv_embed[embed] = np.arange(K.order)
    rows = []
    for g in G.generators:
        conj = G.mult[G.mult[G.inv[g], embed], g]  # g^-1 n g over K-ids
        cperm = inv_embed[conj]
        assert cperm.min() >= 0
        rows.append(V[:, cperm] - V)
    A = np.concatenate(rows, axis=1)               # (d, ngens*|N|)
    X = gf.nullspace(A.T, p)                       # coefficient vectors
    out = []
    for x in X:
        vals_K = (x @ V) % p
        vals_G = np.zeros(G.order, dtype=np.int64)
        vals_G[embed] = vals_K
        out.append(Cochain1(G, vals_G, p, is_hom=False))
    # dimension identity: dim H^1(N)^G = dim Hom(N / N^p[G,N], Z/p)
    D = power_commutator_subgroup(G, N, p)
    idx = N.order // D.order
    expect = 0
    while idx > 1:
        idx //= p
        expect += 1
    assert len(out) == expect
    return out


# ---------------------------------------------------------------------
# Constructions of 2-cocycles
# ---------------------------------------------------------------------

def classifying_cocycle(ext: CentralExtension) -> Cocycle2:
    """f(x,y) = iota^-1( s(x) s(y) s(xy)^-1 ) for the chosen section s."""
    E, Gbar, p = ext.E, ext.Gbar, ext.p
    z_of = np.full(E.order, -1, dtype=np.int64)
    z_of[ext.iota.image] = np.arange(ext.Z.order)
    sec = ext.section
    prod = E.mult[np.ix_(sec, sec)]
    arg = E.mult[prod, E.inv[sec[Gbar.mult]]]
    vals = z_of[arg]
    assert vals.min() >= 0, "section defect must land in the kernel copy"
    c = Cocycle2(Gbar, vals, p)
    # class independence of the section: shift every nonidentity value
    if Gbar.order > 1 and ext.Z.order > 1:
        sec2 = sec.copy()
        z1 = int(ext.iota.image[1])
        sec2[1:] = E.mult[sec[1:], z1]
        prod2 = E.mult[np.ix_(sec2, sec2)]
        arg2 = E.mult[prod2, E.inv[sec2[Gbar.mult]]]
        vals2 = z_of[arg2]
        assert vals2.min() >= 0
        diff = (vals - vals2) % p
        assert is_coboundary(Gbar, diff, p), \
            "classifying class must not depend on the section"
    return c


def pullback(alpha: Cocycle2, rho: GroupHom) -> Cocycle2:
    assert rho.codomain.key == alpha.group.key
    vals = alpha.values[np.ix_(rho.image, rho.image)]
    return Cocycle2(rho.domain, vals, alpha.p)


def cup(phi: Cochain1, psi: Cochain1) -> Cocycle2:
    assert phi.group.key == psi.group.key and phi.is_hom and psi.is_hom
    vals = (phi.values[:, None] * psi.values[None, :]) % phi.p
    return Cocycle2(phi.group, vals, phi.p)


def bockstein(phi: Cochain1) -> Cocycle2:
    """Connecting map of 0 -> Z/p -> Z/p^2 -> Z/p -> 0 on a character."""
    assert phi.is_hom
    p = phi.p
    G = phi.group
    v = phi.values % p
    carry = (v[:, None] + v[None, :] - v[G.mult])
    assert set(np.unique(carry)) <= {0, p}
    return Cocycle2(G, (carry // p) % p, p)


def transgression(pi: GroupHom, psi: Cochain1) -> Cocycle2:
    """trg(psi)(x,y) = psi( t(x) t(y) t(xy)^-1 ) for the BFS-minimal
    section t of the surjection pi; psi must be G-invariant on ker(pi)."""
    G, Q = pi.domain, pi.codomain
    p = psi.p
    assert pi.is_surjective()
    nmask = pi.image == 0
    members = np.nonzero(nmask)[0]
    # invariance check
    vals = psi.values
    conj = G.mult[G.mult[G.inv[:, None], members[None, :]], np.arange(G.order)[:, None]]
    if not np.array_equal(vals[conj], np.broadcast_to(vals[members], conj.shape)):
        raise NotInvariant("character is not conjugation-invariant")
    t = pi.section()
    prod = G.mult[np.ix_(t, t)]
    arg = G.mult[prod, G.inv[t[Q.mult]]]
    assert nmask[arg].all()
    return Cocycle2(Q, vals[arg] % p, p)


def massey_pullback_set(Q: FiniteGroup, n: int, phis: list, fam, *,
                        budget=None) -> list:
    """All pullback classes of the U_n(Z/p) bar-extension class along
    homomorphisms rhobar: Q -> Ubar_n with the prescribed superdiagonal
    characters.  Returns a list of (Cocycle2, coords, rhobar) with one
    entry per distinct class (possibly empty)."""
    from .homsearch import enumerate_homs, DEFAULT_BUDGET

    assert fam.label.startswith("zassenhaus")
    ext = fam.extensions[0]
    p = ext.p
    assert len(phis) == n
    E, Gbar = ext.E, ext.Gbar
    size = n + 1
    superdiag = np.stack(
        [np.asarray([E.elements[ext.section[x]].entries[i, i + 1]
                     for x in range(Gbar.order)], dtype=np.int64)
         for i in range(n)], axis=1)           # (|Gbar|, n)
    alpha = classifying_cocycle(ext)
    hs = enumerate_homs(Q, Gbar, budget=budget or DEFAULT_BUDGET)
    space = h2_space(Q, p)
    out = []
    seen = set()
    for rho in hs.homs:
        sd = superdiag[rho.image]              # (|Q|, n)
        if all(np.array_equal(sd[:, i], phis[i].values % p) for i in range(n)):
            c = pullback(alpha, rho)
            coords = space.coords(c)
            key = coords.tobytes()
            if key not in seen:
                seen.add(key)
                out.append((c, coords, rho))
    return out
