"""Mod-p cohomology of finite groups with trivial coefficients.

Cochains are normalized (f(1,.) = f(.,1) = 0).  The key representation
fact used throughout: a normalized 2-cocycle is determined by its
"generator columns" f(g, s) for s a group generator, via

    f(g, h*s) = f(g, h) + f(g*h, s) - f(h, s),

so Z^2 is the nullspace of a linear system in |G| * ngens unknowns over
F_p.  The system needs the cocycle identities only at g a generator, and
they read as relators: on the Schreier relators r of G's BFS, the shift
u picks up along r is the same from every start (lemma at
`_column_violations`).  Every 2-cocycle is held as its generator columns
(`Cocycle2.columns`, the H^2 basis rows) and checked on them, at the
generators (`_column_violations`).  A table f(x, y) is expanded from the
columns (`_expand_from_columns`) only where a gather needs f at a second
argument y that is not a generator: alpha's table in `pullback_columns`
and the H^2 basis tables in `pairings.inflation_matrix`.

Z^2 is solved on the presentation the hom search already reads: the
deduction-closed relator basis of G's BFS (`core.relator_edges`,
memoized as `homsearch._relator_edges`), its loops traced once in
generator columns (`_kept_loops`).  Its record is replayed over
F_p^kept, one unknown per kept relator (`_relator_forms`), solved by one
nullspace over |kept| columns and expanded to the gauged cocycles, those
0 on the BFS tree (`_gauged_z2`); the canonical basis is rebuilt from
them (`_z2_basis`).  Two lemmas carry this:

- Gauged dimension: the gauged cocycles, 0 on every tree column, have
  dimension dim H^2 + ngens - dim H^1.  Z^2 is the gauged cocycles plus
  B^2, and the two meet in the gauged coboundaries d(W a).
- Duality: the canonical basis of Z^2, the constraint nullspace basis
  that is the identity on the free columns F, is R[::-1, ::-1] for R
  the rref of any spanning set of Z^2 with its columns reversed.  F is
  the pivot set of that reversed rref, and an rref is unique.

Every other H^2 and H^1 question is asked in the same F_p^kept, on the
loop sums L(u): u's signed sums along the kept relators' loops from 0
(`_kept_sums`).  L is injective on the gauged cocycles and sends B^2
onto the row space of X.T, X the exponent sums of the kept relators
(`_tree_coboundaries`).  So the H^2 coordinates of u are one solve of
L(u) over |kept| columns (`H2Space.column_coords`), and the same gather
over every traced loop checks that u is a cocycle's columns.  The
residue of a cocycle, L(u) reduced against X.T (`coboundary_residue`),
is linear and zero exactly on the coboundaries; the inflations of
`pairings`, and through them its liftability test, read it.  The
characters are the W a with X a = 0 (`h1`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf
from .core import (FiniteGroup, GroupHom, Subgroup,
                   _respects_generator_edges, _walk, bfs_levels,
                   conjugates, memo, power_commutator_subgroup,
                   subgroup_as_group)
from .errors import (EdgeCheckFailed, GroupTooLarge, MixedParents,
                     NotACharacter, NotInvariant, NotNormal, NotSurjective,
                     OracleDisagreement, SectionDefectOutsideKernel,
                     SolveRoundTripFailed, SpecError)
from .homsearch import DEFAULT_BUDGET, _relator_edges, enumerate_homs
from .unitriangular import CentralExtension

H2_ORDER_CAP = 128


# ---------------------------------------------------------------------
# Cochains and cocycles
# ---------------------------------------------------------------------

def _same_parent(a, b, what: str):
    """Raise `errors.MixedParents` unless a and b (cochains, or a cochain
    and an H2Space) are on one group (equal keys) and one prime p."""
    if a.group.key != b.group.key or a.p != b.p:
        raise MixedParents(f"{what} across different groups or primes")


@dataclass
class Cochain1:
    """A 1-cochain G -> Z/p; is_hom=True asserts it is a character,
    checked on generator edges (`core._respects_generator_edges`)."""
    group: FiniteGroup
    values: np.ndarray
    p: int
    is_hom: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64) % self.p
        if self.is_hom and not _respects_generator_edges(
                self.group.mult_gen, self.values[None, :],
                lambda x, y: (x + y) % self.p)[0]:
            raise EdgeCheckFailed("character is not additive")

    def __add__(self, other):
        _same_parent(self, other, "sum of cochains")
        return Cochain1(self.group, (self.values + other.values) % self.p,
                        self.p, is_hom=self.is_hom and other.is_hom)


@dataclass
class Cocycle2:
    """A normalized 2-cocycle f: G x G -> Z/p, held as its generator
    columns: columns[x * ngens + j] = f(x, s_j) for the generators s_j.
    The vector is checked once, its length and then the identities at the
    generators (`_column_violations`, which covers normalization)."""
    group: FiniteGroup
    columns: np.ndarray
    p: int

    def __post_init__(self):
        G, p = self.group, self.p
        u = self.columns = np.asarray(self.columns, dtype=np.int64) % p
        if (u.shape != (G.order * len(G.generators),)
                or _column_violations(G, u[None], p)[0]):
            raise EdgeCheckFailed(f"shape {u.shape}: not the generator "
                                  "columns of a normalized 2-cocycle")

    @cached_property
    def table(self) -> np.ndarray:
        """The whole n x n table, expanded from the columns on first
        request (`_expand_from_columns`) and kept."""
        return _expand_from_columns(self.group, self.columns, self.p)

    def __add__(self, other):
        _same_parent(self, other, "sum of cocycles")
        return Cocycle2(self.group, self.columns + other.columns, self.p)

    def __sub__(self, other):
        _same_parent(self, other, "difference of cocycles")
        return Cocycle2(self.group, self.columns - other.columns, self.p)


# ---------------------------------------------------------------------
# Loop sums along the kept relators of G's BFS
# ---------------------------------------------------------------------

@memo
def _kept_loops(G: FiniteGroup):
    """(kept, loops, rounds): the record of the relator basis of G's own
    BFS (`core.relator_edges`, memoized as `homsearch._relator_edges(G,
    ngens)`) with its loops traced, every edge (x, s) named by its id
    x ngens + s, its generator column.  loops[i] = (E, sign) for the i-th
    kept edge kept[i]: E[c, v] is the column of the c-th edge on its loop
    from starts[i][v] (`core._walk`; starts[i][0] = 0, the least position
    of its orbit), and sign[c] is 1 for a step along the letter's
    generator and -1 for a step back."""
    kept, words, starts, rounds = _relator_edges(G, len(G.generators))[1]
    step, back = G.mult_gen.T, G.mult[:, G.inv[G.generators]].T
    loops = [(_walk(step, back, w, v)[0], np.where(np.asarray(w) < 0, -1, 1))
             for w, v in zip(words, starts)]
    return np.asarray(kept, dtype=np.intp), loops, rounds


def _loop_sums(V, E, sign):
    """sum_c sign[c] V[E[c]]: the signed sums of the rows of V along the
    loops, the columns of E, added a letter at a time into int64, so no
    array over the letters and the loops at once, and no int64 copy of an
    integer or bool V, is made."""
    total = np.zeros(E.shape[1:] + V.shape[1:], dtype=np.int64)
    for e, eps in zip(E, sign.tolist()):
        (np.add if eps > 0 else np.subtract)(total, V[e], total)
    return total


def _kept_sums(G: FiniteGroup, u, p: int):
    """(L, bad) for generator columns u (one vector, or a matrix with one
    per row), from one gather per letter of the traced loops
    (`_kept_loops`, `_loop_sums`).  L[..., i] is u's signed sum mod p
    along the loop from 0 of the i-th kept relator, and bad is True where
    u is not a normalized cocycle's columns: u(1, s) != 0 for a generator
    s, or another traced loop of some kept relator has another sum.

    Lemma (the loop sums).  Let gauge(u) = u - dc, the BFS-tree gauge,
    where c(1) = 0 and c(x) = c(d) - u(d, s) along G.pred[x] = (d, s).
    - For normalized u, L(u) = gauge(u) at the kept edges.  Each generator
      s is the tree edge (1, s), so c(s) = -u(1, s) = 0; then dc(d, s) =
      u(d, s) on every tree edge, and the gauge is 0 there.  Around a
      closed loop dc(x, s) = c(x) + c(s) - c(xs) sums to the signed sum of
      c at its letters, 0, so the gauge keeps every loop sum; and on kept
      K's loop from 0, w(x) s w(xs)^-1, every edge but K is a tree edge.
      dc is in B^2, so the gauge keeps the class of u and whether u is in
      Z^2.
    - L is injective on the gauged cocycles, those 0 on the tree: the
      forms of `_relator_forms` expand one from its values at the kept
      edges (lemma at `_gauged_z2`).
    - bad is complete: a normalized u is a cocycle's columns iff each kept
      relator's traced loops all have the sum of its loop from 0 (lemma
      at `_gauged_z2`)."""
    loops = _kept_loops(G)[1]
    V = np.ascontiguousarray(np.moveaxis(np.asarray(u), -1, 0))
    L = np.zeros(V.shape[1:] + (len(loops),), dtype=np.int64)
    bad = (V[:len(G.generators)] % p).any(axis=0)
    for i, (E, sign) in enumerate(loops):
        S = _loop_sums(V, E, sign) % p
        L[..., i] = S[0]
        bad |= (S != S[0]).any(axis=0)
    return L, bad


@memo
def _tree_coboundaries(G: FiniteGroup, p: int):
    """(W, X, span): W[x, i] counts the letter i in x's BFS word mod p,
    one batched step per BFS level (`bfs_levels`): the word of x with
    G.pred[x] = (d, s) is that of d followed by s.  X[K, i] is the signed
    count mod p of the letter i in kept relator K: the loop sum
    (`_kept_sums`) of the row that is 1 at the columns (x, s_i) for every
    x and 0 elsewhere.  span is the gf.Span over the rows of X.T.

    Lemma: the loop sums of B^2 are the row space of X.T, and W a is a
    character iff X a = 0.  Each generator s_i is the tree edge (1, s_i),
    so (W a)(s_i) = a_i, and around a loop d(W a) sums to the signed sum
    of W a at its letters (lemma at `_kept_sums`): its loop sums are X a.
    A coboundary has the loop sums of its gauge, a coboundary dc that is
    0 on the tree edges; there c(x) = c(d) + c(s) along them, so c = W a
    with a = c(generators).  d(W a) is gauged, so it is 0 iff X a = 0 (L
    is injective there), and W a(1) = 0."""
    k = len(G.generators)
    letter = np.eye(k, dtype=np.int32)
    W = np.zeros((G.order, k), dtype=np.int32)
    for lo, hi, d, s in bfs_levels(G.pred):
        W[lo:hi] = (W[d] + letter[s]) % p
    X = _kept_sums(G, np.tile(letter, G.order), p)[0].T
    return W, X, gf.Span(len(X), p, X.T)


def coboundary_residue(G: FiniteGroup, u, p: int) -> np.ndarray:
    """The residue of the cocycles with generator columns u (one vector,
    or a matrix with one per row), |kept| entries each: their loop sums
    (`_kept_sums`) reduced against the span of X.T (`_tree_coboundaries`),
    every row in one gather per letter and one product.  The residue is
    linear in u.  Its domain is Z^2, and every caller passes verified
    cocycles: `pairings.inflation_matrix` checks its rows first
    (`_column_violations`), `is_coboundary` takes a `Cocycle2`, and
    `pairings.liftability_crosscheck` passes pullbacks of a verified
    cocycle along verified homs.

    Lemma: on Z^2 the residue is zero exactly on the coboundaries, so it is
    injective on H^2.  u is a coboundary iff its gauge, a gauged cocycle
    with the loop sums of u, is one, iff (L is injective on the gauged
    cocycles) the loop sums of u lie in those of B^2, the row space of
    X.T (lemmas at `_kept_sums` and `_tree_coboundaries`)."""
    return _tree_coboundaries(G, p)[2].reduce(_kept_sums(G, u, p)[0])


def coboundary_mask(G: FiniteGroup, u, p: int):
    """Which of the (already verified) normalized 2-cocycles given by their
    generator columns u are coboundaries: u is one vector, giving one bool,
    or a matrix with one cocycle per row, giving a bool per row: True
    where the residue is zero (`coboundary_residue`)."""
    return ~coboundary_residue(G, u, p).any(axis=-1)


def is_coboundary(c: Cocycle2) -> bool:
    """Is the (verified) cocycle c a coboundary?  `coboundary_mask` on its
    generator columns."""
    return bool(coboundary_mask(c.group, c.columns, c.p))


def _expand_from_columns(G: FiniteGroup, u, p: int, g=None):
    """Rows f(g, .) of the normalized tables with generator columns u (one
    vector, or a matrix with one per row), for the ids g, or every row (the
    whole n x n table) when g is None, by f(g, d*s) = f(g, d) + u(g*d, s)
    - u(d, s) along BFS predecessors, a BFS level at a time (`bfs_levels`).
    The result has shape u.shape[:-1] + (len(g), n).  When u holds the
    columns of a cocycle f, the result is f: the step is the cocycle
    identity at (g, d, s).  A whole table is asked for only where a gather
    needs f(x, y) at a y that is not a generator (see the module
    docstring)."""
    n, ngens = G.order, len(G.generators)
    g = np.arange(n) if g is None else np.asarray(g, dtype=np.intp)
    u = np.asarray(u, dtype=np.int64)
    lead = u.shape[:-1]
    U = u.reshape(lead + (n, ngens))
    f = np.zeros(lead + (len(g), n), dtype=np.int64)
    for lo, hi, d, s in bfs_levels(G.pred):
        f[..., lo:hi] = (f[..., d] + U[..., G.mult[g[:, None], d], s]
                         - U[..., d, s][..., None, :]) % p
    return f


def _column_violations(G: FiniteGroup, u, p: int) -> np.ndarray:
    """Which rows of u, a matrix of generator columns, one candidate
    cocycle per row, are not the columns of a normalized 2-cocycle: a bool
    per row, True where u(1, s) != 0 for some generator s, or where some
    identity f(g,h) + u(gh,s) - u(h,s) - f(g,hs) = 0 fails for a generator
    g, any h and a generator s, f(g, .) expanded along BFS predecessors.
    Only the rows f(g, .) at the generators are expanded
    (`_expand_from_columns`), so the check costs O(rows * n * ngens^2),
    not the O(n^2 * ngens) per row of the identities at every g.

    Lemma: a row that passes is a cocycle's columns.  Let each generator s
    act on G x Z/p by (g, a) -> (gs, a + u(g,s)), and let Phi_g(w) be the
    shift that the word w picks up starting at g.  The BFS expansion is
    f(g,x) = Phi_g(w_x) - Phi_1(w_x), so the identity at (g,h,s) reads
    Delta_g(r_{h,s}) = 0, where Delta_g(r) = Phi_g(r) - Phi_1(r) and
    r_{h,s} = w_h s w_{hs}^-1.  The r_{h,s} are the Schreier generators of
    N = ker(F -> G) and each Delta_g is additive on N, so the identities at
    g hold iff Delta_g = 0 on N.  Since Phi_1(s r s^-1) = Phi_s(r) for r in
    N, Delta_s = 0 on N for every generator s gives Phi_x(r) = Phi_1(r)
    for all x, by induction along the positive BFS word of x.  Hence
    df(g,h,s) = 0 for all g, h and every generator s, and f is a cocycle:
    from dd = 0, df(g,h,ks) = df(g,h,k) + df(h,k,s) - df(gh,k,s) +
    df(g,hk,s), so df(g,h,ks) = df(g,h,k), and by induction along the BFS
    word of c, df(g,h,c) = df(g,h,1) = 0 by normalization.  The identity at
    h = 1 reads f(g, s) = u(g, s).  Conversely the identities hold on a
    cocycle's columns, whose expansion is the cocycle.  So normalized u is
    a cocycle's columns iff Phi_x(r) = Phi_1(r) for every x and every r in
    N, the form `_gauged_z2` solves; the identities at g = 1 vanish
    identically."""
    n, gens = G.order, np.asarray(G.generators, dtype=np.intp)
    U = u.reshape(len(u), n, len(gens))
    F = _expand_from_columns(G, u, p, gens)            # f(g_j, h): (k, j, h)
    lhs = F[..., None] + U[:, G.mult[gens]]            # (k, j, h, s)
    rhs = U[:, None] + F[:, :, G.mult_gen]
    return ((lhs - rhs) % p).any(axis=(1, 2, 3)) | U[:, 0].any(axis=1)


def _delta_coboundaries(G: FiniteGroup, p: int) -> np.ndarray:
    """Generator columns of d(delta_x), one row per x = 1, ..., n - 1:
    d(delta_x)(g, s) = [g = x] + [s = x] - [gs = x], reduced mod p and
    written straight into the working dtype of `gf.rref`
    (`gf._working_dtype`).  The rows span B^2, as every c with c(1) = 0 is
    a combination of the delta_x.  Column (g, s) is nonzero only at the
    rows x = g, s and gs, and each of the three is written with its whole
    value there, so rows that coincide (g = s, or g = 1 and gs = s) get the
    same value from either write and nothing is summed in place."""
    n, gens = G.order, np.asarray(G.generators, dtype=np.intp)
    g = np.repeat(np.arange(n), len(gens))
    s, gs = np.tile(gens, n), G.mult_gen.ravel()
    cols = np.arange(n * len(gens))
    B = np.zeros((n, n * len(gens)), dtype=gf._working_dtype(p))
    for x in (g, s, gs):
        B[x, cols] = ((g == x).astype(np.int64) + (s == x) - (gs == x)) % p
    return B[1:]


def _relator_forms(G: FiniteGroup, p: int):
    """(forms, rows) over F_p^kept, replayed from the traced record of the
    relator basis (`_kept_loops`): forms[x ngens + s] is the form of the
    edge (x, s), whose value on the gauged cocycle with value a[i] at the
    i-th kept edge is forms[x ngens + s] @ a, and rows are the conditions
    on a.

    Tree edges have the form 0 and kept edge i the unit e_i.  A deduced
    edge E, alone unknown on the loop of kept edge i that deduced it, with
    sign eps there, gets eps (e_i - the signed sum of the forms on that
    loop, E's still 0), a round of deductions at a time: every other edge
    on a round's loops was known before it, and an edge two loops of a
    round deduce is taken from one of them.  rows are the signed form
    sums of every traced loop of every kept edge i, minus e_i, those that
    are not 0 (the rows of the deducing loops vanish).  Every form sum is
    taken a letter at a time (`_loop_sums`)."""
    kept, loops, rounds = _kept_loops(G)
    forms = np.zeros((G.mult_gen.size, len(kept)), dtype=np.int64)
    forms[kept] = unit = np.eye(len(kept), dtype=np.int64)
    base = np.cumsum([1] + [E.shape[1] for E, _ in loops])
    for new, lam in rounds:
        new, first = np.unique(new, return_index=True)
        lam = lam[first]
        owner = np.searchsorted(base, lam, side="right") - 1
        for i in np.unique(owner):
            E, sign = loops[i]
            at = owner == i
            O = E[:, lam[at] - base[i]]           # the round's loops of i
            eps = sign[(O == new[at]).argmax(axis=0)]
            total = _loop_sums(forms, O, sign)
            forms[new[at]] = eps[:, None] * (unit[i] - total) % p
    rows = [unit[:0]]
    for i, (E, sign) in enumerate(loops):
        R = (_loop_sums(forms, E, sign) - unit[i]) % p
        rows.append(R[R.any(axis=1)])
    return forms, np.concatenate(rows)


def _gauged_z2(G: FiniteGroup, p: int) -> np.ndarray:
    """Basis (rows, over all n * ngens generator columns) of the gauged
    cocycles: Z^2 restricted to the vectors that are 0 on every tree
    column (d, s), G.pred[x] = (d, s).  It is a @ forms.T for a over the
    nullspace of the rows of `_relator_forms`, one `gf.nullspace` over the
    |kept| columns.

    Lemma (the presentation route to H^2; Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 7.6): these are the gauged
    cocycles.
    - `_partial_bfs(G, ngens)` is G's own BFS: G's ids follow its BFS
      order over all its generators, so elems = 0..n-1, pred = G.pred and
      tgt = G.mult_gen, and the record's edge (x, s) is the column (x, s).
    - For normalized u and a word w let Phi_x(w) be the signed sum of u
      along w's path from x.  By the lemma at `_column_violations`, u is
      a cocycle iff Phi_x(r) = Phi_1(r) for every x and every r in N, the
      kernel of the free group onto G.  On N each Phi_x is additive and
      Phi_x(w r w^-1) = Phi_{xw}(r), so the r that pass for every x form
      a normal subgroup.
    - The kept relators r_K normally generate N.  The Schreier relators
      r_E of the edges E off the tree generate N, and each E is kept or
      deduced.  A closed path from 1 is, in the free group, the product
      of the r_E^(+-1) of its edges, so the loop of r_K from v that
      deduces E writes w_v r_K w_v^-1 as r_E^(+-1) times relators of
      edges known before E; in deduction order each r_E is in the normal
      closure.
    - So a normalized u is a cocycle iff Phi_v(r_K) = Phi_1(r_K) for
      every start v and kept K.  The loops of one orbit of a power
      relator are one cycle with one sum, so the traced loops suffice
      (the check of `_kept_sums`).
    - A gauged u is normalized (each generator s is the tree edge
      (1, s)), and Phi_1(r_K) = u(K), as r_K runs from 1 along tree
      edges but K.  A gauged cocycle meets each deducing loop's
      condition, so by induction its deduced edges hold their forms at
      a = u(kept), and it meets every row; conversely forms @ a meets
      every loop's condition when a is in the nullspace of the rows.

    Its dimension is dim H^2 + ngens - dim H^1.  Every cocycle minus a
    coboundary is gauged (the gauge, lemma at `_kept_sums`), so Z^2 =
    gauged + B^2; the gauged coboundaries are the d(W a), of dimension
    ngens - dim H^1 (`_tree_coboundaries`); and dim B^2 = n - 1 - dim
    H^1, as the 1-cochains c with c(1) = 0 and dc = 0 are the
    characters.  Like the
    rows of `_delta_coboundaries`, it is held in the working dtype of
    `gf.rref` (`gf._working_dtype`)."""
    forms, rows = _relator_forms(G, p)
    return gf._reduced(gf.nullspace(rows, p) @ forms.T, p)


def _z2_basis(G: FiniteGroup, p: int) -> np.ndarray:
    """cand: the basis of Z^2 that `gf.nullspace` gives for the cocycle
    identities at the generators (`_column_violations`) as rows over all
    n * ngens columns (before the gauge), the identity on the free
    columns F, in increasing order of the free column; rebuilt from the
    gauged cocycles (`_gauged_z2`) and the coboundaries d(delta_x)
    (`_delta_coboundaries`), which together span Z^2.  The stack of the
    two is built in the working dtype of `gf.rref` (`gf._working_dtype`),
    so no int64 matrix the size of B^2 is made.

    Lemma (duality): cand = R[::-1, ::-1], R the rref of any spanning set
    of Z^2 with its columns reversed.  Row k of cand is 1 at F[k], 0 at
    the other free columns, and elsewhere nonzero only at pivot columns
    left of F[k], since a pivot row of the constraint rref is nonzero only
    right of its pivot.  With the columns reversed, F[k] leads row k and
    the other rows are 0 there: cand with rows and columns reversed is in
    rref, and the rref of a row space is unique."""
    Z = np.concatenate([_gauged_z2(G, p), _delta_coboundaries(G, p)])
    return gf.rref(Z[:, ::-1], p)[0][::-1, ::-1]


@dataclass
class H2Space:
    """H^2(G, Z/p) with a coordinate solver.

    basis: a dim x n * ngens matrix, one row per basis class of Z^2/B^2:
    the generator columns of its representative cocycle, verified at the
    generators (`_column_violations`).  No n x n table is kept.  coords(c)
    expresses a cocycle's class over that basis, and rep(x) is the
    cocycle whose columns are x @ basis.
    """
    group: FiniteGroup
    p: int
    dim: int
    basis: np.ndarray      # (dim, n * ngens) generator columns
    _span: gf.Span         # F_p^kept: the rows of X.T, then L(cand)
    _reps: np.ndarray      # positions of the basis representatives in _span

    def coords(self, c: Cocycle2):
        _same_parent(c, self, "H^2 coordinates")
        return self.column_coords(c.columns)

    def column_coords(self, u):
        """Coordinates of the class of each cocycle given by its generator
        columns: u is one such vector, or a matrix with one per row.  One
        gather over the traced loops gives the loop sums of u, which
        `_span` solves, and rejects a row that is not a normalized
        cocycle's columns (`_kept_sums`, `errors.EdgeCheckFailed`)."""
        L, bad = _kept_sums(self.group, u, self.p)
        x = None if bad.any() else self._span.solve(L)
        if x is None:
            raise EdgeCheckFailed("columns are not a cocycle in the "
                                  "normalized space")
        return x[..., self._reps]

    def rep(self, coords) -> Cocycle2:
        """The representative cocycle with the given coordinates, whose
        generator columns are coords @ basis."""
        u = np.asarray(coords, dtype=np.int64) @ self.basis
        return Cocycle2(self.group, u, self.p)


@memo
def h2_space(G: FiniteGroup, p: int) -> H2Space:
    """H^2(G, Z/p) with its canonical basis.  cand, the basis of Z^2 in
    generator columns, is the nullspace basis of the cocycle constraints
    over all generator columns that is the identity on the free columns
    (`gf.nullspace`); the basis is the cand rows that grow the B^2 span,
    taken in order, kept as generator columns.  They are verified in one
    batch at the generators (`_column_violations`, `errors.EdgeCheckFailed`),
    every cand row by the loop check that comes with its loop sums
    (`_kept_sums`), and the basis is solved back to the identity
    (`errors.SolveRoundTripFailed`); no n x n table is built here or by
    `H2Space.rep`.

    cand is not solved for over all n * ngens columns.  The gauged
    cocycles, 0 on the BFS tree, come from one nullspace over the kept
    relators of G's BFS, of dimension dim H^2 + ngens - dim H^1 (lemmas at
    `_gauged_z2`); with the coboundaries d(delta_x) they span Z^2, and one
    rref with the columns reversed gives cand exactly (the duality lemma
    at `_z2_basis`).

    The span is taken in F_p^kept, the loop sums along the kept relators
    (`_kept_sums`): one Span over |kept| columns is factored over the
    rows of X.T (`_tree_coboundaries`, the loop sums of B^2) followed by
    the loop sums L(cand) of the cand rows.  In the BFS-tree gauge this
    is the span over all n * ngens columns of the gauged coboundaries and
    the gauged cand rows, mapped by L, which is injective on the gauged
    cocycles and keeps each vector's loop sums (lemma at `_kept_sums`).
    So a cand row grows this span iff it grows B^2 plus the earlier cand
    rows, and `Span.solve`, the unique solution that is 0 off the
    vectors that grew, gives every class the same coordinates.  grew[k]
    is read off the transform as trans[:, ngens + k] != 0.  Lemma: trans
    restricted to the columns of the vectors that grew is invertible (it
    maps a basis, those vectors, onto another, the rref rows), so such a
    column is nonzero, and the other columns are zero by construction."""
    if G.order > H2_ORDER_CAP:
        raise GroupTooLarge(f"|G| = {G.order} exceeds the H^2 cap {H2_ORDER_CAP}")
    cand = _z2_basis(G, p)
    X = _tree_coboundaries(G, p)[1]
    L, bad = _kept_sums(G, gf._reduced(cand, p), p)    # no int64 copy
    span = gf.Span(len(X), p, np.concatenate([X.T, L]))
    grew = span.trans[:, X.shape[1]:].any(axis=0)
    basis = cand[grew]
    if bad.any() or _column_violations(G, basis, p).any():
        raise EdgeCheckFailed("H^2 basis row is not a cocycle")
    space = H2Space(G, p, len(basis), basis, span,
                    X.shape[1] + np.flatnonzero(grew))
    # solver round-trip on the basis
    if not np.array_equal(space.column_coords(basis),
                          np.eye(len(basis), dtype=np.int64)):
        raise SolveRoundTripFailed("H^2 basis does not solve to the identity")
    return space


# ---------------------------------------------------------------------
# H^1 and characters
# ---------------------------------------------------------------------

@memo
def h1(G: FiniteGroup, p: int) -> list:
    """Basis of Hom(G, Z/p): the rref of the character space.

    A character v is fixed by its generator values a: v = W a, and W a
    is a character iff X a = 0 (lemma at `_tree_coboundaries`, W[x, i]
    the count of the letter i in x's BFS word and X[K, i] its signed
    count in kept relator K); so one nullspace over a, of X with |kept|
    rows and ngens unknowns, spans the characters, and the rref of their
    values is the canonical basis.

    Lemma: this is the basis dual to the greedy basis of the elementary
    abelianization Q = G/G^p[G,G] in id order (each pick the least id of
    Q outside the span of the earlier picks).  G's BFS meets each coset
    first at its least id, so Q's ids follow the cosets' least ids.  Every
    id of Q below pick j lies in the span of the earlier picks, where the
    j-th dual vanishes; so the j-th dual is 0 left of the least id of pick
    j, 1 there and 0 at the other picks' least ids: it is the rref, which
    is unique.  The dimension is checked against |G : G^p[G,G]| from the
    subgroup calculus (`errors.OracleDisagreement`)."""
    W, X, _ = _tree_coboundaries(G, p)
    basis = gf.rref(gf.nullspace(X, p) @ W.T, p)[0]
    F = power_commutator_subgroup(G, G.whole(), p)
    if p ** len(basis) * F.order != G.order:
        raise OracleDisagreement(
            f"dim H^1 = {len(basis)} != log_p |G : G^p[G,G]| = "
            f"log_p {G.order // F.order}")
    return [Cochain1(G, v, p) for v in basis]


def conj_invariant_h1(G: FiniteGroup, N: Subgroup, p: int) -> list:
    """Basis of H^1(N)^G = {psi in Hom(N, Z/p) : psi(g n g^-1) = psi(n)}.

    Returned Cochain1 values are indexed by parent ids (zero off N).  N
    must be normal (`errors.NotNormal`), so g^-1 n g lies in N for every
    generator g and every n in N: each conjugate has a K-id.  psi is
    invariant under every g once it is under each generator (lemma at
    `transgression`).  The dimension is checked against
    log_p |N : N^p[G,N]| from the subgroup calculus
    (`errors.OracleDisagreement`)."""
    if not N.is_normal():
        raise NotNormal("H^1(N)^G needs N normal in G")
    K, embed = subgroup_as_group(G, N)
    kchars = h1(K, p)
    if not kchars:
        return []
    V = np.stack([c.values for c in kchars])       # (d, |N|)
    inv_embed = np.full(G.order, -1, dtype=np.int32)
    inv_embed[embed] = np.arange(K.order)
    # g^-1 n g over K-ids, for each generator g: (ngens, |N|)
    conj = inv_embed[conjugates(G, np.asarray(G.generators)[:, None], embed)]
    A = (V[:, conj] - V[:, None]).reshape(len(V), -1)  # (d, ngens*|N|)
    X = gf.nullspace(A.T, p)                       # coefficient vectors
    vals = np.zeros((len(X), G.order), dtype=np.int64)
    vals[:, embed] = X @ V % p
    out = [Cochain1(G, v, p, is_hom=False) for v in vals]
    # dimension identity: dim H^1(N)^G = dim Hom(N / N^p[G,N], Z/p)
    D = power_commutator_subgroup(G, N, p)
    if p ** len(out) * D.order != N.order:
        raise OracleDisagreement(
            f"dim H^1(N)^G = {len(out)} != log_p |N : N^p[G,N]| = "
            f"log_p {N.order // D.order}")
    return out


# ---------------------------------------------------------------------
# Constructions of 2-cocycles
# ---------------------------------------------------------------------

def _section_defects(E: FiniteGroup, Q: FiniteGroup, s) -> np.ndarray:
    """The ids of the defects s(x) s(y) s(xy)^-1 in E of a section s: Q ->
    E (the id of s(x) at index x), at the generator columns: an (|Q|,
    ngens) array over x in Q and y a generator of Q.  A cocycle built on a
    section reads its columns off these ids (`classifying_cocycle`,
    `transgression`)."""
    prod = E.mult[s[:, None], s[Q.generators]]
    return E.mult[prod, E.inv[s[Q.mult_gen]]]


def classifying_cocycle(ext: CentralExtension) -> Cocycle2:
    """f(x,y) = iota^-1( s(x) s(y) s(xy)^-1 ) for the chosen section s, at
    the generator columns (x, y), y a generator of Gbar.

    Lemma: every defect s(x) s(y) s(xy)^-1 lies in iota(Z), so z_of reads
    it.  lam maps it to x y (xy)^-1 = 1, and `CentralExtension` checks
    exactness, ker lam = iota(Z), and that s is a normalized section of
    lam; a section changed after that check can break this
    (`errors.SectionDefectOutsideKernel`).

    Lemma: the class of f does not depend on the section.  Any other
    section is s'(x) = s(x) iota(e(x)) for some e: Gbar -> Z with
    e(1) = 0, as s'(x) and s(x) have the same image under lam, and iota(Z)
    is central; so the defect of s' is f + de, de(x,y) = e(x) + e(y) -
    e(xy), a coboundary."""
    E, Gbar, p = ext.E, ext.Gbar, ext.p
    z_of = np.full(E.order, -1, dtype=np.int64)
    z_of[ext.iota.image] = np.arange(ext.Z.order)
    cols = z_of[_section_defects(E, Gbar, ext.section)]
    if (cols < 0).any():
        raise SectionDefectOutsideKernel(
            "section defect must land in the kernel copy")
    return Cocycle2(Gbar, cols.ravel(), p)


def _extension_alpha(ext: CentralExtension) -> Cocycle2:
    """`classifying_cocycle(ext)`, built once per extension and kept on
    it with the section it was built from, so a copy of ext given another
    section builds its own.  Its table (`Cocycle2.table`) is kept with it,
    so every pullback along ext reads one expansion."""
    key = ext.section.tobytes()
    if ext._alpha is None or ext._alpha[0] != key:
        ext._alpha = key, classifying_cocycle(ext)
    return ext._alpha[1]


def pullback(alpha: Cocycle2, rho: GroupHom) -> Cocycle2:
    """f*alpha for the hom f = rho into alpha's group, its generator
    columns read by `pullback_columns`."""
    if rho.codomain.key != alpha.group.key:
        raise MixedParents("hom codomain is not the cocycle's group")
    cols = pullback_columns(alpha, rho.image[None], rho.domain)[0]
    return Cocycle2(rho.domain, cols, alpha.p)


def pullback_columns(alpha: Cocycle2, R: np.ndarray,
                     G: FiniteGroup) -> np.ndarray:
    """Generator columns of the pullbacks f*alpha, one row per row of R:
    the image matrix (over the ids of G) of homs f: G -> alpha.group.  Row
    k is alpha(f(g), f(s)) over g in G and the generators s of G, and all
    rows come from one gather.  f(s) need not be a generator of
    alpha.group, so the gather reads alpha's table (`Cocycle2.table`,
    expanded once per alpha).  By the lemma at `pullback_coords` each row
    is a cocycle when alpha is one and the rows of R are homs."""
    gens = np.asarray(G.generators, dtype=np.intp)
    cols = alpha.table[R[:, :, None], R[:, None, gens]]
    return cols.reshape(len(R), R.shape[1] * len(gens))


def pullback_coords(alpha: Cocycle2, R: np.ndarray,
                    space: H2Space) -> np.ndarray:
    """H^2 coordinates of the pullbacks f*alpha, one row per row of R: the
    image matrix (over the ids of space.group) of homs f into alpha.group.

    Lemma: d(f*alpha) = f*(d alpha) = 0, and f*alpha is normalized since
    f(1) = 1, so pulling a verified cocycle back along a verified hom needs
    no per-hom Cocycle2 re-check.  The generator columns
    alpha(f(g), f(s)) of every pullback come from one gather
    (`pullback_columns`), and their coordinates from one product (which
    still rejects a row outside Z^2)."""
    return space.column_coords(pullback_columns(alpha, R, space.group))


def pullback_classes(space: H2Space, exts, homs):
    """The distinct classes f*alpha in space, alpha the classifying cocycle
    of exts[k] (`_extension_alpha`) and f over the rows of homs[k], the
    image matrix of homs space.group -> exts[k].Gbar.  Returns (coords,
    which, images): per class, in first-occurrence order over the
    concatenated hom sets, its coordinates, the index k of its extension
    and the image row of the first hom that pulls it back, in the dtype of
    homs (`core.ID_DTYPE` for `enumerate_homs` sets).  One
    `pullback_coords` per extension and one `np.unique` over them all."""
    V = np.concatenate([pullback_coords(_extension_alpha(ext), R, space)
                        for ext, R in zip(exts, homs)])
    first = np.sort(np.unique(V, axis=0, return_index=True)[1])
    which = np.repeat(np.arange(len(homs)), [len(R) for R in homs])
    return V[first], which[first], np.concatenate(homs)[first]


def cup(phi: Cochain1, psi: Cochain1) -> Cocycle2:
    """(phi cup psi)(x, y) = phi(x) psi(y), y a generator, for two
    characters on one group with one prime (`errors.MixedParents`,
    `errors.NotACharacter`)."""
    _same_parent(phi, psi, "cup")
    if not (phi.is_hom and psi.is_hom):
        raise NotACharacter("cup needs two characters")
    cols = phi.values[:, None] * psi.values[phi.group.generators]
    return Cocycle2(phi.group, cols.ravel(), phi.p)


def bockstein(phi: Cochain1) -> Cocycle2:
    """Connecting map of 0 -> Z/p -> Z/p^2 -> Z/p -> 0 on a character
    (`errors.NotACharacter`): (x, y) -> carry / p, y a generator, where
    carry = v(x) + v(y) - v(xy) for the values v in [0, p).

    Lemma: carry is in {0, p}.  It lies in (-p, 2p), and it is 0 mod p
    because phi is a character."""
    if not phi.is_hom:
        raise NotACharacter("the Bockstein needs a character")
    G, p, v = phi.group, phi.p, phi.values
    carry = v[:, None] + v[G.generators] - v[G.mult_gen]
    return Cocycle2(G, (carry // p).ravel(), p)


def transgression(pi: GroupHom, psi: Cochain1) -> Cocycle2:
    """trg(psi)(x,y) = psi( t(x) t(y) t(xy)^-1 ), y a generator of Q, for
    the BFS-minimal section t of the surjection pi: G -> Q
    (`errors.NotSurjective`); psi must be G-invariant on N = ker(pi)
    (`errors.NotInvariant`), which is checked under the generators of G
    only.

    Lemma: that suffices.  Let psi(s^-1 n s) = psi(n) for each generator
    s and every n in N.  Induct on a positive word w: if psi(w^-1 n w) =
    psi(n) for every n in N, then, as w^-1 n w lies in N (N is normal),
    psi((ws)^-1 n (ws)) = psi(s^-1 (w^-1 n w) s) = psi(w^-1 n w) = psi(n).
    In a finite group every element is a positive word in the generators.
    The defect t(x) t(y) t(xy)^-1 lies in N, as pi is a verified hom and
    pi(t(x)) = x, so psi reads it."""
    G, Q, p = pi.domain, pi.codomain, psi.p
    if not pi.is_surjective():
        raise NotSurjective(f"pi: {G.name} -> {Q.name} is not onto")
    members = np.flatnonzero(pi.image == 0)
    vals = psi.values
    gens = np.asarray(G.generators, dtype=np.intp)
    conj = conjugates(G, gens[:, None], members)
    if not np.array_equal(vals[conj], np.broadcast_to(vals[members], conj.shape)):
        raise NotInvariant("character is not conjugation-invariant")
    return Cocycle2(Q, vals[_section_defects(G, Q, pi.section())].ravel(), p)


@memo
def transgression_span(G: FiniteGroup, pi: GroupHom, p: int):
    """(psis, span) for a surjection pi: G -> Q: psis is the basis
    conj_invariant_h1(G, ker pi, p) and span holds the H^2(Q) coordinates of
    their transgressions, so span.solve(v) gives the coefficients over psis
    of a preimage of the class v, or None if it has none."""
    psis = conj_invariant_h1(G, pi.kernel(), p)
    space = h2_space(pi.codomain, p)
    return psis, gf.Span(space.dim, p, [space.coords(transgression(pi, ps))
                                        for ps in psis])


def massey_pullback_set(Q: FiniteGroup, n: int, phis: list, fam, *,
                        budget=DEFAULT_BUDGET) -> list:
    """All pullback classes of the U_n(Z/p) bar-extension class along
    homomorphisms rhobar: Q -> Ubar_n with the prescribed superdiagonal
    characters.  Returns a list of (Cocycle2, coords, rhobar) with one
    entry per distinct class (possibly empty), in first-occurrence order
    over the matching homs (`pullback_classes`).

    The superdiagonal of Ubar_n is the letter count W of its BFS words
    (`_tree_coboundaries`): the superdiagonal is a homomorphism U_n(Z/p)
    -> (Z/p)^n with g_i -> e_i, and for n >= 2 the corner is not on it, so
    it factors through Ubar_n, where it sends each BFS word to its letter
    counts.

    The phis must be characters (`errors.NotACharacter`) of Q mod the
    family's prime (`errors.MixedParents`), as for `cup`."""
    if not fam.label.startswith("zassenhaus"):
        raise SpecError(f"Massey pullbacks need a zassenhaus family, got "
                        f"{fam.label}")
    if len(phis) != n:
        raise SpecError(f"{fam.label} needs {n} characters, got {len(phis)}")
    ext = fam.extensions[0]
    p, Gbar = ext.p, ext.Gbar
    space = h2_space(Q, p)
    for phi in phis:
        _same_parent(phi, space, "Massey pullbacks")
        if not phi.is_hom:
            raise NotACharacter("Massey pullbacks need characters")
    superdiag = _tree_coboundaries(Gbar, p)[0]          # (|Gbar|, n)
    R = enumerate_homs(Q, Gbar, budget=budget).images
    want = np.stack([phi.values % p for phi in phis], axis=1)
    R = R[(superdiag[R] == want).all(axis=(1, 2))]
    coords, _, images = pullback_classes(space, [ext], [R])
    alpha = _extension_alpha(ext)
    rhos = [GroupHom(Q, Gbar, row) for row in images]
    return [(pullback(alpha, rho), v, rho) for v, rho in zip(coords, rhos)]
