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

Coboundary questions are asked in the BFS-tree gauge: every cocycle is
cohomologous to one that is 0 on the BFS tree edges (`_gauge`), and the
coboundaries left in that gauge are the row space of an ngens-row matrix
D (`_tree_coboundaries`), whose left nullspace also gives H^1.  The
residue of a cocycle, its gauge reduced against D (`coboundary_residue`),
is linear and zero exactly on the coboundaries; the inflations of
`pairings`, and through them its liftability test, read it.

Z^2 is solved in the same gauge on the presentation the hom search
already reads: the deduction-closed relator basis of G's BFS
(`core.relator_edges`, memoized as `homsearch._relator_edges`).  Its
record is replayed over F_p^kept, one unknown per kept relator
(`_relator_forms`), solved by one nullspace over |kept| columns and
expanded to the gauged cocycles (`_gauged_z2`); the canonical basis is
rebuilt from them (`_z2_basis`).  Two lemmas carry this:

- Gauged dimension: the gauged cocycles, 0 on every tree column, have
  dimension dim H^2 + ngens - dim H^1.  Z^2 is the gauged cocycles plus
  B^2, and the two meet in the row space of D.
- Duality: the canonical basis of Z^2, the constraint nullspace basis
  that is the identity on the free columns F, is R[::-1, ::-1] for R
  the rref of any spanning set of Z^2 with its columns reversed.  F is
  the pivot set of that reversed rref, and an rref is unique.
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
# Coboundary linear algebra on generator columns, in the BFS-tree gauge
# ---------------------------------------------------------------------

def _gauge(G: FiniteGroup, u, p: int) -> np.ndarray:
    """u - dc for generator columns u (one vector, or a matrix with one
    per row), where c(1) = 0 and c(x) = c(d) - u(d, s) along the BFS edge
    G.pred[x] = (d, s), computed a BFS level at a time (`bfs_levels`).

    Lemma: for normalized u, u - dc is 0 on every tree edge (d, s).  Each
    generator s has c(s) = -u(1, s) = 0, so dc(d, s) = c(d) + c(s) - c(ds)
    = u(d, s).  dc is in B^2 for any u, so the gauge keeps the class of u
    and whether u is in Z^2."""
    n, gens = G.order, np.asarray(G.generators, dtype=np.intp)
    u = np.asarray(u, dtype=np.int64)
    lead = u.shape[:-1]
    U = u.reshape(lead + (n, len(gens)))
    c = np.zeros(lead + (n,), dtype=np.int64)
    for lo, hi, d, s in bfs_levels(G.pred):
        c[..., lo:hi] = (c[..., d] - U[..., d, s]) % p
    dc = c[..., :, None] + c[..., None, gens] - c[..., G.mult_gen]
    return ((U - dc) % p).reshape(u.shape)


@memo
def _tree_coboundaries(G: FiniteGroup, p: int):
    """(W, D, span): W[x, i] counts the letter i in x's BFS word mod p,
    one batched step per BFS level (`bfs_levels`): the word of x with
    G.pred[x] = (d, s) is that of d followed by s.  Row i of D is the
    generator columns of d(W[:, i]), and span is the gf.Span over the
    rows of D.

    Lemma: the coboundaries that are 0 on the BFS tree are the row space
    of D.  If dc is 0 on the tree edges, c(x) = c(d) + c(s) along them, so
    c = W a with a = c(generators) and dc = a D; and W a is a character
    iff a D = 0, as d(W a) then vanishes on every generator edge
    (`core._respects_generator_edges`)."""
    gens = np.asarray(G.generators, dtype=np.intp)
    ngens = len(gens)
    letter = np.eye(ngens, dtype=np.int32)
    W = np.zeros((G.order, ngens), dtype=np.int32)
    for lo, hi, d, s in bfs_levels(G.pred):
        W[lo:hi] = (W[d] + letter[s]) % p
    D = W[:, None, :] + W[gens] - W[G.mult_gen]            # (g, j, i)
    D = (D.transpose(2, 0, 1) % p).reshape(ngens, G.order * ngens)
    return W, D, gf.Span(D.shape[1], p, D)


def coboundary_residue(G: FiniteGroup, u, p: int) -> np.ndarray:
    """The residue of the generator columns u (one vector, or a matrix
    with one per row): the gauge of u (`_gauge`) reduced against the span
    of D (`_tree_coboundaries`), every row in one `_gauge` call and one
    product.  The residue is linear in u, as the gauge and the reduction
    are.

    Lemma: on Z^2 the residue is zero exactly on the coboundaries, so it is
    injective on H^2.  The gauge of u is 0 on the BFS tree, so u is a
    coboundary iff the gauge lies in the row space of D, rank ngens -
    dim H^1.  A row that is not a cocycle never has residue zero, as every
    row of D is a coboundary."""
    return _tree_coboundaries(G, p)[2].reduce(_gauge(G, u, p))


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


def _kept_loops(G: FiniteGroup):
    """(kept, loops, rounds): the record of the relator basis of G's own
    BFS (`core.relator_edges`, memoized as `homsearch._relator_edges(G,
    ngens)`) with its loops traced.  loops[i] = (E, sign) for the i-th
    kept edge: E[c, v] is the id s n + x of the c-th edge (x, s) on its
    loop from starts[i][v] (`core._walk`), and sign[c] is 1 for a step
    along the letter's generator and -1 for a step back."""
    kept, words, starts, rounds = _relator_edges(G, len(G.generators))[1]
    step, back = G.mult_gen.T, G.mult[:, G.inv[G.generators]].T
    loops = [(_walk(step, back, w, v)[0], np.where(np.asarray(w) < 0, -1, 1))
             for w, v in zip(words, starts)]
    return kept, loops, rounds


def _relator_forms(G: FiniteGroup, p: int):
    """(forms, rows) over F_p^kept, replayed from the traced record of the
    relator basis (`_kept_loops`): forms[x ngens + s] is the form of the
    edge (x, s), the generator column of its id s n + x, whose value on the
    gauged cocycle with value a[i] at the i-th kept edge is
    forms[x ngens + s] @ a, and rows are the conditions on a.

    Tree edges have the form 0 and kept edge i the unit e_i.  A deduced
    edge E, alone unknown on the loop of kept edge i that deduced it, with
    sign eps there, gets eps (e_i - the signed sum of the forms on that
    loop, E's still 0), a round of deductions at a time: every other edge
    on a round's loops was known before it, and an edge two loops of a
    round deduce is taken from one of them.  rows are the signed form
    sums of every traced loop of every kept edge i, minus e_i, those that
    are not 0 (the rows of the deducing loops vanish), one product per
    kept edge."""
    n, k = G.order, len(G.generators)
    kept, loops, rounds = _kept_loops(G)
    forms = np.zeros((n * k, len(kept)), dtype=np.int64)
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
            total = np.tensordot(sign, forms[O], axes=1)
            forms[new[at]] = eps[:, None] * (unit[i] - total) % p
    rows = np.concatenate([unit[:0]] + [
        (np.tensordot(sign, forms[E], axes=1) - unit[i]) % p
        for i, (E, sign) in enumerate(loops)])
    column = np.arange(n * k).reshape(k, n).T.ravel()   # x k + s: s n + x
    return forms[column], rows[rows.any(axis=1)]


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
    - A gauged u is normalized (each generator s is the tree edge
      (1, s)), and Phi_1(r_K) = u(K), as r_K runs from 1 along tree
      edges but K.  So it is a cocycle iff Phi_v(r_K) = u(K) for every
      start v and kept K.  The loops of one orbit of a power relator are
      one cycle with one sum, so the traced loops suffice.  A cocycle
      meets each deducing loop's condition, so by induction its deduced
      edges hold their forms at a = u(kept), and it meets every row;
      conversely forms @ a meets every loop's condition when a is in the
      nullspace of the rows.

    Its dimension is dim H^2 + ngens - dim H^1.  Every cocycle minus a
    coboundary is gauged (`_gauge`), so Z^2 = gauged + B^2; the gauged
    coboundaries are the row space of D, of rank ngens - dim H^1
    (`_tree_coboundaries`); and dim B^2 = n - 1 - dim H^1, as the
    1-cochains c with c(1) = 0 and dc = 0 are the characters.  Like the
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
    _span: gf.Span         # gauged Z^2: the rows of D, then gauged cand
    _reps: np.ndarray      # positions of the basis representatives in _span

    def coords(self, c: Cocycle2):
        _same_parent(c, self, "H^2 coordinates")
        return self.column_coords(c.columns)

    def column_coords(self, u):
        """Coordinates of the class of each cocycle given by its generator
        columns: u is one such vector, or a matrix with one per row.  The
        gauge of u (`_gauge`) has the class of u and is in Z^2 iff u is."""
        x = self._span.solve(_gauge(self.group, u, self.p))
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
    batch at the generators (`_column_violations`, `errors.EdgeCheckFailed`)
    and solved back to the identity (`errors.SolveRoundTripFailed`); no
    n x n table is built here or by `H2Space.rep`.

    cand is not solved for over all n * ngens columns.  The gauged
    cocycles, 0 on the BFS tree, come from one nullspace over the kept
    relators of G's BFS, of dimension dim H^2 + ngens - dim H^1 (lemmas at
    `_gauged_z2`); with the coboundaries d(delta_x) they span Z^2, and one
    rref with the columns reversed gives cand exactly (the duality lemma
    at `_z2_basis`).

    The span is taken in the BFS-tree gauge: one Span is factored over the
    rows of D (`_tree_coboundaries`, spanning the coboundaries that are 0
    on the tree) followed by the gauged cand rows.  gauge(u) - u is in
    B^2 and gauge(B^2) is the row space of D (lemmas at `_gauge` and
    `_tree_coboundaries`), so a gauged cand row grows this span iff the
    cand row grows B^2 plus the earlier cand rows.  grew[k] is read off
    the transform as trans[:, ngens + k] != 0.  Lemma: trans restricted
    to the columns of the vectors that grew is invertible (it maps a
    basis, those vectors, onto another, the rref rows), so such a column
    is nonzero, and the other columns are zero by construction."""
    if G.order > H2_ORDER_CAP:
        raise GroupTooLarge(f"|G| = {G.order} exceeds the H^2 cap {H2_ORDER_CAP}")
    cand = _z2_basis(G, p)
    D = _tree_coboundaries(G, p)[1]
    span = gf.Span(cand.shape[1], p, np.concatenate([D, _gauge(G, cand, p)]))
    grew = span.trans[:, len(D):].any(axis=0)
    basis = cand[grew]
    if _column_violations(G, basis, p).any():
        raise EdgeCheckFailed("H^2 basis row is not a cocycle")
    space = H2Space(G, p, len(basis), basis, span,
                    len(D) + np.flatnonzero(grew))
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
    is a character iff a D = 0 (lemma at `_tree_coboundaries`, W[x, i]
    the count of the letter i in x's BFS word); so one nullspace over a,
    of D.T with |G| * ngens rows and ngens unknowns, spans the
    characters, and the rref of their values is the canonical basis.

    Lemma: this is the basis dual to the greedy basis of the elementary
    abelianization Q = G/G^p[G,G] in id order (each pick the least id of
    Q outside the span of the earlier picks).  G's BFS meets each coset
    first at its least id, so Q's ids follow the cosets' least ids.  Every
    id of Q below pick j lies in the span of the earlier picks, where the
    j-th dual vanishes; so the j-th dual is 0 left of the least id of pick
    j, 1 there and 0 at the other picks' least ids: it is the rref, which
    is unique.  The dimension is checked against |G : G^p[G,G]| from the
    subgroup calculus (`errors.OracleDisagreement`)."""
    W, D, _ = _tree_coboundaries(G, p)
    basis = gf.rref(gf.nullspace(D.T, p) @ W.T, p)[0]
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
    p = phi.p
    G = phi.group
    v = phi.values
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
    G, Q = pi.domain, pi.codomain
    p = psi.p
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
    out = []
    for v, row in zip(coords, images):
        rho = GroupHom(Q, Gbar, row)
        out.append((pullback(alpha, rho), v, rho))
    return out
