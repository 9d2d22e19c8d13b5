"""Homomorphism enumeration, the T^U intersection subgroups, and lifting
through central extensions.

The search runs over generator images in BFS-word order, level by level:
a partial assignment of images to the first j generators forces the image
of every element whose BFS word uses only those generators, and the
assignment is kept only if those images respect every generator edge
e -> e*s of the subgroup they span.  Blocks of candidate prefixes are
evaluated one BFS level at a time (`core.word_images`); each edge is
checked at the level where it closes, the first at which all three of
its images are known (`_closing_edges`), and a prefix that fails it is
dropped there, before any more of its images are computed.

A hom set is an image matrix: `HomSet.images` has one row per hom and one
column per element id.  `t_subgroup` and the pullback-class searches read
the matrix directly; a `GroupHom` is built only when a caller asks for one.

The search runs up to U-conjugacy (`_reduced_homs`): the first generator
s_1 takes only the least id x of each conjugacy class of U.  For u in U
let c_u(y) = u y u^-1.  Four lemmas make the reduced set enough:

1. ker(c_u o f) = ker f, as c_u is injective.  So T^U(G), the
   intersection of the kernels, is read off the reduced set.
2. Inner automorphisms act trivially on H^*(U), so f and c_u o f pull
   back the same classes.
3. Liftability through a central extension E -> U does not change: if
   lift lifts f, then c_w o lift lifts c_u o f for any w over u.
4. (u, f) -> c_u o f, with f reduced, f(s_1) = x and u in a transversal
   of U / C_U(x), is a bijection onto {h in Hom(G, U) : h(s_1) in cl(x)}:
   a conjugate of a hom is a hom, c_u o f sends s_1 to u x u^-1, which
   fixes the coset u C_U(x), and h = c_u o (c_u^-1 o h).  Hence
   |Hom(G, U)| = sum over x of |cl(x)| * #{reduced f : f(s_1) = x}.

`enumerate_homs` rebuilds the full set from lemma 4, `hom_count` reads the
count from it and `t_subgroup` uses lemma 1.  Lemmas 2 and 3 are not used
yet: the pullback and lifting searches take the full set.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (FiniteGroup, GroupHom, Subgroup, _bfs, _element_orders,
                   _table_product, closing_edges, intersect_subgroups, memo,
                   word_images)
from .errors import BudgetExceeded, NotSurjective, TNotInsideTbar
from .unitriangular import CentralExtension, OmegaFamily

DEFAULT_BUDGET = 2 ** 31
_CHUNK = 8192


class HomSet(Sequence):
    """Hom(domain, codomain) as the m x |domain| int32 matrix `images`,
    one hom per row, in search order.  Indexing builds (and validates) the
    GroupHom of one row; len and the matrix itself build none."""

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup,
                 images: np.ndarray, explored_prefixes: int = 0):
        self.domain = domain
        self.codomain = codomain
        self.images = images
        self.explored_prefixes = explored_prefixes

    def __len__(self):
        return self.images.shape[0]

    def __getitem__(self, i):
        return GroupHom(self.domain, self.codomain, self.images[i])

    @property
    def homs(self) -> "HomSet":
        """The homs as a sequence of GroupHom, built on access."""
        return self


@memo
def _partial_bfs(G: FiniteGroup, j: int):
    """BFS over G restricted to the first j generators (`core._bfs`).

    Returns (elems, pred, tgt) where elems lists reached element ids in BFS
    order, pred[t] = (position of predecessor in elems, generator index)
    and tgt[t, s] = position of elems[t] * gen_s within elems, for s < j.
    At j = ngens this is G's own BFS, so elems lists the ids in order."""
    elems, pred = _bfs(G.mult_gen, range(j))
    pos = np.empty(G.order, dtype=np.int32)
    pos[elems] = np.arange(len(elems))
    return elems, pred, pos[G.mult_gen[elems, :j]]


@memo
def _closing_edges(G: FiniteGroup, j: int):
    """The edge schedule (`core.closing_edges`) of `_partial_bfs(G, j)`."""
    _, pred, tgt = _partial_bfs(G, j)
    return closing_edges(pred, tgt)


def _extend(P: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Every row of P followed by every entry of c, rows in order."""
    return np.concatenate([np.repeat(P, len(c), axis=0),
                           np.tile(c, P.shape[0]).reshape(-1, 1)], axis=1)


def _filter_prefixes(G: FiniteGroup, U: FiniteGroup, P: np.ndarray, j: int):
    """Keep the prefixes (rows of P, shape m x j) that define a consistent
    partial homomorphism on the subgroup generated by the first j generators.
    Returns (surviving P, their image matrices over that subgroup).

    One word walk per chunk of rows (`core.word_images`) checks each edge
    off the BFS tree at the level where it closes (`_closing_edges`) and
    drops a failed prefix there, so no image of it is computed past that
    level.  Each generator's image sits at its own position, so the
    surviving prefixes are read off their image rows."""
    _, pred, tgt = _partial_bfs(G, j)
    edges = _closing_edges(G, j)
    img = np.concatenate([word_images(pred, U, P[lo:lo + _CHUNK], edges)
                          for lo in range(0, P.shape[0], _CHUNK)])
    return img[:, tgt[0]], img


@dataclass
class _Classes:
    """The conjugacy classes of a non-abelian U, by element id."""
    rep: np.ndarray          # least id of each element's class
    size: np.ndarray         # |cl(x)| for each element x
    transversal: dict        # rep x -> one u per coset of C_U(x)


@memo
def _conjugacy_classes(U: FiniteGroup) -> _Classes | None:
    """U's conjugacy classes, or None when U is abelian (every class is a
    singleton; U is abelian iff its generators commute pairwise).

    One column u x u^-1 over all u per class, from its least id x: O(|U|)
    each, with no |U| x |U| conjugation table.  The transversal of x lists
    the least u with u x u^-1 = y for each y in cl(x), by y ascending."""
    gens = U.generators
    A = U.mult[np.ix_(gens, gens)]
    if np.array_equal(A, A.T):
        return None
    mul = _table_product(U)
    everyone = np.arange(U.order, dtype=np.int32)
    rep = np.full(U.order, -1, dtype=np.int32)
    transversal = {}
    for x in range(U.order):
        if rep[x] < 0:
            members, first = np.unique(mul(mul(everyone, x), U.inv),
                                       return_index=True)
            rep[members] = x
            transversal[x] = first.astype(np.int32)
    return _Classes(rep, np.bincount(rep, minlength=U.order)[rep], transversal)


@memo
def _reduced_homs(G: FiniteGroup, U: FiniteGroup, *,
                  budget=DEFAULT_BUDGET) -> tuple:
    """Hom(G, U) up to U-conjugacy: the homs f with f(s_1) the least id of
    its U-conjugacy class, as (image matrix in candidate order, explored).

    The search is the level-by-level search over generator images with the
    first generator's candidates cut to class representatives.  `explored`
    is the count of the full search: level j adds |cl(f(s_1))| * |cands_j|
    over the surviving reduced prefixes f, which by the bijection of the
    module docstring (a conjugate of a consistent prefix is one) is the
    number of full prefixes times |cands_j|.  So BudgetExceeded fires at
    the same level with the same count as a search over every hom."""
    ngens = len(G.generators)
    if ngens == 0:
        return np.zeros((1, G.order), dtype=np.int32), 0

    # candidate images per generator: the image order must divide the
    # generator's order (a union of classes, as conjugation keeps orders)
    u_orders = _element_orders(U)
    cands = [np.nonzero(o % u_orders == 0)[0].astype(np.int32)
             for o in _element_orders(G)[G.generators]]
    classes = _conjugacy_classes(U)

    explored = 0
    P = np.zeros((1, 0), dtype=np.int32)
    img = None
    for j in range(1, ngens + 1):
        c = cands[j - 1]
        weight = (P.shape[0] if j == 1 or classes is None
                  else int(classes.size[P[:, 0]].sum()))
        explored += weight * len(c)
        if explored > budget:
            raise BudgetExceeded(f"hom search budget exceeded ({explored})",
                                 explored=explored)
        if j == 1 and classes is not None:
            c = c[classes.rep[c] == c]
        P, img = _filter_prefixes(G, U, _extend(P, c), j)

    # img columns follow the full-BFS element order, which is the id order.
    # The last level's walk checked every edge of G, so each row is a hom
    # by the lemma of core.word_images.
    return img, explored


def enumerate_homs(G: FiniteGroup, U: FiniteGroup, *,
                   budget=DEFAULT_BUDGET) -> HomSet:
    """All homomorphisms G -> U, in candidate order: ascending in the
    generator images (f(s_1), ..., f(s_k)) lexicographically.

    Rebuilt from the reduced set by one gather: each reduced f with
    f(s_1) = x gives the rows c_u o f for u in the transversal of
    U / C_U(x), and each row goes to its place in the lexsort of its
    generator images.  By the bijection lemma of the module docstring
    these are all of Hom(G, U), each once.  When U is abelian the reduced
    set is Hom(G, U) itself.  The full matrix is not cached."""
    R, explored = _reduced_homs(G, U, budget=budget)
    classes = _conjugacy_classes(U)
    if classes is None or not G.generators:
        return HomSet(G, U, R, explored_prefixes=explored)
    x = R[:, G.generators[0]]
    us, rows = [], []
    for rep in np.unique(x):
        idx = np.flatnonzero(x == rep)
        t = classes.transversal[int(rep)]
        us.append(np.repeat(t, len(idx)))
        rows.append(np.tile(idx, len(t)))
    u, row = np.concatenate(us), np.concatenate(rows)
    mul = _table_product(U)

    def conj(u, F):
        return mul(mul(u[:, None], F), U.inv[u][:, None])

    order = np.lexsort(conj(u, R[np.ix_(row, G.generators)]).T[::-1])
    u, row = u[order], row[order]
    images = np.empty((len(u), G.order), dtype=np.int32)
    for lo in range(0, len(u), _CHUNK):     # temporaries stay chunk-sized
        s = slice(lo, lo + _CHUNK)
        images[s] = conj(u[s], R[row[s]])
    return HomSet(G, U, images, explored_prefixes=explored)


def hom_count(G: FiniteGroup, U: FiniteGroup, *,
              budget=DEFAULT_BUDGET) -> tuple:
    """(|Hom(G, U)|, explored prefixes), read off the reduced set as
    sum over reduced f of |cl(f(s_1))| (lemma 4), with no expansion."""
    R, explored = _reduced_homs(G, U, budget=budget)
    classes = _conjugacy_classes(U)
    if classes is None or not G.generators:
        return len(R), explored
    return int(classes.size[R[:, G.generators[0]]].sum()), explored


@memo
def t_subgroup(G: FiniteGroup, U: FiniteGroup, *,
               budget=DEFAULT_BUDGET) -> Subgroup:
    """T^U(G): the intersection of the kernels of all homomorphisms G -> U,
    read off the reduced hom set, since ker(c_u o f) = ker f."""
    R, _ = _reduced_homs(G, U, budget=budget)
    mask = (R == 0).all(axis=0)
    return Subgroup(G, np.nonzero(mask)[0].astype(np.int32), check=False)


@dataclass
class TBundle:
    family: OmegaFamily
    T: Subgroup
    Tbar: Subgroup


@memo
def t_bundle(G: FiniteGroup, fam: OmegaFamily, *,
             budget=DEFAULT_BUDGET) -> TBundle:
    """T(G) and Tbar(G): the intersections of T^E(G), resp. T^Gbar(G), over
    the family's extensions.  Both are normal, with no check: a kernel is
    normal and so is an intersection of normal subgroups.  T <= Tbar is
    checked (`errors.TNotInsideTbar`)."""
    ku = [t_subgroup(G, ext.E, budget=budget) for ext in fam.extensions]
    kb = [t_subgroup(G, ext.Gbar, budget=budget) for ext in fam.extensions]
    T = intersect_subgroups(ku)
    Tbar = intersect_subgroups(kb)
    if not T <= Tbar:
        raise TNotInsideTbar(f"{fam.label}: |T| = {T.order} is not inside "
                             f"|Tbar| = {Tbar.order}")
    return TBundle(fam, T, Tbar)


def lift_hom(ext: CentralExtension, pi: GroupHom, rhobar: GroupHom, *,
             budget=DEFAULT_BUDGET):
    """A homomorphism rho: G -> E with lambda o rho = rhobar o pi, or None.

    Searches the |Z| preimage choices per generator of G.  pi must be onto
    (`errors.NotSurjective`).  A row the search keeps is a hom rho with
    lam(rho(s)) = rhobar(pi(s)) on every generator s; lam o rho and
    rhobar o pi are then homs that agree on generators, hence equal, so the
    result needs no further check."""
    if not pi.is_surjective():
        raise NotSurjective(f"pi: {pi.domain.name} -> {pi.codomain.name} "
                            "is not onto")
    G = pi.domain
    required = rhobar.image[pi.image]
    ngens = len(G.generators)
    if ngens == 0:
        return GroupHom(G, ext.E, np.zeros(G.order, dtype=np.int32))
    pre = []
    for s in G.generators:
        b = int(required[s])
        pre.append(np.nonzero(ext.lam.image == b)[0].astype(np.int32))
    total = 1
    for c in pre:
        total *= len(c)
    if total > budget:
        raise BudgetExceeded(f"lift search budget exceeded ({total})",
                             explored=0)
    # cartesian product, deterministic order
    C = np.zeros((1, 0), dtype=np.int32)
    for c in pre:
        C = _extend(C, c)
    kept, imgs = _filter_prefixes(G, ext.E, C, ngens)
    if kept.shape[0] == 0:
        return None
    return GroupHom(G, ext.E, imgs[0])
