"""Homomorphism enumeration, the T^U intersection subgroups, and lifting
through central extensions.

Every search here is one prefix search over generator images
(`_search`), in BFS-word order, level by level: level j extends each
surviving prefix by each candidate image of the j-th generator, adds
prefixes x candidates to `explored`, and keeps a prefix only if the
images it forces (those of every element whose BFS word uses the first j
generators) respect every generator edge e -> e*s of the subgroup they
span.  Blocks of candidate prefixes are evaluated one BFS level at a time
(`core.word_images`).  The walk checks a deduction-closed basis of the
edges off the BFS tree (`_relator_edges`, a few of the `_closing_edges`:
Meta:3 keeps 3 of its 82), each at the level where it closes, the first
at which all three of its images are known, and a prefix that fails one
is dropped there, before any more of its images are computed.  The
edges left out follow from the kept ones, and the prefixes left after
each level are those a check of every edge leaves (the lemmas at
`core.relator_edges`).  The hom search and the lift search run this one
loop, under one budget with one error (`errors.BudgetExceeded`, "hom
search budget exceeded").

The hom search's candidates are the order candidates: a hom sends s to an
element whose order divides o(s).  The lift search (`lift_hom`) cuts
them to the preimages of the required images, so it keeps every lift.
Every lift prefix is a consistent hom prefix G -> E, and every lift
candidate is an order candidate, so a lift search never explores more
prefixes than the search of Hom(G, E), which `t_bundle` runs under the
same budget.

What the hom search keeps (`_reduced_homs`, memoized per group) is small:
the generator images of the reduced homs, one row of ngens ids per hom,
and the meet of their kernels, one bool per element of G.  The last
level's image rows give the meet and are then dropped, so no memo here
holds a |G|-wide row per hom.  `t_subgroup` reads the meet and
`hom_count` the generator images.  Rows are expanded only in
`enumerate_homs`, by a plain BFS word walk of the generator images: a
hom set is then an image matrix, `HomSet.images`, with one row per hom and
one column per element id, in 16-bit ids (`core.ID_DTYPE`), which the
pullback-class searches read directly and which is not cached; a
`GroupHom` is built only when a caller asks for one.  The search itself
(`word_images`, the generator images F) stays in int32, the width of the
table products x * |U| + y.

The hom search runs up to U-conjugacy (`_reduced_homs`): the first
generator s_1 takes only the least id x of each conjugacy class of U.
For u in U let c_u(y) = u y u^-1.  Four lemmas make the reduced set
enough:

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

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (_CHUNK_ENTRIES, ID_DTYPE, FiniteGroup, GroupHom, Subgroup,
                   _bfs, _element_orders, _table_product, closing_edges,
                   conjugates, intersect_subgroups, memo, relator_edges,
                   word_images)
from .errors import BudgetExceeded, NotSurjective, TNotInsideTbar
from .unitriangular import CentralExtension, OmegaFamily

DEFAULT_BUDGET = 2 ** 31
_CHUNK = 8192


class HomSet(Sequence):
    """Hom(domain, codomain) as the m x |domain| matrix `images` of
    element ids in `core.ID_DTYPE` (16 bits), one hom per row, in search
    order.  Indexing by an int builds (and validates) the GroupHom of one
    row, whose image is int32; any other index, a slice among them, raises
    TypeError.  len and the matrix itself build none."""

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup,
                 images: np.ndarray, explored_prefixes: int = 0):
        self.domain = domain
        self.codomain = codomain
        self.images = images
        self.explored_prefixes = explored_prefixes

    def __len__(self):
        return self.images.shape[0]

    def __getitem__(self, i):
        return GroupHom(self.domain, self.codomain,
                        self.images[operator.index(i)])

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


@memo
def _relator_edges(G: FiniteGroup, j: int):
    """(basis, record) of `core.relator_edges` on `_closing_edges(G, j)`:
    the deduction-closed basis is the edges the search checks, and at
    j = ngens the record of its deductions gives Z^2
    (`cohomology._gauged_z2`).  It is a function of G's tables alone, so
    twins share it."""
    _, pred, tgt = _partial_bfs(G, j)
    return relator_edges(pred, tgt, _closing_edges(G, j))


def _extend(P: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Every row of P followed by every entry of c, rows in order."""
    return np.concatenate([np.repeat(P, len(c), axis=0),
                           np.tile(c, P.shape[0]).reshape(-1, 1)], axis=1)


def _filter_prefixes(G: FiniteGroup, U: FiniteGroup, P: np.ndarray, j: int):
    """Keep the prefixes (rows of P, shape m x j) that define a consistent
    partial homomorphism on the subgroup generated by the first j generators.
    Returns (surviving P, their image matrices over that subgroup).

    One word walk per chunk of rows (`core.word_images`) checks each edge
    of the basis `_relator_edges` at the level where it closes and drops a
    failed prefix there, so no image of it is computed past that level;
    the prefixes left after each level are those a check of every edge
    off the BFS tree leaves.  Each generator's image sits at its own
    position, so the surviving prefixes are read off their image rows."""
    _, pred, tgt = _partial_bfs(G, j)
    edges = _relator_edges(G, j)[0]
    img = np.concatenate([word_images(pred, U, P[lo:lo + _CHUNK], edges)
                          for lo in range(0, P.shape[0], _CHUNK)])
    return img[:, tgt[0]], img


@dataclass
class _Classes:
    """The conjugacy classes of a non-abelian U, by element id."""
    rep: np.ndarray          # least id of each element's class
    size: np.ndarray         # |cl(x)| for each element x


@memo
def _conjugacy_classes(U: FiniteGroup) -> _Classes | None:
    """U's conjugacy classes, or None when U is abelian (every class is a
    singleton; U is abelian iff its generators commute pairwise).

    Each id's least class member, by min-label propagation: rep starts as
    the identity map, and each pass lowers rep[y] to the least rep of y
    and of its conjugates y^s = s^-1 y s (`core.conjugates`) by every
    generator s and its inverse, then jumps rep[y] to rep[rep[y]], until
    a pass changes nothing.  O(|U| * ngens) per pass, with no |U| x |U|
    conjugation table; rep only decreases, so the loop ends.

    Lemma: the fixpoint is the least member of each class.  rep[y] always
    lies in cl(y) and rep[z] <= z, so the jump keeps both.  At the
    fixpoint rep[y] <= rep[y^s] for every generator s and its inverse,
    so rep is constant along conjugation by each generator, hence by every
    u, a positive word in the generators: constant on cl(y).  The least
    member x of a class keeps rep[x] = x, as no member is below it."""
    gens = np.asarray(U.generators, dtype=np.intp)
    A = U.mult[np.ix_(gens, gens)]
    if np.array_equal(A, A.T):
        return None
    everyone = np.arange(U.order, dtype=np.int32)
    moves = conjugates(U, np.concatenate([gens, U.inv[gens]])[:, None],
                       everyone)
    rep = everyone
    while True:
        low = np.minimum(rep, rep[moves].min(axis=0))
        low = low[low]
        if np.array_equal(low, rep):
            break
        rep = low
    return _Classes(rep, np.bincount(rep, minlength=U.order)[rep])


def _transversal(U: FiniteGroup, x: int) -> np.ndarray:
    """One u per coset of C_U(x): the least u with u x u^-1 = y for each
    y in cl(x), by y ascending.  One column u x u^-1 over all u, O(|U|)."""
    return np.unique(conjugates(U, U.inv, x),
                     return_index=True)[1].astype(np.int32)


def _order_candidates(G: FiniteGroup, U: FiniteGroup) -> list:
    """The candidate images of each generator s of G: the ids of U whose
    order divides o(s), ascending (a union of classes, as conjugation
    keeps orders)."""
    u_orders = _element_orders(U)
    return [np.nonzero(o % u_orders == 0)[0].astype(np.int32)
            for o in _element_orders(G)[G.generators]]


def _search(G: FiniteGroup, U: FiniteGroup, cands: list, classes, budget):
    """The level-by-level search over generator images, as (P, img,
    explored).  Level j extends every surviving prefix by every candidate
    image cands[j - 1] of the j-th generator (`_extend`, lexicographic)
    and keeps the consistent ones (`_filter_prefixes`); the search stops
    once no prefix is left.  P holds the last level's prefixes, img their
    image rows (one zero row before any walk) and explored the prefixes x
    candidates of every level run.  When classes is given the first
    generator's candidates are cut to class representatives, and a prefix
    f counts |cl(f(s_1))| times.

    Level 1 runs no walk when a level follows it: <s_1> is cyclic of order
    o(s_1), so an image c of s_1 extends to a hom on it iff o(c) divides
    o(s_1), which the order candidates impose.  The last level always
    walks, as the caller reads its image rows."""
    explored = 0
    P = np.zeros((1, 0), dtype=np.int32)
    img = np.zeros((1, G.order), dtype=np.int32)
    for j, c in enumerate(cands, 1):
        weight = (len(P) if j == 1 or classes is None
                  else int(classes.size[P[:, 0]].sum()))
        explored += weight * len(c)
        if explored > budget:
            raise BudgetExceeded(f"hom search budget exceeded ({explored})",
                                 explored=explored)
        if j == 1 and classes is not None:
            c = c[classes.rep[c] == c]
        P = _extend(P, c)
        if not len(P):
            break
        if j > 1 or len(cands) == 1:
            P, img = _filter_prefixes(G, U, P, j)
    return P, img, explored


@memo
def _reduced_homs(G: FiniteGroup, U: FiniteGroup, *,
                  budget=DEFAULT_BUDGET) -> tuple:
    """Hom(G, U) up to U-conjugacy: the homs f with f(s_1) the least id of
    its U-conjugacy class, as (F, meet, explored).  F holds their
    generator images, one row (f(s_1), ..., f(s_k)) per hom, in candidate
    order; meet is the bool mask over G's ids of the intersection of their
    kernels.

    The search (`_search`) takes the order candidates with the first
    generator's cut to class representatives.  `explored` is the count of
    the full search: level j adds |cl(f(s_1))| * |cands_j| over the
    surviving reduced prefixes f, which by the bijection of the module
    docstring (a conjugate of a consistent prefix is one) is the number of
    full prefixes times |cands_j|.  So BudgetExceeded fires at the same
    level with the same count as a search over every hom.  The last
    level's image rows give meet and are dropped here: their columns
    follow the full-BFS order, which is the id order, and each row is a
    hom by the lemma of core.word_images."""
    P, img, explored = _search(G, U, _order_candidates(G, U),
                               _conjugacy_classes(U), budget)
    return P, (img == 0).all(axis=0), explored


def enumerate_homs(G: FiniteGroup, U: FiniteGroup, *,
                   budget=DEFAULT_BUDGET) -> HomSet:
    """All homomorphisms G -> U, in candidate order: ascending in the
    generator images (f(s_1), ..., f(s_k)) lexicographically, as an image
    matrix in `core.ID_DTYPE`.

    The reduced generator images are first expanded along G's BFS words
    (`core.word_images`, with no edge checks: each row is already a hom,
    and a hom's image of an element is its word evaluated in the
    generator images, whatever the word).  Then one gather rebuilds the
    full set: each reduced f with f(s_1) = x gives the rows c_u o f for u
    in the transversal of U / C_U(x) (`_transversal`, built only for the
    x that occur), and each row goes to its place in the lexsort of its
    generator images.  By the bijection lemma of the module docstring
    these are all of Hom(G, U), each once.  When U is abelian the reduced
    set is Hom(G, U) itself.  Both the expansion and the full matrix are
    stored in ID_DTYPE and filled in chunks of about
    `core._CHUNK_ENTRIES` = 2^16 ids, so the int32 temporaries of the
    word walk and the conjugation stay far smaller than the output.  The
    full matrix is not cached."""
    F, _, explored = _reduced_homs(G, U, budget=budget)
    step = max(1, _CHUNK_ENTRIES // G.order)
    R = np.empty((len(F), G.order), dtype=ID_DTYPE)
    for lo in range(0, len(F), step):
        R[lo:lo + step] = word_images(G.pred, U, F[lo:lo + step])
    classes = _conjugacy_classes(U)
    if classes is None or not G.generators:
        return HomSet(G, U, R, explored_prefixes=explored)
    x = F[:, 0]
    us, rows = [], []
    for rep in np.unique(x):
        idx = np.flatnonzero(x == rep)
        t = _transversal(U, int(rep))
        us.append(np.repeat(t, len(idx)))
        rows.append(np.tile(idx, len(t)))
    u, row = np.concatenate(us), np.concatenate(rows)
    mul = _table_product(U)

    def conj(u, V):                         # c_u o f = u f u^-1, row-wise
        return mul(mul(u[:, None], V), U.inv[u][:, None])

    order = np.lexsort(conj(u, F[row]).T[::-1])
    u, row = u[order], row[order]
    images = np.empty((len(u), G.order), dtype=ID_DTYPE)
    for lo in range(0, len(u), step):
        s = slice(lo, lo + step)
        images[s] = conj(u[s], R[row[s]])
    return HomSet(G, U, images, explored_prefixes=explored)


def hom_count(G: FiniteGroup, U: FiniteGroup, *,
              budget=DEFAULT_BUDGET) -> tuple:
    """(|Hom(G, U)|, explored prefixes), read off the reduced generator
    images as sum over reduced f of |cl(f(s_1))| (lemma 4), with no
    expansion."""
    F, _, explored = _reduced_homs(G, U, budget=budget)
    classes = _conjugacy_classes(U)
    if classes is None or not G.generators:
        return len(F), explored
    return int(classes.size[F[:, 0]].sum()), explored


@memo
def t_subgroup(G: FiniteGroup, U: FiniteGroup, *,
               budget=DEFAULT_BUDGET) -> Subgroup:
    """T^U(G): the intersection of the kernels of all homomorphisms G -> U,
    read off the reduced search's kernel meet, since ker(c_u o f) = ker f."""
    _, meet, _ = _reduced_homs(G, U, budget=budget)
    return Subgroup(G, np.flatnonzero(meet).astype(np.int32), check=False)


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
    """A homomorphism rho: G -> E with lambda o rho = rhobar o pi, or None:
    the least one in the lexicographic order of its generator images.

    The hom search's loop (`_search`) with the candidates of a generator s
    cut to the preimages of rhobar(pi(s)) that are order candidates.  A
    hom sends s to an element whose order divides o(s), so the cut keeps
    every lift.  pi must be onto (`errors.NotSurjective`).  A row the
    search keeps is a hom rho with lam(rho(s)) = rhobar(pi(s)) on every
    generator s; lam o rho and rhobar o pi are then homs that agree on
    generators, hence equal, so the result needs no further check."""
    if not pi.is_surjective():
        raise NotSurjective(f"pi: {pi.domain.name} -> {pi.codomain.name} "
                            "is not onto")
    G = pi.domain
    required = rhobar.image[pi.image[G.generators]]
    cands = [c[ext.lam.image[c] == b]
             for c, b in zip(_order_candidates(G, ext.E), required)]
    P, img, _ = _search(G, ext.E, cands, None, budget)
    return GroupHom(G, ext.E, img[0]) if len(P) else None
