"""Homomorphism enumeration, the T^U intersection subgroups, and lifting
through central extensions.

The search runs over generator images in BFS-word order, level by level:
a partial assignment of images to the first j generators forces the image
of every element whose BFS word uses only those generators, and the
assignment is kept only if those images pass the one generator-edge check
(`core._respects_generator_edges`), run on whole blocks of candidate
prefixes at once.

A hom set is an image matrix: `HomSet.images` has one row per hom and one
column per element id.  `t_subgroup` and the pullback-class searches read
the matrix directly; a `GroupHom` is built only when a caller asks for one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (FiniteGroup, GroupHom, Subgroup, _bfs, _element_orders,
                   _respects_generator_edges, _table_product,
                   intersect_subgroups, memo, word_images)
from .errors import BudgetExceeded
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


def _extend(P: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Every row of P followed by every entry of c, rows in order."""
    return np.concatenate([np.repeat(P, len(c), axis=0),
                           np.tile(c, P.shape[0]).reshape(-1, 1)], axis=1)


def _filter_prefixes(G: FiniteGroup, U: FiniteGroup, P: np.ndarray, j: int):
    """Keep the prefixes (rows of P, shape m x j) that define a consistent
    partial homomorphism on the subgroup generated by the first j generators.
    Returns (surviving P, their image matrices over that subgroup)."""
    _, pred, tgt = _partial_bfs(G, j)
    mul = _table_product(U)
    keep_P = []
    keep_img = []
    for lo in range(0, P.shape[0], _CHUNK):
        C = P[lo:lo + _CHUNK]
        img = word_images(pred, U, C)
        ok = _respects_generator_edges(tgt, img, mul)
        keep_P.append(C[ok])
        keep_img.append(img[ok])
    return np.concatenate(keep_P), np.concatenate(keep_img)


@memo
def enumerate_homs(G: FiniteGroup, U: FiniteGroup, *,
                   budget=DEFAULT_BUDGET) -> HomSet:
    """All homomorphisms G -> U, in deterministic candidate order."""
    ngens = len(G.generators)
    if ngens == 0:
        return HomSet(G, U, np.zeros((1, G.order), dtype=np.int32))

    # candidate images per generator: the image order must divide the
    # generator's order
    u_orders = _element_orders(U)
    cands = [np.nonzero(o % u_orders == 0)[0].astype(np.int32)
             for o in _element_orders(G)[G.generators]]

    explored = 0
    P = np.zeros((1, 0), dtype=np.int32)
    img = None
    for j in range(1, ngens + 1):
        c = cands[j - 1]
        explored += P.shape[0] * len(c)
        if explored > budget:
            raise BudgetExceeded(f"hom search budget exceeded ({explored})",
                                 explored=explored)
        P, img = _filter_prefixes(G, U, _extend(P, c), j)

    # img columns follow the full-BFS element order, which is the id order.
    # The last level passed the generator-edge check on all of G, so each
    # row is a hom by the lemma of core._respects_generator_edges.
    return HomSet(G, U, img, explored_prefixes=explored)


@memo
def t_subgroup(G: FiniteGroup, U: FiniteGroup, *,
               budget=DEFAULT_BUDGET) -> Subgroup:
    """T^U(G): the intersection of the kernels of all homomorphisms G -> U."""
    hs = enumerate_homs(G, U, budget=budget)
    mask = (hs.images == 0).all(axis=0)
    return Subgroup(G, np.nonzero(mask)[0].astype(np.int32), check=False)


@dataclass
class TBundle:
    family: OmegaFamily
    T: Subgroup
    Tbar: Subgroup


@memo
def t_bundle(G: FiniteGroup, fam: OmegaFamily, *,
             budget=DEFAULT_BUDGET) -> TBundle:
    ku = [t_subgroup(G, ext.E, budget=budget) for ext in fam.extensions]
    kb = [t_subgroup(G, ext.Gbar, budget=budget) for ext in fam.extensions]
    T = intersect_subgroups(ku)
    Tbar = intersect_subgroups(kb)
    assert T <= Tbar, "T(G) <= Tbar(G) must hold (gamma-hom mechanism)"
    assert T.is_normal() and Tbar.is_normal()
    return TBundle(fam, T, Tbar)


def lift_hom(ext: CentralExtension, pi: GroupHom, rhobar: GroupHom, *,
             budget=DEFAULT_BUDGET):
    """A homomorphism rho: G -> E with lambda o rho = rhobar o pi, or None.

    Searches the |Z| preimage choices per generator of G."""
    assert pi.is_surjective()
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
    rho = GroupHom(G, ext.E, imgs[0])
    assert np.array_equal(ext.lam.image[rho.image], required)
    return rho


def liftability_crosscheck(ext: CentralExtension, pi: GroupHom,
                           rhobar: GroupHom, *, budget=DEFAULT_BUDGET) -> dict:
    """Decide liftability of rhobar three ways and assert agreement:

    (a) direct lift search;
    (c) the inflation of the pulled-back classifying class vanishes;
    (d) the pulled-back class has a transgression preimage in H^1(N)^G.
    """
    from . import cohomology as coh

    G, Q = pi.domain, pi.codomain
    p = ext.p
    lift = lift_hom(ext, pi, rhobar, budget=budget)
    a = lift is not None

    alpha = coh.classifying_cocycle(ext)
    pulled = coh.pullback(alpha, rhobar)
    inflated = pulled.values[np.ix_(pi.image, pi.image)]
    c = coh.is_coboundary(G, inflated, p)

    # (d): pulled class = trg(psi) for an invariant psi on N = ker(pi)
    _, trg = coh.transgression_span(G, pi, p)
    sol = trg.solve(coh.h2_space(Q, p).coords(pulled))
    d = sol is not None
    psi_coeffs = None if sol is None else [int(x) for x in sol]

    status = "PASS" if (a == c == d) else "FAIL"
    return {
        "lift_exists": a,
        "inflation_vanishes": c,
        "transgression_preimage_exists": d,
        "psi_coefficients": psi_coeffs,
        "status": status,
    }
