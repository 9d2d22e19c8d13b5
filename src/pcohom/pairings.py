"""The bilinear-pairing toolkit and the A/B/C pairing tower, ending in the
kernel generating condition and the transfer cross-check.

Everything here lives in H^2-coordinate spaces: a class is a coordinate
vector over the basis of an H2Space, and a subspace is a plain array of
basis rows over F_p (`a_space`, `b_space`, `c_space`), each with
independent rows.  An inclusion X <= Y is one `gf.rank` of the stacked
bases (`_inside`; no solve, so no `gf.Span`), and subspace equality is
inclusion plus equal dimension.  Each pairing matrix is one batched
transgression solve and one product (`_transgression_pairing`), and the
induced coker x ker pairing one rref and one product.

Each pair N1 <= N2 of normal subgroups is built once by the memoized
``_pair`` (the quotient maps, H^2(G/N2) and the inflation matrix), and
each surjection's transgression is factored once by the memoized
``cohomology.transgression_span``; the A/B/C subspaces and pairings all
read these two.  One H^2 is built per pair, that of G/N2.

Every subspace of the tower is a kernel of an inflation, so the tower
asks of an inflated class only whether it vanishes, and one test answers
that: the coboundary residue (`cohomology.coboundary_residue`), linear
and zero exactly on the coboundaries, with one entry per kept relator of
Q1's BFS (its loop sums reduced against those of B^2).  The inflation
matrix R holds, per basis class of H^2(G/N2), the residue of its
inflation on Q1 = G/N1, a row of |kept| entries, and a class v inflates
to zero iff v R = 0.  Lemma: R = M rho(B1), where M is
the coordinate matrix of inf: H^2(G/N2) -> H^2(Q1), B1 the basis of
H^2(Q1) and rho the residue on Q1, as rho is linear and kills B^2.  rho
is injective on H^2(Q1), so rho(B1) has full row rank and v R = 0 iff
v M = 0.  `gf.nullspace` returns the canonical basis of a null subspace,
whose free columns depend only on that subspace, so A, B, C, the pairing
matrices and the witnesses are those M gives, and H^2(Q1) is never built.

Liftability is the kernel of an inflation too.  Lemma: for pi: G ->
G/N and a hom f: G/N -> Gbar, f lifts through the central extension E ->
Gbar along pi iff (f o pi)*alpha = inf(f*alpha) vanishes in H^2(G), alpha
the classifying cocycle of E, as a central extension pulled back to G
splits iff its class is 0.  So a pullback class v is liftable iff inf(v)
= 0 in H^2(G) iff v R = 0, for R the inflation matrix of the pair (1, N)
(G/1 is G relabelled), and `liftable_pullback_space` decides every class
by one product.  `inflation_matrix` gathers the inflated basis of
H^2(G/N2) from the basis tables, expanded from their verified generator
columns; no |G| x |G| table is built.

The transfer check computes its two sides by disjoint code paths (pure
group/hom enumeration vs. cohomological linear algebra) that share only the
group core, so agreement is a genuine cross-oracle.  Inside the tower,
the lift search cross-checks the inflation test, B <= C <= A is
checked on every kernel generating condition, and `a_pairing` checks
that the transgression's image has the dimension of A; a disagreement
raises `errors.OracleDisagreement`.  `liftability_crosscheck` decides
one hom's liftability by the lift search, the inflation and the
transgression, and reports their agreement; its inflation leg gathers
alpha along f o pi (`cohomology.pullback_columns`) and tests the columns
on G, independent of the pair's inflation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gf
from .cohomology import (Cocycle2, H2Space, _column_violations,
                         _expand_from_columns, _extension_alpha,
                         coboundary_mask, coboundary_residue, h2_space,
                         pullback, pullback_classes, pullback_columns,
                         pullback_coords, transgression_span)
from .core import (FiniteGroup, GroupHom, Subgroup, _elementary_abelian_mod,
                   _least_id_generators, intersect_subgroups, join_subgroups,
                   memo, power_commutator_subgroup, quotient_group)
from .errors import (EdgeCheckFailed, KernelMismatch, MixedParents,
                     NonCommutingSquare, NotElementaryAbelian,
                     OracleDisagreement, PairingShapeMismatch, SpecError,
                     SubgroupChainBroken, TransgressionSolveFailed)
from .homsearch import DEFAULT_BUDGET, enumerate_homs, lift_hom, t_bundle
from .unitriangular import CentralExtension, OmegaFamily

STANDIN_CAVEAT = ("theorems quantified over free profinite groups are "
                  "tested on finite nilpotent quotient stand-ins")


# ---------------------------------------------------------------------
# Generic pairing toolkit
# ---------------------------------------------------------------------

@dataclass
class PairingMatrix:
    left_labels: list
    right_labels: list
    matrix: np.ndarray
    p: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int64) % self.p
        shape = (len(self.left_labels), len(self.right_labels))
        if self.matrix.shape != shape:
            raise PairingShapeMismatch(f"matrix of shape {self.matrix.shape} "
                                       f"for {shape} labels")


def pairing_kernels(P: PairingMatrix) -> dict:
    """Rank, kernels and flags of P: two eliminations, as the rank is read
    off the right kernel (rank = columns - its dimension)."""
    m = P.matrix
    left_kernel = gf.nullspace(m.T, P.p)
    right_kernel = gf.nullspace(m, P.p)
    nl, nr = m.shape
    r = nr - right_kernel.shape[0]
    return {
        "rank": r,
        "left_kernel": left_kernel,
        "right_kernel": right_kernel,
        "left_surjective": r == nr,    # left side maps onto the dual of right
        "right_surjective": r == nl,
        "non_degenerate": left_kernel.shape[0] == 0 and right_kernel.shape[0] == 0,
        "perfect": nl == nr and r == nl,
    }


def induced_coker_ker(P1: PairingMatrix, P2: PairingMatrix,
                      alpha, beta) -> PairingMatrix:
    """Lemma-2.1 style induced pairing on Coker(alpha) x Ker(beta).

    alpha: matrix A1 -> A2, beta: matrix B2 -> B1 with
    P1(a, beta b) = P2(alpha a, b) for all a, b, which is checked.  The
    cokernel representatives are the unit vectors e_i of A2 outside the
    span of alpha's columns and the earlier e_j: the pivots >= k of one
    rref([alpha | I]), alpha with k columns.  The matrix is P2 at those
    rows against a basis of Ker(beta).

    Lemma: the value does not depend on the representative.  For b in
    Ker(beta) and every a, P2(alpha a, b) = P1(a, beta b) = P1(a, 0) = 0 by
    the checked square, so P2(r + alpha a, b) = P2(r, b)."""
    p = P1.p
    alpha = np.asarray(alpha, dtype=np.int64) % p
    beta = np.asarray(beta, dtype=np.int64) % p
    if not np.array_equal((P1.matrix @ beta) % p, (alpha.T @ P2.matrix) % p):
        raise NonCommutingSquare("P1(a, beta b) != P2(alpha a, b)")
    a2, k = alpha.shape
    pivots = gf.rref(np.concatenate([alpha, np.eye(a2, dtype=np.int64)],
                                    axis=1), p)[1]
    reps = [c - k for c in pivots if c >= k]
    kb = gf.nullspace(beta, p)
    mat = (P2.matrix[reps] @ kb.T) % p
    return PairingMatrix([f"coker{i}" for i in range(len(reps))],
                         [f"ker{j}" for j in range(kb.shape[0])], mat, p)


# ---------------------------------------------------------------------
# Quotient bookkeeping
# ---------------------------------------------------------------------

@memo
def cached_quotient(G: FiniteGroup, N: Subgroup):
    return quotient_group(G, N)


def induced_epi(pi1: GroupHom, pi2: GroupHom) -> GroupHom:
    """The epimorphism q: G/N1 -> G/N2 with q o pi1 = pi2 (N1 <= N2).  The
    square commutes iff N1 <= N2 (lemma at `errors.NonCommutingSquare`)."""
    q = GroupHom(pi1.codomain, pi2.codomain, pi2.image[pi1.section()])
    if not np.array_equal(q.image[pi1.image], pi2.image):
        raise NonCommutingSquare("q o pi1 != pi2: N1 is not inside N2")
    return q


def inflation_matrix(space2: H2Space, q: GroupHom):
    """The inflation matrix R along q: Q1 -> Q2 = space2.group: row i is
    the coboundary residue (`cohomology.coboundary_residue`, one entry per
    kept relator of Q1's BFS) of the inflation q*b_i of basis class i of
    H^2(Q2), so a class v inflates to zero iff v @ R = 0 (lemma in the
    module docstring).  The basis tables b of H^2(Q2) are expanded from
    their verified generator columns in one batched walk
    (`cohomology._expand_from_columns`), one gather takes the generator
    columns b(q(x), q(s)) of every q*b, and one `coboundary_residue`
    reduces them all.  Each q*b is a verified cocycle (the lemma at
    `cohomology.pullback_coords`); the rows are checked at the generators
    all the same (`cohomology._column_violations`), so a row outside Z^2,
    the residue's domain, raises `errors.EdgeCheckFailed`."""
    Q1, p = q.domain, space2.p
    if q.codomain.key != space2.group.key:
        raise MixedParents("q does not map onto the group of space2")
    B = _expand_from_columns(space2.group, space2.basis, p)
    x, gens = q.image, np.asarray(Q1.generators, dtype=np.intp)
    cols = B[:, x[:, None], x[None, gens]].reshape(len(B),
                                                    Q1.order * len(gens))
    if _column_violations(Q1, cols, p).any():
        raise EdgeCheckFailed("inflated basis row is not a cocycle")
    return coboundary_residue(Q1, cols, p)


class _Pair(NamedTuple):
    pi1: GroupHom            # G -> G/N1
    q: GroupHom              # G/N1 -> G/N2
    space: H2Space           # H^2(G/N2), the one H^2 of the pair
    inflation: np.ndarray    # R: v inflates to 0 on G/N1 iff v @ R = 0


@memo
def _pair(G: FiniteGroup, N1: Subgroup, N2: Subgroup, p: int) -> _Pair:
    """The quotient maps, H^2(G/N2) and the inflation matrix of normal
    N1 <= N2."""
    if not (N1 <= N2 and N1.is_normal() and N2.is_normal()):
        raise SpecError(f"N1 (order {N1.order}) must be a normal subgroup "
                        f"inside the normal subgroup N2 (order {N2.order})")
    Q2, pi2 = cached_quotient(G, N2)
    Q1, pi1 = cached_quotient(G, N1)
    q = induced_epi(pi1, pi2)
    if pi1.push(N2) != q.kernel():
        raise KernelMismatch("ker q != pi1(N2)")
    space = h2_space(Q2, p)
    return _Pair(pi1, q, space, inflation_matrix(space, q))


# ---------------------------------------------------------------------
# The A/B/C subspaces
# ---------------------------------------------------------------------

@memo
def a_space(G: FiniteGroup, N1: Subgroup, N2: Subgroup, p: int):
    """A_G(N1,N2) = Ker(inf: H^2(G/N2) -> H^2(G/N1)), as basis rows: the
    v with v @ R = 0 for the inflation matrix R.  Read-only, since the
    memo hands one array to every caller."""
    A = gf.nullspace(_pair(G, N1, N2, p).inflation.T, p)
    A.flags.writeable = False
    return A


@dataclass
class LiftablePullbacks:
    """All distinct pullback classes along homs G/N -> Ubar_w, each decided
    liftable or not, plus the span of the liftable ones (= H^2(G/N)_pi).

    Class i, in first-occurrence order over the extensions' hom sets, is
    stacked: coords[i] are its H^2(G/N) coordinates, liftable[i] its
    verdict, exts[i] its extension and images[i] the image row of the first
    hom G/N -> exts[i].Gbar that pulls it back, in the 16-bit ids of the
    hom sets it is read from (`core.ID_DTYPE`).  `rho(i)` and `cocycle(i)`
    build that hom (int32, as every GroupHom) and the pullback cocycle on
    request."""
    space: H2Space
    coords: np.ndarray          # (classes, dim H^2(G/N))
    liftable: np.ndarray        # bool, one per class
    exts: list                  # CentralExtension, one per class
    images: np.ndarray          # (classes, |G/N|) core.ID_DTYPE
    span: gf.Span               # the liftable classes
    stats: dict

    def rho(self, i) -> GroupHom:
        return GroupHom(self.space.group, self.exts[i].Gbar, self.images[i])

    def cocycle(self, i) -> Cocycle2:
        return pullback(_extension_alpha(self.exts[i]), self.rho(i))


@memo
def liftable_pullback_space(G: FiniteGroup, N: Subgroup, fam: OmegaFamily, *,
                            budget=DEFAULT_BUDGET) -> LiftablePullbacks:
    """The distinct pullback classes along every hom G/N -> Ubar_w
    (`cohomology.pullback_classes`), each decided liftable along pi: G ->
    G/N by the inflation matrix R of the pair (1, N).

    Lemma (proof in the module docstring): a hom f: G/N -> Gbar lifts
    through E -> Gbar along pi iff its class v = [f*alpha] has inf(v) = 0
    in H^2(G), iff v R = 0; so liftability depends on the class only.  The
    liftable rows are added to the span in one batch; each row that grows
    it is cross-checked by the lift search."""
    Q, pi = cached_quotient(G, N)       # first: a non-normal N is NotNormal
    p = fam.p
    pair = _pair(G, G.trivial_subgroup(), N, p)
    homs = [enumerate_homs(Q, ext.Gbar, budget=budget).images
            for ext in fam.extensions]
    coords, which, images = pullback_classes(pair.space, fam.extensions,
                                             homs)
    liftable = ~((coords @ pair.inflation) % p).any(axis=1)
    span = gf.Span(pair.space.dim, p)
    grew = np.flatnonzero(liftable)[span.add(coords[liftable])]
    lp = LiftablePullbacks(
        pair.space, coords, liftable, [fam.extensions[k] for k in which],
        images, span,
        {"homs": sum(len(R) for R in homs), "distinct_classes": len(coords),
         "liftable_classes": int(liftable.sum())})
    for i in grew:
        if lift_hom(lp.exts[i], pi, lp.rho(i), budget=budget) is None:
            raise OracleDisagreement(
                "lift search disagrees with inflation vanishing")
    return lp


def liftability_crosscheck(ext: CentralExtension, pi: GroupHom,
                           rhobar: GroupHom, *, budget=DEFAULT_BUDGET) -> dict:
    """Decide liftability of rhobar three ways and report whether they
    agree:

    (a) direct lift search;
    (c) the inflation of the pulled-back classifying class vanishes;
    (d) the pulled-back class has a transgression preimage in H^1(N)^G.

    (c) reads the generator columns of the inflation by one gather along
    rhobar o pi (`cohomology.pullback_columns`), with no |G| x |G| table,
    and tests them on G (`cohomology.coboundary_mask`), not through the
    inflation matrix that `liftable_pullback_space` reads; (d) reads the
    coordinates of the pullback by `cohomology.pullback_coords`.
    Returns each verdict, the coefficients of psi for (d), and status
    "PASS" when the three agree, "FAIL" otherwise; it raises nothing on a
    disagreement."""
    G, Q = pi.domain, pi.codomain
    if rhobar.domain.key != Q.key or rhobar.codomain.key != ext.Gbar.key:
        raise MixedParents("rhobar must map pi's codomain to ext.Gbar")
    p = ext.p
    lift = lift_hom(ext, pi, rhobar, budget=budget)
    a = lift is not None

    alpha = _extension_alpha(ext)
    R = rhobar.image[None, :]
    c = bool(coboundary_mask(
        G, pullback_columns(alpha, R[:, pi.image], G), p)[0])

    # (d): pulled class = trg(psi) for an invariant psi on N = ker(pi)
    _, trg = transgression_span(G, pi, p)
    sol = trg.solve(pullback_coords(alpha, R, h2_space(Q, p))[0])
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


def b_space(G, N1: Subgroup, N2: Subgroup, fam: OmegaFamily, *,
            budget=DEFAULT_BUDGET):
    """B_G(N1,N2): span of the pi2-liftable pullback classes that are
    individually killed by inflation to H^2(G/N1), as rref rows: one
    `gf.rref` of the killed classes.  The rref of a matrix is unique and
    has independent rows, so these are the rows of the killed classes'
    `gf.Span`, of shape (0, dim H^2(G/N2)) when none is killed."""
    M = _pair(G, N1, N2, fam.p).inflation
    lp = liftable_pullback_space(G, N2, fam, budget=budget)
    killed = lp.liftable & ~((lp.coords @ M) % fam.p).any(axis=1)
    return gf.rref(lp.coords[killed], fam.p)[0]


def c_space(G, N1: Subgroup, N2: Subgroup, fam: OmegaFamily, *,
            budget=DEFAULT_BUDGET):
    """C_G(N1,N2) = Ker(inf: H^2(G/N2)_{pi2} -> H^2(G/N1)_{pi1}), as
    basis rows."""
    M = _pair(G, N1, N2, fam.p).inflation
    S = liftable_pullback_space(G, N2, fam, budget=budget).span.rows
    X = gf.nullspace(((S @ M) % fam.p).T, fam.p)
    return (X @ S) % fam.p


def _inside(X, Y, p) -> bool:
    """rowspace(X) <= rowspace(Y), for basis rows Y.

    Lemma: if the rows of Y are independent, rowspace(X) <= rowspace(Y)
    iff rank([Y; X]) = len(Y).  The rank is at least rank(Y) = len(Y),
    and it is more iff some row of X lies outside rowspace(Y)."""
    return gf.rank(np.concatenate([Y, X]), p) == len(Y)


def kernel_generating_condition(G, N1: Subgroup, N2: Subgroup,
                                fam: OmegaFamily, *, budget=DEFAULT_BUDGET):
    """B_G(N1,N2) = C_G(N1,N2)?  Returns (bool, witness, data); the witness
    is the first basis row of C outside B.

    B <= C and C <= A are each one rank (`_inside`), which needs the rows
    of C and A independent.  They are: A is a nullspace basis, and C =
    X S with X a nullspace basis and S the rref rows of the liftable span,
    so S has full row rank and X S independent rows.  Given B <= C, B = C
    iff dim B = dim C, and only then is B's span factored, to find the
    witness."""
    p = fam.p
    B = b_space(G, N1, N2, fam, budget=budget)
    C = c_space(G, N1, N2, fam, budget=budget)
    A = a_space(G, N1, N2, p)
    if not _inside(B, C, p):
        raise OracleDisagreement("B <= C fails")
    if not _inside(C, A, p):
        raise OracleDisagreement("C <= A fails")
    holds = len(B) == len(C)
    witness = None
    if not holds:
        outside = gf.Span(A.shape[1], p, B).reduce(C).any(axis=1)
        witness = [int(x) for x in C[outside][0]]
    data = {"dim_A": len(A), "dim_B": len(B), "dim_C": len(C)}
    return holds, witness, data


# ---------------------------------------------------------------------
# The A / B / C pairings
# ---------------------------------------------------------------------

def _coset_basis(G: FiniteGroup, N: Subgroup, D: Subgroup, p: int):
    """Greedy BFS-ordered representatives of a basis of N/D, which must be
    elementary abelian of exponent p (D normal): the greedy generators of
    N seeded with those of D (`core._least_id_generators`), each the least
    member of N outside the subgroup generated by D and the earlier picks.
    The generator test (`core._elementary_abelian_mod`) checks N/D, and
    |N| = |D| p^k checks that the k picks are a basis of it."""
    if not D <= N:
        raise SubgroupChainBroken("D is not inside N")
    reps = _least_id_generators(G, N, D).tolist()
    if not _elementary_abelian_mod(G, reps, D, p):
        raise NotElementaryAbelian(f"N/D is not elementary abelian at p = {p}")
    if D.order * p ** len(reps) != N.order:
        raise NotElementaryAbelian(f"{len(reps)} picks are not a basis of "
                                   f"N/D, of order {N.order // D.order}")
    return reps


def _transgression_pairing(G, N1, N2, sigmas, basis, p) -> PairingMatrix:
    """<sigma, beta> = psi(sigma N1) where beta = trg(psi), for sigma in
    sigmas and beta over the rows of basis (classes in H^2(G/N2)); psi is
    the invariant character on N2/N1 with that transgression."""
    pair = _pair(G, N1, N2, p)
    psis, span = transgression_span(pair.q.domain, pair.q, p)
    X = span.solve(basis)
    if X is None:
        raise TransgressionSolveFailed(
            "no transgression preimage: five-term exactness violated")
    at = pair.pi1.image[np.asarray(sigmas, dtype=np.int64)]
    psi = np.array([ps.values[at] for ps in psis],
                   dtype=np.int64).reshape(len(psis), len(at))
    return PairingMatrix(sigmas, [[int(x) for x in v] for v in basis],
                         (X @ psi).T % p, p)


def a_pairing(G, N1: Subgroup, N2: Subgroup, p: int) -> PairingMatrix:
    """<sigma, beta>^A = psi(sigma N1) where beta = trg(psi).

    The solve in `_transgression_pairing` shows A <= trg(H^1(K)^{Q1}),
    K = ker(q: Q1 -> Q2); the dimension check makes it an equality.
    Lemma: by exactness of H^1(K)^{Q1} -> H^2(Q2) -> H^2(Q1) at H^2(Q2),
    the transgression's image is ker(inf) = A.  B and C are proper
    subspaces of it in general, so only A is checked."""
    A = a_space(G, N1, N2, p)
    D = join_subgroups(G, [N1, power_commutator_subgroup(G, N2, p)])
    P = _transgression_pairing(G, N1, N2, _coset_basis(G, N2, D, p), A, p)
    q = _pair(G, N1, N2, p).q
    if transgression_span(q.domain, q, p)[1].dim != len(A):
        raise OracleDisagreement(
            "dim trg(H^1(K)^Q1) != dim A: five-term exactness violated")
    return P


def c_pairing(G, N1: Subgroup, N2: Subgroup, fam: OmegaFamily, *,
              budget=DEFAULT_BUDGET) -> dict:
    """The B- and C-pairing matrices with rank flags."""
    p = fam.p
    B = b_space(G, N1, N2, fam, budget=budget)
    C = c_space(G, N1, N2, fam, budget=budget)
    pi1 = _pair(G, N1, N2, p).pi1

    TQ1 = t_bundle(pi1.codomain, fam, budget=budget).T
    Lb = intersect_subgroups([N2, pi1.preimage(TQ1)])
    Pb = _transgression_pairing(G, N1, N2, _coset_basis(G, N2, Lb, p),
                                B, p)

    TG = t_bundle(G, fam, budget=budget).T
    Lc = intersect_subgroups([N2, join_subgroups(G, [N1, TG])])
    Pc = _transgression_pairing(G, N1, N2, _coset_basis(G, N2, Lc, p),
                                C, p)

    return {
        "B": Pb, "B_flags": pairing_kernels(Pb),
        "C": Pc, "C_flags": pairing_kernels(Pc),
    }


# ---------------------------------------------------------------------
# Transfer theorem cross-check
# ---------------------------------------------------------------------

def transfer_check(G: FiniteGroup, N: Subgroup, fam: OmegaFamily, *,
                   budget=DEFAULT_BUDGET) -> dict:
    """Compute both sides of the transfer equivalence:

    (a) pi[T(G)] = T(G/N)        (pure enumeration)
    (b) kernel generating condition for (N1,N2) = (N, Tbar(G))

    The theorem asserts (a) <=> (b); disagreement is a FAIL."""
    bundle = t_bundle(G, fam, budget=budget)
    if not N <= bundle.Tbar:
        raise SpecError(f"N (order {N.order}) must lie inside Tbar(G) "
                        f"(order {bundle.Tbar.order})")
    Q, pi = cached_quotient(G, N)
    bundle_q = t_bundle(Q, fam, budget=budget)
    side_a = pi.push(bundle.T) == bundle_q.T

    side_b, witness, dims = kernel_generating_condition(
        G, N, bundle.Tbar, fam, budget=budget)

    return {
        "group": G.name or "anon",
        "group_key": G.key,
        "family": fam.label,
        "N_order": N.order,
        "T_order": bundle.T.order,
        "Tbar_order": bundle.Tbar.order,
        "side_a_transfer": bool(side_a),
        "side_b_kernel_condition": bool(side_b),
        "witness": witness,
        "dims": dims,
        "status": "PASS" if side_a == side_b else "FAIL",
        "caveat": STANDIN_CAVEAT,
    }
