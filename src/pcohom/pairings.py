"""The bilinear-pairing toolkit and the A/B/C pairing tower, ending in the
kernel generating condition and the transfer cross-check.

Everything here lives in H^2-coordinate spaces: a class is a coordinate
vector over the basis of an H2Space, subspaces are row spans, and subspace
equality is double containment by linear solve.

The transfer check computes its two sides by disjoint code paths (pure
group/hom enumeration vs. cohomological linear algebra) that share only the
group core, so agreement is a genuine cross-oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf
from .cohomology import (H2Space, conj_invariant_h1, h2_space, pullback,
                         transgression)
from .core import (FiniteGroup, GroupHom, Subgroup, hom_from_generator_images,
                   intersect_subgroups, join_subgroups, memo,
                   power_commutator_subgroup, quotient_group,
                   subgroup_generated)
from .errors import NonCommutingSquare, TransgressionSolveFailed
from .homsearch import DEFAULT_BUDGET, enumerate_homs, lift_hom, t_bundle
from .unitriangular import OmegaFamily

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
        assert self.matrix.shape == (len(self.left_labels), len(self.right_labels))


def pairing_kernels(P: PairingMatrix) -> dict:
    m = P.matrix
    r = gf.rank(m, P.p)
    left_kernel = gf.nullspace(m.T, P.p)
    right_kernel = gf.nullspace(m, P.p)
    nl, nr = m.shape
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
    P1(a, beta b) = P2(alpha a, b) for all a, b."""
    p = P1.p
    alpha = np.asarray(alpha, dtype=np.int64) % p
    beta = np.asarray(beta, dtype=np.int64) % p
    if not np.array_equal((P1.matrix @ beta) % p, (alpha.T @ P2.matrix) % p):
        raise NonCommutingSquare("P1(a, beta b) != P2(alpha a, b)")
    a2 = P2.matrix.shape[0]
    span = gf.Span(a2, p)
    for col in alpha.T:
        span.add(col)
    reps = []
    for i in range(a2):
        e = np.zeros(a2, dtype=np.int64)
        e[i] = 1
        if span.add(e):
            reps.append(e)
    kb = gf.nullspace(beta, p)
    mat = np.zeros((len(reps), kb.shape[0]), dtype=np.int64)
    for i, r in enumerate(reps):
        for j, b in enumerate(kb):
            mat[i, j] = int(r @ P2.matrix @ b % p)
            # well-definedness: shifting the representative by an image
            # vector must not change the value
            shifted = (r + alpha @ np.ones(alpha.shape[1], dtype=np.int64)) % p
            assert int(shifted @ P2.matrix @ b % p) == mat[i, j]
    return PairingMatrix([f"coker{i}" for i in range(len(reps))],
                         [f"ker{j}" for j in range(kb.shape[0])], mat, p)


# ---------------------------------------------------------------------
# Quotient bookkeeping
# ---------------------------------------------------------------------

@memo
def cached_quotient(G: FiniteGroup, N: Subgroup):
    return quotient_group(G, N)


def induced_epi(pi1: GroupHom, pi2: GroupHom) -> GroupHom:
    """The epimorphism q: G/N1 -> G/N2 with q o pi1 = pi2 (N1 <= N2)."""
    q = GroupHom(pi1.codomain, pi2.codomain, pi2.image[pi1.section()])
    assert np.array_equal(q.image[pi1.image], pi2.image)
    return q


def inflation_matrix(space2: H2Space, space1: H2Space, q: GroupHom):
    """Matrix M of inf: H^2(Q2) -> H^2(Q1) along q: Q1 -> Q2, acting on
    coordinate row vectors as v -> v @ M."""
    rows = [space1.coords(pullback(b, q)) for b in space2.basis]
    if not rows:
        return np.zeros((0, space1.dim), dtype=np.int64)
    return np.stack(rows)


# ---------------------------------------------------------------------
# The A/B/C subspaces
# ---------------------------------------------------------------------

@dataclass
class SubspaceHandle:
    space: H2Space
    basis: np.ndarray              # rows of coordinate vectors
    provenance: list = field(default_factory=list)

    @property
    def dim(self):
        return self.basis.shape[0]

    def contains(self, v) -> bool:
        return gf.in_row_space(self.basis, v, self.space.p)

    def contains_all(self, other: "SubspaceHandle") -> bool:
        return all(self.contains(v) for v in other.basis)


def a_space(G: FiniteGroup, N1: Subgroup, N2: Subgroup, p: int) -> SubspaceHandle:
    """A_G(N1,N2) = Ker(inf: H^2(G/N2) -> H^2(G/N1))."""
    assert N1 <= N2 and N1.is_normal() and N2.is_normal()
    Q2, pi2 = cached_quotient(G, N2)
    Q1, pi1 = cached_quotient(G, N1)
    q = induced_epi(pi1, pi2)
    space2, space1 = h2_space(Q2, p), h2_space(Q1, p)
    M = inflation_matrix(space2, space1, q)
    basis = gf.nullspace(M.T, p) if space2.dim else np.zeros((0, 0), dtype=np.int64)
    return SubspaceHandle(space2, basis)


@dataclass
class LiftablePullbacks:
    """All distinct pullback classes along homs G/N -> Ubar_w, each decided
    liftable or not, plus the span of the liftable ones (= H^2(G/N)_pi)."""
    space: H2Space
    classes: list          # (coords, liftable, provenance, rep Cocycle2)
    span: SubspaceHandle
    stats: dict


@memo
def liftable_pullback_space(G: FiniteGroup, N: Subgroup, fam: OmegaFamily, *,
                            budget=DEFAULT_BUDGET) -> LiftablePullbacks:
    from .cohomology import classifying_cocycle, is_coboundary

    Q, pi = cached_quotient(G, N)
    p = fam.p
    space = h2_space(Q, p)
    seen: dict[bytes, list] = {}
    order = []
    n_homs = 0
    for ext in fam.extensions:
        alpha = classifying_cocycle(ext)
        hs = enumerate_homs(Q, ext.Gbar, budget=budget)
        n_homs += len(hs.homs)
        for rho in hs.homs:
            c = pullback(alpha, rho)
            v = space.coords(c)
            kb = v.tobytes()
            if kb not in seen:
                seen[kb] = [v, c, (ext.label, [int(rho.image[s]) for s in Q.generators])]
                order.append(kb)
    span = gf.Span(space.dim, p)
    classes = []
    provenance = []
    for kb in order:
        v, c, prov = seen[kb]
        inflated = c.values[np.ix_(pi.image, pi.image)]
        liftable = is_coboundary(G, inflated, p)
        classes.append((v, liftable, prov, c))
        if liftable and span.add(v):
            provenance.append(prov + (list(int(x) for x in v),))
            ext = next(e for e in fam.extensions if e.label == prov[0])
            rho = hom_from_generator_images(Q, ext.Gbar, prov[1])
            lifted = lift_hom(ext, pi, rho, budget=budget)
            assert (lifted is not None) == liftable, \
                "lift search disagrees with inflation vanishing"
    return LiftablePullbacks(
        space, classes, SubspaceHandle(space, span.basis(), provenance),
        {"homs": n_homs, "distinct_classes": len(order),
         "liftable_classes": sum(1 for c in classes if c[1])})


def b_space(G, N1: Subgroup, N2: Subgroup, fam: OmegaFamily, *,
            budget=DEFAULT_BUDGET) -> SubspaceHandle:
    """B_G(N1,N2): span of the pi2-liftable pullback classes that are
    individually killed by inflation to H^2(G/N1)."""
    lp = liftable_pullback_space(G, N2, fam, budget=budget)
    M = _inner_inflation_matrix(G, N1, N2, fam.p)
    span = gf.Span(lp.space.dim, fam.p)
    provenance = []
    for v, liftable, prov, _ in lp.classes:
        if liftable and not np.any((v @ M) % fam.p):
            if span.add(v):
                provenance.append(prov)
    return SubspaceHandle(lp.space, span.basis(), provenance)


def c_space(G, N1: Subgroup, N2: Subgroup, fam: OmegaFamily, *,
            budget=DEFAULT_BUDGET) -> SubspaceHandle:
    """C_G(N1,N2) = Ker(inf: H^2(G/N2)_{pi2} -> H^2(G/N1)_{pi1})."""
    lp = liftable_pullback_space(G, N2, fam, budget=budget)
    M = _inner_inflation_matrix(G, N1, N2, fam.p)
    S = lp.span.basis
    if S.shape[0] == 0:
        return SubspaceHandle(lp.space, S)
    X = gf.nullspace(((S @ M) % fam.p).T, fam.p)
    basis = (X @ S) % fam.p if X.shape[0] else np.zeros((0, lp.space.dim),
                                                        dtype=np.int64)
    return SubspaceHandle(lp.space, basis)


def _inner_inflation_matrix(G, N1, N2, p):
    Q2, pi2 = cached_quotient(G, N2)
    Q1, pi1 = cached_quotient(G, N1)
    q = induced_epi(pi1, pi2)
    return inflation_matrix(h2_space(Q2, p), h2_space(Q1, p), q)


def kernel_generating_condition(G, N1: Subgroup, N2: Subgroup,
                                fam: OmegaFamily, *, budget=DEFAULT_BUDGET):
    """B_G(N1,N2) = C_G(N1,N2)?  Returns (bool, witness, data)."""
    B = b_space(G, N1, N2, fam, budget=budget)
    C = c_space(G, N1, N2, fam, budget=budget)
    A = a_space(G, N1, N2, fam.p)
    assert C.contains_all(B), "B <= C must hold"
    assert A.contains_all(C), "C <= A must hold"
    holds = B.dim == C.dim
    witness = None
    if not holds:
        span = gf.Span(B.space.dim, fam.p)
        for v in B.basis:
            span.add(v)
        for v in C.basis:
            if not span.contains(v):
                witness = [int(x) for x in v]
                break
        assert witness is not None
    data = {"dim_A": A.dim, "dim_B": B.dim, "dim_C": C.dim}
    return holds, witness, data


# ---------------------------------------------------------------------
# The A / B / C pairings
# ---------------------------------------------------------------------

def _coset_basis(G: FiniteGroup, N: Subgroup, D: Subgroup, p: int):
    """Greedy BFS-ordered representatives of a basis of N/D (which must be
    elementary abelian of exponent p)."""
    assert D <= N
    reps = []
    current = D
    for s in N.members:
        if int(s) not in current:
            assert G.power(int(s), p) in current, "quotient not exponent p"
            reps.append(int(s))
            current = join_subgroups(G, [current,
                                         subgroup_generated(G, [int(s)])])
    assert current.order == N.order
    return reps


def _transgression_solver(G, N1, N2, p):
    """Machinery to express classes in A_G(N1,N2) as transgressions.

    Returns (pi1, solve) where solve(coords over H^2(G/N2)) yields the
    invariant character psi on N2/N1 (values over G/N1 ids) with
    trg(psi) = the class."""
    Q2, pi2 = cached_quotient(G, N2)
    Q1, pi1 = cached_quotient(G, N1)
    q = induced_epi(pi1, pi2)
    space2 = h2_space(Q2, p)
    N21 = pi1.push(N2)
    assert N21 == q.kernel()
    psis = conj_invariant_h1(Q1, N21, p)
    if psis:
        Tm = np.stack([space2.coords(transgression(q, ps)) for ps in psis])
    else:
        Tm = np.zeros((0, space2.dim), dtype=np.int64)

    def solve(v):
        x = gf.solve(Tm.T, np.asarray(v, dtype=np.int64), p)
        if x is None:
            raise TransgressionSolveFailed(
                "no transgression preimage: five-term exactness violated")
        vals = np.zeros(Q1.order, dtype=np.int64)
        for xi, ps in zip(x, psis):
            vals = (vals + int(xi) * ps.values) % p
        return vals

    return pi1, solve


def _transgression_pairing(pi1, solve, sigmas, basis, p) -> PairingMatrix:
    """<sigma, beta> = psi(sigma N1) where beta = trg(psi), for sigma in
    sigmas and beta over the rows of basis."""
    mat = np.zeros((len(sigmas), len(basis)), dtype=np.int64)
    at = pi1.image[np.asarray(sigmas, dtype=np.int64)]
    for j, v in enumerate(basis):
        mat[:, j] = solve(v)[at]
    return PairingMatrix(sigmas, [[int(x) for x in v] for v in basis], mat, p)


def a_pairing(G, N1: Subgroup, N2: Subgroup, p: int) -> PairingMatrix:
    """<sigma, beta>^A = psi(sigma N1) where beta = trg(psi)."""
    A = a_space(G, N1, N2, p)
    pi1, solve = _transgression_solver(G, N1, N2, p)
    D = join_subgroups(G, [N1, power_commutator_subgroup(G, N2, p)])
    return _transgression_pairing(pi1, solve, _coset_basis(G, N2, D, p),
                                  A.basis, p)


def c_pairing(G, N1: Subgroup, N2: Subgroup, fam: OmegaFamily, *,
              budget=DEFAULT_BUDGET) -> dict:
    """The B- and C-pairing matrices with rank flags."""
    p = fam.p
    B = b_space(G, N1, N2, fam, budget=budget)
    C = c_space(G, N1, N2, fam, budget=budget)
    pi1, solve = _transgression_solver(G, N1, N2, p)
    Q1 = pi1.codomain

    TQ1 = t_bundle(Q1, fam, budget=budget).T
    Lb = intersect_subgroups([N2, pi1.preimage(TQ1)])
    Pb = _transgression_pairing(pi1, solve, _coset_basis(G, N2, Lb, p),
                                B.basis, p)

    TG = t_bundle(G, fam, budget=budget).T
    Lc = intersect_subgroups([N2, join_subgroups(G, [N1, TG])])
    Pc = _transgression_pairing(pi1, solve, _coset_basis(G, N2, Lc, p),
                                C.basis, p)

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
    assert N <= bundle.Tbar, "N must sit inside Tbar(G)"
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
