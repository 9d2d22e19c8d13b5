import copy
import dataclasses
import sys
import weakref

import numpy as np
import pytest

import pcohom as pc
from pcohom import cohomology, core, gf, pairings
from pcohom.catalog import (CATALOG_SEED, _subgroup_choices,
                            applicable_families, catalog_instances,
                            transfer_sweep)
from pcohom.core import DEFAULT_CAP, ID_DTYPE
from pcohom.errors import (KernelMismatch, NonCommutingSquare,
                           NotElementaryAbelian, OracleDisagreement,
                           PairingShapeMismatch, SubgroupChainBroken)
from pcohom.magnus import evaluation_epi
from pcohom.pairings import (PairingMatrix, a_pairing, a_space, b_space,
                             c_pairing, c_space, cached_quotient,
                             induced_coker_ker, induced_epi,
                             kernel_generating_condition,
                             liftability_crosscheck, liftable_pullback_space,
                             pairing_kernels, transfer_check)
from concrete_elements import unitriangular_matrices
from cocycle_tables import (classifying_table, generator_columns,
                            matches_table, pullback_table)


def trivial(G):
    return pc.subgroup_generated(G, [])


def span_of(X, p):
    """The span of the basis rows X of an A/B/C subspace."""
    return pc.gf.Span(X.shape[1], p, X)


# ---------------------------------------------------------------------
# generic pairing toolkit
# ---------------------------------------------------------------------

def test_pairing_kernels_fixed_matrices():
    P = PairingMatrix(["a", "b"], ["x", "y"], np.eye(2, dtype=np.int64), 3)
    flags = pairing_kernels(P)
    assert flags["perfect"] and flags["non_degenerate"] and flags["rank"] == 2

    P = PairingMatrix(["a", "b"], ["x", "y"],
                      np.zeros((2, 2), dtype=np.int64), 3)
    flags = pairing_kernels(P)
    assert not flags["perfect"]
    assert flags["left_kernel"].shape[0] == 2

    # rank drops mod p: [[1,2],[2,4]] is singular mod 3 and mod 5
    P = PairingMatrix(["a", "b"], ["x", "y"], [[1, 2], [2, 4]], 5)
    flags = pairing_kernels(P)
    assert flags["rank"] == 1 and not flags["non_degenerate"]

    # rectangular: 1x2 of rank 1 is left-surjective-onto-dual but not perfect
    P = PairingMatrix(["a"], ["x", "y"], [[1, 0]], 2)
    flags = pairing_kernels(P)
    assert flags["right_surjective"] and not flags["left_surjective"]
    assert not flags["perfect"]


def test_induced_coker_ker_oracle():
    # P2 = identity on 2x2, alpha embeds the first coordinate,
    # beta projects onto it; the induced pairing on coker x ker is the
    # perfect 1x1 pairing on the second coordinates
    p = 2
    P2 = PairingMatrix(["a1", "a2"], ["b1", "b2"], np.eye(2, dtype=np.int64), p)
    alpha = np.array([[1], [0]], dtype=np.int64)     # A1 -> A2
    beta = np.array([[1, 0]], dtype=np.int64)        # B2 -> B1
    P1 = PairingMatrix(["a"], ["b"], [[1]], p)
    ind = induced_coker_ker(P1, P2, alpha, beta)
    flags = pairing_kernels(ind)
    assert ind.matrix.shape == (1, 1) and flags["perfect"]


def test_induced_coker_ker_rejects_bad_square():
    p = 2
    P2 = PairingMatrix(["a1", "a2"], ["b1", "b2"], np.eye(2, dtype=np.int64), p)
    alpha = np.array([[1], [0]], dtype=np.int64)
    beta = np.array([[0, 1]], dtype=np.int64)        # incompatible
    P1 = PairingMatrix(["a"], ["b"], [[1]], p)
    with pytest.raises(NonCommutingSquare):
        induced_coker_ker(P1, P2, alpha, beta)


def loop_induced_coker_ker(P1, P2, alpha, beta):
    """Reference: induced_coker_ker before the one rref.  The cokernel
    representatives are the unit vectors that grow a Span over alpha's
    columns, added one at a time, and each entry is one product, checked
    against a representative shifted by an image vector."""
    p = P1.p
    alpha = np.asarray(alpha, dtype=np.int64) % p
    beta = np.asarray(beta, dtype=np.int64) % p
    assert np.array_equal((P1.matrix @ beta) % p, (alpha.T @ P2.matrix) % p)
    a2 = P2.matrix.shape[0]
    span = pc.gf.Span(a2, p)
    for col in alpha.T:
        span.add(col)
    reps = []
    for i in range(a2):
        e = np.zeros(a2, dtype=np.int64)
        e[i] = 1
        if span.add(e):
            reps.append(e)
    kb = pc.gf.nullspace(beta, p)
    mat = np.zeros((len(reps), kb.shape[0]), dtype=np.int64)
    for i, r in enumerate(reps):
        for j, b in enumerate(kb):
            mat[i, j] = int(r @ P2.matrix @ b % p)
            shifted = (r + alpha @ np.ones(alpha.shape[1], dtype=np.int64)) % p
            assert int(shifted @ P2.matrix @ b % p) == mat[i, j]
    return PairingMatrix([f"coker{i}" for i in range(len(reps))],
                         [f"ker{j}" for j in range(kb.shape[0])], mat, p)


def random_square(rng, p, a1, a2, b1, b2, ra, rb):
    """(P1, P2, alpha, beta) with P1 @ beta = alpha.T @ P2, alpha: A1 -> A2
    of rank <= ra and beta: B2 -> B1 of rank <= rb.  P2 = Z beta + K R with
    alpha.T K = 0, so P1 = alpha.T Z closes the square, and K R makes P2
    nonzero on Ker(beta)."""
    def rand(m, n):
        return rng.integers(0, p, size=(m, n))

    alpha = (rand(a2, ra) @ rand(ra, a1)) % p
    beta = (rand(b1, rb) @ rand(rb, b2)) % p
    Z = rand(a2, b1)
    K = pc.gf.nullspace(alpha.T, p).T
    P2 = (Z @ beta + K @ rand(K.shape[1], b2)) % p
    P1 = (alpha.T @ Z) % p
    return (PairingMatrix(list(range(a1)), list(range(b1)), P1, p),
            PairingMatrix(list(range(a2)), list(range(b2)), P2, p),
            alpha, beta)


def test_induced_coker_ker_matches_loop_reference():
    """Random squares where alpha has rank below a2, so the cokernel is
    nonzero, and Ker(beta) has dimension at least 2; alpha's columns may
    be dependent."""
    rng = np.random.default_rng(20261018)
    nonzero = 0
    for _ in range(60):
        p = int(rng.choice([2, 3, 5]))
        a1, b1 = (int(x) for x in rng.integers(1, 4, size=2))
        a2, b2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        ra = int(rng.integers(0, min(a1, a2 - 1) + 1))
        rb = int(rng.integers(0, min(b1, b2 - 2) + 1))
        P1, P2, alpha, beta = random_square(rng, p, a1, a2, b1, b2, ra, rb)
        assert pc.gf.rank(alpha, p) < a2
        assert pc.gf.nullspace(beta, p).shape[0] >= 2
        got = induced_coker_ker(P1, P2, alpha, beta)
        want = loop_induced_coker_ker(P1, P2, alpha, beta)
        assert got.left_labels == want.left_labels
        assert got.right_labels == want.right_labels
        assert got.matrix.dtype == want.matrix.dtype
        assert np.array_equal(got.matrix, want.matrix)
        nonzero += int(got.matrix.any())
    assert nonzero > 30


def test_induced_epi_and_cached_quotient():
    G = pc.builtin_group("D4")
    N1 = pc.center(G)
    N2 = pc.normal_closure(G, [G.generators[0]])
    if not N1 <= N2:
        N2 = pc.normal_closure(G, [G.generators[1]])
    assert N1 <= N2 and N2.order == 4
    Q1, pi1 = cached_quotient(G, N1)
    # caching returns the identical objects
    assert cached_quotient(G, N1)[0] is Q1
    q = induced_epi(pi1, cached_quotient(G, N2)[1])
    q.validate()
    assert q.is_surjective()
    assert q.kernel().order == N2.order // N1.order


# ---------------------------------------------------------------------
# A / B / C subspaces
# ---------------------------------------------------------------------

INSTANCES = [
    ("Q8", "zassenhaus", 2, 2),
    ("D4", "zassenhaus", 2, 2),
    ("Heis:3", "zassenhaus", 2, 3),
    ("Mp3:3", "mixed", None, 3),
    ("U:2:4", "zassenhaus", 2, 2),
    ("Meta:3", "lower-central", 2, 3),
]


def _setup(nm, kind, n, p):
    G = pc.builtin_group(nm)
    fam = pc.omega_family(kind, n, p)
    bundle = pc.t_bundle(G, fam)
    return G, fam, bundle


def test_subspace_tower_b_in_c_in_a():
    for nm, kind, n, p in INSTANCES:
        G, fam, bundle = _setup(nm, kind, n, p)
        N1, N2 = trivial(G), bundle.Tbar
        A = a_space(G, N1, N2, p)
        B = b_space(G, N1, N2, fam)
        C = c_space(G, N1, N2, fam)
        assert span_of(C, p).contains(B), nm
        assert span_of(A, p).contains(C), nm
        assert len(B) <= len(C) <= len(A)


def test_a_space_vanishes_for_equal_subgroups():
    G = pc.builtin_group("Q8")
    N = pc.center(G)
    assert len(a_space(G, N, N, 2)) == 0


def test_liftable_pullback_space_structure():
    for nm, kind, n, p in [("Q8", "zassenhaus", 2, 2),
                           ("Heis:3", "mixed", None, 3)]:
        G, fam, bundle = _setup(nm, kind, n, p)
        lp = liftable_pullback_space(G, bundle.Tbar, fam)
        assert lp.stats["distinct_classes"] == len(lp.coords) == \
            len(lp.liftable) == len(lp.exts) == len(lp.images)
        assert lp.stats["liftable_classes"] >= 1    # the zero class lifts
        for i, (v, liftable) in enumerate(zip(lp.coords, lp.liftable)):
            assert np.array_equal(lp.space.coords(lp.cocycle(i)), v)
            if liftable:
                assert lp.span.contains(v)
        # the zero class is present and liftable
        zero = [i for i, v in enumerate(lp.coords) if not v.any()]
        assert zero and lp.liftable[zero[0]]


# ---------------------------------------------------------------------
# pairings are perfect at m = p
# ---------------------------------------------------------------------

def test_a_pairing_perfect():
    for nm, kind, n, p in INSTANCES:
        G, fam, bundle = _setup(nm, kind, n, p)
        P = a_pairing(G, trivial(G), bundle.Tbar, p)
        flags = pairing_kernels(P)
        assert flags["perfect"], (nm, P.matrix)


def test_b_and_c_pairings_perfect():
    for nm, kind, n, p in INSTANCES:
        G, fam, bundle = _setup(nm, kind, n, p)
        out = c_pairing(G, trivial(G), bundle.Tbar, fam)
        assert out["B_flags"]["perfect"], nm
        assert out["C_flags"]["perfect"], nm


def test_pairings_perfect_with_intermediate_n1():
    # also exercise a nontrivial N1 strictly between 1 and Tbar
    G = pc.builtin_group("U:2:4")
    fam = pc.omega_family("zassenhaus", 2, 2)
    bundle = pc.t_bundle(G, fam)
    # pick a normal subgroup of Tbar: the subgroup generated by squares of Tbar
    N1 = pc.power_commutator_subgroup(G, bundle.Tbar, 2)
    if N1.order == 1 or N1 == bundle.Tbar:
        N1 = pc.normal_closure(G, [int(bundle.Tbar.members[1])])
    assert N1 <= bundle.Tbar
    P = a_pairing(G, N1, bundle.Tbar, 2)
    assert pairing_kernels(P)["perfect"]
    out = c_pairing(G, N1, bundle.Tbar, fam)
    assert out["B_flags"]["perfect"] and out["C_flags"]["perfect"]


# ---------------------------------------------------------------------
# coset bases: the seeded greedy generators against the join loop
# ---------------------------------------------------------------------

def join_loop_coset_basis(G, N, D, p):
    """Reference: _coset_basis before the seeded greedy loop.  Walk N's
    members in id order and join the cyclic subgroup of each member not
    yet reached."""
    reps, current = [], D
    for s in N.members:
        if int(s) not in current:
            assert G.power(int(s), p) in current
            reps.append(int(s))
            current = pc.join_subgroups(
                G, [current, pc.subgroup_generated(G, [int(s)])])
    assert current == N
    return reps


def test_coset_basis_matches_join_loop(monkeypatch):
    """The same picks as the join loop: on every call the A/B/C pairings
    make for INSTANCES (N1 trivial and N1 = T), and on every catalog group
    for N a term of its lower p-central or Zassenhaus chain over
    D = N^p[G, N] joined with each later term."""
    calls = []

    def spy(G, N, D, p):
        reps = pairings_coset_basis(G, N, D, p)
        calls.append((G, N, D, p, reps))
        return reps

    pairings_coset_basis = pairings._coset_basis
    monkeypatch.setattr(pairings, "_coset_basis", spy)
    for nm, kind, n, p in INSTANCES:
        G, fam, bundle = _setup(nm, kind, n, p)
        for N1 in (trivial(G), bundle.T):
            if N1 <= bundle.Tbar:
                a_pairing(G, N1, bundle.Tbar, p)
                c_pairing(G, N1, bundle.Tbar, fam)
    monkeypatch.undo()
    assert len(calls) == 36
    for name, G, p in catalog_instances():
        for chain in (pc.lower_p_central(G, p, 4), pc.zassenhaus(G, p, 4)):
            for i, N in enumerate(chain.terms):
                F = pc.power_commutator_subgroup(G, N, p)
                for L in chain.terms[i + 1:] + [F]:
                    D = pc.join_subgroups(G, [L, F])
                    calls.append((G, N, D, p,
                                  pairings._coset_basis(G, N, D, p)))
    for G, N, D, p, reps in calls:
        assert reps == join_loop_coset_basis(G, N, D, p), (G, N.order, p)


def test_coset_basis_raises_typed_errors():
    Z4 = pc.builtin_group("Z/4")
    with pytest.raises(SubgroupChainBroken):
        pairings._coset_basis(Z4, trivial(Z4), Z4.whole(), 2)
    with pytest.raises(NotElementaryAbelian, match="not elementary"):
        pairings._coset_basis(Z4, Z4.whole(), trivial(Z4), 2)
    # a non-normal D in S3 = <(0 1), (1 2)>: the one pick (0 1) beyond
    # D = <(1 2)> passes the generator test, but <D, (0 1)> is all of S3,
    # of order 6, not 2 * 2
    S3 = pc.group_from_json({"kind": "permutation", "degree": 3,
                             "generators": [[1, 0, 2], [0, 2, 1]]})
    D = pc.subgroup_generated(S3, [S3.generators[1]])
    assert not D.is_normal()
    with pytest.raises(NotElementaryAbelian, match="not a basis"):
        pairings._coset_basis(S3, S3.whole(), D, 2)


# ---------------------------------------------------------------------
# injectivity criterion: restricted inflation is injective exactly when
# N1 T(G) = N2 T(G)
# ---------------------------------------------------------------------

def test_inflation_injectivity_criterion():
    for nm, kind, n, p in INSTANCES:
        G, fam, bundle = _setup(nm, kind, n, p)
        for N1 in [trivial(G), bundle.T, bundle.Tbar]:
            N2 = bundle.Tbar
            if not N1 <= N2:
                continue
            C = c_space(G, N1, N2, fam)
            lhs = pc.join_subgroups(G, [N1, bundle.T])
            rhs = pc.join_subgroups(G, [N2, bundle.T])
            assert (len(C) == 0) == (lhs == rhs), (nm, N1.order)


# ---------------------------------------------------------------------
# transfer cross-check
# ---------------------------------------------------------------------

def test_kernel_generating_condition_reports():
    G, fam, bundle = _setup("Q8", "zassenhaus", 2, 2)
    holds, witness, dims = kernel_generating_condition(
        G, trivial(G), bundle.Tbar, fam)
    assert holds and witness is None
    assert dims == {"dim_A": 1, "dim_B": 0, "dim_C": 0}


def test_transfer_check_q8():
    G, fam, bundle = _setup("Q8", "zassenhaus", 2, 2)
    rep = transfer_check(G, trivial(G), fam)
    assert rep["status"] == "PASS"
    assert rep["side_a_transfer"] and rep["side_b_kernel_condition"]
    rep = transfer_check(G, bundle.Tbar, fam)
    assert rep["status"] == "PASS"
    assert {"group_key", "family", "dims", "caveat"} <= set(rep)


def test_transfer_check_all_instances():
    for nm, kind, n, p in INSTANCES:
        G, fam, bundle = _setup(nm, kind, n, p)
        rep = transfer_check(G, bundle.Tbar, fam)
        assert rep["status"] == "PASS", nm


@pytest.mark.parametrize("nm", ["Z/4xZ/4xZ/4xZ/4", "U:3:2xZ/4"])
def test_transfer_check_above_the_h2_cap(nm):
    """The tower builds H^2 of G/Tbar only, so H2_ORDER_CAP binds G/Tbar,
    not G: groups of order 256 are checked with N trivial and N = Tbar."""
    G = pc.builtin_group(nm)
    assert G.order > cohomology.H2_ORDER_CAP
    for kind in ("zassenhaus", "lower-central"):
        fam = pc.omega_family(kind, 2, 2)
        tbar = pc.t_bundle(G, fam).Tbar
        assert G.order // tbar.order <= cohomology.H2_ORDER_CAP
        for N in (trivial(G), tbar):
            assert transfer_check(G, N, fam)["status"] == "PASS", (kind,
                                                                   N.order)


# ---------------------------------------------------------------------
# pinned outputs of the class solves (witnesses and pairing matrices)
# ---------------------------------------------------------------------

def test_counterexample_witness_pinned():
    # the order-32 Zassenhaus stand-in over the kernel of its map onto Q8
    Q = pc.free_nilpotent_standin(2, 2, "zassenhaus", 2)
    N = evaluation_epi(Q, pc.builtin_group("Q8")).kernel()
    fam = pc.omega_family("zassenhaus", 2, 2)
    holds, witness, dims = kernel_generating_condition(
        Q, N, pc.t_bundle(Q, fam).Tbar, fam)
    assert not holds
    assert witness == [0, 1, 1]
    assert dims == {"dim_A": 1, "dim_B": 0, "dim_C": 1}


def test_heis3_mixed_pairings_pinned():
    G, fam, bundle = _setup("Heis:3", "mixed", None, 3)
    pa = a_pairing(G, trivial(G), bundle.Tbar, 3)
    cp = c_pairing(G, trivial(G), bundle.Tbar, fam)
    assert pa.matrix.tolist() == [[1]]
    assert pa.right_labels == [[0, 1, 0]]
    assert cp["B"].matrix.shape == cp["C"].matrix.shape == (0, 0)


# recorded before _pair and transgression_span replaced the per-space
# inflation matrices and the per-pairing transgression solvers
@pytest.mark.parametrize("nm, kind, n, p, sigmas, a, a_labels, bc, bc_labels", [
    ("Meta:3", "mixed", None, 3, [7, 14],
     [[2, 0], [2, 2]], [[2, 1, 0], [0, 0, 1]],
     [[1, 0], [1, 2]], [[1, 2, 0], [0, 0, 1]]),
    ("U:2:4", "zassenhaus", 2, 2, [3, 6, 19],
     [[1, 0, 1], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
     [[1, 0, 1], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
], ids=["Meta:3-mixed", "U:2:4-zassenhaus"])
def test_pairing_matrices_pinned(nm, kind, n, p, sigmas, a, a_labels, bc,
                                 bc_labels):
    G, fam, bundle = _setup(nm, kind, n, p)
    pa = a_pairing(G, trivial(G), bundle.Tbar, p)
    cp = c_pairing(G, trivial(G), bundle.Tbar, fam)
    assert (pa.left_labels, pa.right_labels, pa.matrix.tolist()) == \
        (sigmas, a_labels, a)
    for P in (cp["B"], cp["C"]):
        assert (P.left_labels, P.right_labels, P.matrix.tolist()) == \
            (sigmas, bc_labels, bc)


# ---------------------------------------------------------------------
# each pair and each surjection is built once
# ---------------------------------------------------------------------

def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_inflation_matrix_built_once_per_pair(monkeypatch):
    """One inflation matrix per pair, and one H^2 per pair: every h2_space
    call of the run, from pairings or from cohomology, is on G/Tbar, and
    none on G/N1."""
    calls = _count_calls(monkeypatch, pairings, "inflation_matrix")
    h2_calls = (_count_calls(monkeypatch, pairings, "h2_space"),
                _count_calls(monkeypatch, cohomology, "h2_space"))
    # a cold cache: a live D4 of an earlier test shares its warm one
    G = dataclasses.replace(pc.builtin_group("D4"), _cache={})
    fam = pc.omega_family("zassenhaus", 2, 2)
    bundle = pc.t_bundle(G, fam)
    transfer_check(G, trivial(G), fam)
    a_pairing(G, trivial(G), bundle.Tbar, 2)
    c_pairing(G, trivial(G), bundle.Tbar, fam)
    assert len(calls) == 1
    Q2 = cached_quotient(G, bundle.Tbar)[0]
    assert Q2.order < G.order
    groups = [args[0] for c in h2_calls for args in c]
    assert groups and all(Q.key == Q2.key for Q in groups)


def test_transgression_span_built_once_per_surjection(monkeypatch):
    calls = _count_calls(monkeypatch, cohomology, "conj_invariant_h1")
    # a cold cache: a live Meta:3 of an earlier test shares its warm one
    G = dataclasses.replace(pc.builtin_group("Meta:3"), _cache={})
    fam = pc.omega_family("mixed", None, 3)
    Q, pi = cached_quotient(G, pc.t_bundle(G, fam).Tbar)
    n_homs = 0
    for ext in fam.extensions:
        for rho in pc.enumerate_homs(Q, ext.Gbar).homs:
            assert liftability_crosscheck(ext, pi, rho)["status"] == "PASS"
            n_homs += 1
    assert n_homs > 1 and len(calls) == 1


def test_alpha_built_once_per_extension(monkeypatch):
    """liftability_crosscheck and massey_pullback_set read each
    extension's alpha from `cohomology._extension_alpha`: over every hom
    of a Meta:3 quotient, and over repeated Massey sets of a zassenhaus
    family, one classifying_cocycle and one whole-table expansion
    (`Cocycle2.table`) per extension.  A copy of an extension given
    another section gets an alpha of its own, and the first keeps its
    alpha."""
    built = _count_calls(monkeypatch, cohomology, "classifying_cocycle")
    expanded = _count_calls(monkeypatch, cohomology, "_expand_from_columns")
    G = dataclasses.replace(pc.builtin_group("Meta:3"), _cache={})
    fam = pc.omega_family("mixed", None, 3)
    Q, pi = cached_quotient(G, pc.t_bundle(G, fam).Tbar)
    exts = [dataclasses.replace(ext) for ext in fam.extensions]  # no alpha
    n_homs = 0
    for ext in exts:
        for rho in pc.enumerate_homs(Q, ext.Gbar).homs:
            assert liftability_crosscheck(ext, pi, rho)["status"] == "PASS"
            n_homs += 1
    assert n_homs > len(exts) == len(built)
    assert sum(len(args) == 3 for args in expanded) == len(exts)

    built.clear()
    expanded.clear()
    zfam = pc.omega_family("zassenhaus", 3, 2)
    zfam = dataclasses.replace(zfam, extensions=[
        dataclasses.replace(ext) for ext in zfam.extensions])   # no alpha
    V = pc.builtin_group("Z/4xZ/2")
    x = cohomology.h1(V, 2)[0]
    sets = [cohomology.massey_pullback_set(V, 3, [x, x, x], zfam)
            for _ in range(3)]
    assert sets[0] and len(built) == 1
    assert sum(len(args) == 3 for args in expanded) == 1

    ext = exts[0]
    alpha = cohomology._extension_alpha(ext)
    shifted = copy.copy(ext)
    shifted.section = ext.section.copy()
    shifted.section[1:] = ext.E.mult[ext.section[1:], ext.iota.image[1]]
    other = cohomology._extension_alpha(shifted)
    assert np.array_equal(
        other.columns, cohomology.classifying_cocycle(shifted).columns)
    assert not np.array_equal(other.columns, alpha.columns)
    assert cohomology._extension_alpha(ext) is alpha


# ---------------------------------------------------------------------
# batched pullback classes against the per-hom loop
# ---------------------------------------------------------------------

def loop_liftable_pullbacks(G, N, fam):
    """(classes, stats) of liftable_pullback_space by the table path: one
    pullback table (`cocycle_tables`) and one coordinate solve per hom,
    classes in first-occurrence order, each decided liftable by the
    coboundary test of its inflated table's generator columns."""
    Q, pi = cached_quotient(G, N)
    p = fam.p
    space = cohomology.h2_space(Q, p)
    seen = {}
    n_homs = 0
    for ext in fam.extensions:
        alpha = classifying_table(ext)
        for rho in pc.enumerate_homs(Q, ext.Gbar).homs:
            n_homs += 1
            c = pullback_table(alpha, rho, p)
            v = space.column_coords(generator_columns(Q, c))
            seen.setdefault(v.tobytes(), (v, c, (ext, rho)))
    classes = []
    for v, c, (ext, rho) in seen.values():
        inflated = generator_columns(G, c[np.ix_(pi.image, pi.image)])
        classes.append((v, bool(cohomology.coboundary_mask(G, inflated, p)),
                        (ext, rho), c))
    return classes, {"homs": n_homs, "distinct_classes": len(seen),
                     "liftable_classes": sum(1 for c in classes if c[1])}


def loop_massey_pullback_set(Q, n, phis, fam):
    """massey_pullback_set by the table path: one pullback table
    (`cocycle_tables`) and one coordinate solve per matching hom."""
    ext = fam.extensions[0]
    p = ext.p
    E, Gbar = ext.E, ext.Gbar
    mats = unitriangular_matrices(E)[ext.section]
    superdiag = np.stack([mats[:, i, i + 1] for i in range(n)], axis=1)
    alpha = classifying_table(ext)
    space = cohomology.h2_space(Q, p)
    out, seen = [], set()
    for rho in pc.enumerate_homs(Q, Gbar).homs:
        sd = superdiag[rho.image]
        if all(np.array_equal(sd[:, i], phis[i].values % p)
               for i in range(n)):
            c = pullback_table(alpha, rho, p)
            coords = space.column_coords(generator_columns(Q, c))
            if coords.tobytes() not in seen:
                seen.add(coords.tobytes())
                out.append((c, coords, rho))
    return out


def check_against_loop(G, N, fam):
    """liftable_pullback_space(G, N, fam) against the per-hom loop: equal
    coordinates, verdicts, extensions, image rows and stats, and lazily
    built cocycles that match the loop's tables, class by class."""
    lp = liftable_pullback_space(G, N, fam)
    classes, stats = loop_liftable_pullbacks(G, N, fam)
    assert lp.stats == stats
    assert len(lp.coords) == len(classes)
    for i, (v0, lift0, (ext0, rho0), c0) in enumerate(classes):
        assert np.array_equal(lp.coords[i], v0)
        assert lp.liftable[i] == lift0 and lp.exts[i] is ext0
        assert np.array_equal(lp.images[i], rho0.image)
        assert matches_table(lp.cocycle(i), c0)
    return lp


@pytest.mark.parametrize("nm,kind,n,p", [("Q8", "zassenhaus", 2, 2),
                                         ("Heis:3", "mixed", None, 3),
                                         ("Meta:3", "mixed", None, 3),
                                         ("Q8", "zassenhaus", 3, 2),
                                         ("D4", "lower-central", 3, 2)])
def test_batched_pullback_classes_match_per_hom_loop(nm, kind, n, p):
    G, fam, bundle = _setup(nm, kind, n, p)
    for N in (bundle.Tbar, trivial(G)):
        assert len(check_against_loop(G, N, fam).coords) > 1


@pytest.fixture(scope="module")
def small_sweep_grid():
    """(G, fam, N, Tbar) for each catalog group of order <= 32, each of its
    applicable families and each subgroup choice of the transfer sweep,
    with the sweep's seeded picks (the rng runs over every group)."""
    rng = np.random.default_rng(CATALOG_SEED + 1)
    grid = []
    for _, G, p in catalog_instances():
        for fam in applicable_families(p):
            tbar = pc.t_bundle(G, fam).Tbar
            for _, N in _subgroup_choices(G, tbar, rng):
                if G.order <= 32:
                    grid.append((G, fam, N, tbar))
    return grid


def test_batched_pullback_classes_match_per_hom_loop_on_catalog(
        small_sweep_grid):
    """Every catalog group of order <= 32 x its applicable families x
    {trivial, Tbar}; groups with equal tables (equal keys) run once."""
    cases = {(G.key, fam.label): (G, fam, tbar)
             for G, fam, _, tbar in small_sweep_grid}
    nonliftable = 0
    for G, fam, tbar in cases.values():
        for N in (tbar, trivial(G)):
            lp = check_against_loop(G, N, fam)
            nonliftable += int((~lp.liftable).sum())
    assert len(cases) > 60 and nonliftable > 0


def loop_inflation_matrix(space2, space1, q):
    """The coordinate matrix M of inf: H^2(Q2) -> H^2(Q1), by one pullback
    Cocycle2 and one coordinate solve per basis class, each basis
    representative space2.rep(e_i); the reference for inflation_matrix,
    whose rows are M times the residues of the basis of H^2(Q1)."""
    rows = [space1.coords(cohomology.pullback(space2.rep(e), q))
            for e in np.eye(space2.dim, dtype=np.int64)]
    if not rows:
        return np.zeros((0, space1.dim), dtype=np.int64)
    return np.stack(rows)


def test_inflation_matrix_matches_per_class_loop(small_sweep_grid):
    """Every pair N <= Tbar the sweep builds for the groups of order <= 32:
    the residue rows are the loop's coordinate matrix M times the residues
    rho(B1) of the basis of H^2(G/N), R = M rho(B1) (lemma in the
    `pairings` docstring)."""
    dims = set()
    for G, fam, N, tbar in small_sweep_grid:
        p = fam.p
        pair = pairings._pair(G, N, tbar, p)
        space1 = cohomology.h2_space(pair.q.domain, p)
        R = pairings.inflation_matrix(pair.space, pair.q)
        M = loop_inflation_matrix(pair.space, space1, pair.q)
        rho = cohomology.coboundary_residue(pair.q.domain, space1.basis, p)
        assert R.dtype == M.dtype and np.array_equal(R, (M @ rho) % p)
        dims.add(M.shape)
    assert len(dims) > 5 and any(d[0] != d[1] for d in dims)


def test_inflation_matrix_rejects_mixed_parents():
    """A q that does not map onto the group of space2."""
    G, fam, bundle = _setup("Q8", "zassenhaus", 2, 2)
    pair = pairings._pair(G, trivial(G), bundle.Tbar, 2)
    with pytest.raises(pc.errors.MixedParents):
        pairings.inflation_matrix(pair.space, pair.pi1)


def test_inflation_matrix_rejects_corrupt_basis():
    """A basis whose columns are no cocycle's, by one corrupted entry,
    inflates to rows outside Z^2, which raise EdgeCheckFailed."""
    G, fam, bundle = _setup("Q8", "zassenhaus", 2, 2)
    pair = pairings._pair(G, trivial(G), bundle.Tbar, 2)
    basis = pair.space.basis.copy()
    basis[0, -1] ^= 1
    bad = dataclasses.replace(pair.space, basis=basis)
    with pytest.raises(pc.errors.EdgeCheckFailed, match="not a cocycle"):
        pairings.inflation_matrix(bad, pair.q)


def test_liftable_pullback_space_edge_cases(monkeypatch):
    """A trivial G (ngens = 0); the zero class, first and liftable, which
    never grows the span, so the lift search runs once per span row; and
    a planted inflation matrix of full row rank on a cold group, under
    which only the zero class is liftable, so the batch Span.add grows
    nothing and the lift search never runs."""
    fam = pc.omega_family("zassenhaus", 2, 2)
    Z1 = pc.builtin_group("Z/1")
    lp = check_against_loop(Z1, trivial(Z1), fam)
    assert lp.coords.shape == (1, 0) and lp.liftable.tolist() == [True]
    assert lp.span.dim == 0

    calls = []
    lift = pairings.lift_hom
    monkeypatch.setattr(pairings, "lift_hom",
                        lambda *a, **k: calls.append(a) or lift(*a, **k))
    G = dataclasses.replace(pc.builtin_group("D4"), _cache={})
    lp = liftable_pullback_space(G, pc.t_bundle(G, fam).Tbar, fam)
    assert not lp.coords[0].any() and lp.liftable[0]
    assert 0 < len(calls) == lp.span.dim < lp.stats["liftable_classes"]

    calls.clear()
    monkeypatch.setattr(pairings, "inflation_matrix",
                        lambda space2, q: np.eye(space2.dim, dtype=np.int64))
    G = dataclasses.replace(G, _cache={})
    lp = liftable_pullback_space(G, trivial(G), fam)
    assert lp.stats["liftable_classes"] == 1 < lp.stats["distinct_classes"]
    assert lp.liftable.tolist() == [True] + [False] * (len(lp.coords) - 1)
    assert lp.span.dim == 0 and not calls

    span = pc.gf.Span(3, 2, np.eye(2, 3, dtype=np.int64))
    grew = span.add(np.zeros((0, 3), dtype=np.int64))
    assert grew.shape == (0,) and span.dim == 2


def test_span_contains_matrix_matches_per_row_loop():
    """Span.contains on a matrix of rows against one contains per row, and
    the one-rank inclusion test of kernel_generating_condition against
    both, over the A/B/C bases and the zero space."""
    for nm, kind, n, p in INSTANCES:
        G, fam, bundle = _setup(nm, kind, n, p)
        N1, N2 = trivial(G), bundle.Tbar
        spaces = [a_space(G, N1, N2, p), b_space(G, N1, N2, fam),
                  c_space(G, N1, N2, fam)]
        spaces.append(spaces[0][:0])
        for X in spaces:
            for Y in spaces:
                span = span_of(X, p)
                assert span.contains(Y) == all(span.contains(v) for v in Y), nm
                assert pairings._inside(Y, X, p) == span.contains(Y), nm
    G, fam, bundle = _setup("Q8", "zassenhaus", 2, 2)
    A = a_space(G, trivial(G), bundle.Tbar, 2)
    B = b_space(G, trivial(G), bundle.Tbar, fam)
    assert span_of(A, 2).contains(B) and not span_of(B, 2).contains(A)


def test_oracle_disagreements_raise(monkeypatch):
    monkeypatch.setattr(pairings, "lift_hom", lambda *a, **k: None)
    G = dataclasses.replace(pc.builtin_group("D4"), _cache={})
    fam = pc.omega_family("zassenhaus", 2, 2)
    with pytest.raises(OracleDisagreement, match="lift search"):
        liftable_pullback_space(G, pc.t_bundle(G, fam).Tbar, fam)
    monkeypatch.undo()
    # on D4, dim B = dim C = dim A = 1: an empty C or A breaks the tower
    G, fam, bundle = _setup("D4", "zassenhaus", 2, 2)
    assert len(b_space(G, trivial(G), bundle.Tbar, fam)) == 1
    for name, match in (("c_space", "B <= C"), ("a_space", "C <= A")):
        space = getattr(pairings, name)
        monkeypatch.setattr(pairings, name,
                            lambda *a, space=space, **k: space(*a, **k)[:0])
        with pytest.raises(OracleDisagreement, match=match):
            kernel_generating_condition(G, trivial(G), bundle.Tbar, fam)
        monkeypatch.undo()


def test_b_space_is_the_rows_of_the_killed_span():
    for nm, kind, n, p in INSTANCES:
        G, fam, bundle = _setup(nm, kind, n, p)
        N2 = bundle.Tbar
        for N1 in (trivial(G), N2):
            M = pairings._pair(G, N1, N2, p).inflation
            lp = liftable_pullback_space(G, N2, fam)
            killed = lp.liftable & ~((lp.coords @ M) % p).any(axis=1)
            expect = pc.gf.Span(lp.space.dim, p, lp.coords[killed]).rows
            got = b_space(G, N1, N2, fam)
            assert got.dtype == expect.dtype, nm
            assert got.shape == expect.shape, nm
            assert np.array_equal(got, expect), nm


def test_equal_dimension_faults_raise(monkeypatch):
    """On D4, dim B = dim C = dim A = 1: a unit vector outside the true
    space, of the same dimension, breaks the tower; a dimension count
    alone would not see it."""
    G, fam, bundle = _setup("D4", "zassenhaus", 2, 2)
    N1, N2 = trivial(G), bundle.Tbar
    B, C = b_space(G, N1, N2, fam), c_space(G, N1, N2, fam)
    for name, true, match in (("c_space", B, "B <= C"),
                              ("a_space", C, "C <= A")):
        unit = next(e for e in np.eye(3, dtype=np.int64)[:, None]
                    if not span_of(true, 2).contains(e))
        assert len(unit) == len(true) == 1
        monkeypatch.setattr(pairings, name, lambda *a, unit=unit, **k: unit)
        with pytest.raises(OracleDisagreement, match=match):
            kernel_generating_condition(G, N1, N2, fam)
        monkeypatch.undo()
    assert kernel_generating_condition(G, N1, N2, fam)[0]


def test_a_pairing_checks_the_transgression_dimension(monkeypatch):
    """With a_space short of its last row, the transgression solve still
    succeeds, as the rows left are inside the image; only the dimension
    check of a_pairing raises."""
    for nm, kind, n, p in [("U:2:4", "zassenhaus", 2, 2),
                           ("Meta:3", "lower-central", 2, 3)]:
        G, fam, bundle = _setup(nm, kind, n, p)
        N1, N2 = trivial(G), bundle.Tbar
        assert pairing_kernels(a_pairing(G, N1, N2, p))["perfect"], nm
        A = a_space(G, N1, N2, p)[:-1]
        assert len(A) >= 1, nm
        pairings._transgression_pairing(G, N1, N2, [0], A, p)
        monkeypatch.setattr(pairings, "a_space", lambda *a, A=A, **k: A)
        with pytest.raises(OracleDisagreement, match="dim A"):
            a_pairing(G, N1, N2, p)
        monkeypatch.undo()


def test_pairing_invariants_raise_typed_errors(monkeypatch):
    with pytest.raises(PairingShapeMismatch):
        PairingMatrix(["a"], ["x", "y"], np.eye(2, dtype=np.int64), 2)
    # N1 = <a> is not inside N2 = <b> in E:2:2; q o pi1 = pi2 fails at a,
    # though q (onto Z/2 from Z/2) is a hom
    V = pc.builtin_group("E:2:2")
    a, b = V.generators
    _, pi1 = cached_quotient(V, pc.subgroup_generated(V, [a]))
    _, pi2 = cached_quotient(V, pc.subgroup_generated(V, [b]))
    with pytest.raises(NonCommutingSquare):
        induced_epi(pi1, pi2)
    # a q with the wrong kernel: the trivial map G -> G/Z(G)
    G = pc.builtin_group("D4")
    monkeypatch.setattr(pairings, "induced_epi", lambda pi1, pi2: pc.GroupHom(
        pi1.codomain, pi2.codomain, np.zeros(pi1.codomain.order,
                                             dtype=np.int32)))
    with pytest.raises(KernelMismatch):
        pairings._pair.__wrapped__(G, trivial(G), pc.center(G), 2)


def _massey_cases():
    for nm, p in [("E:2:2", 2), ("E:3:2", 3)]:
        V = pc.builtin_group(nm)
        chars = cohomology.h1(V, p)
        fam = pc.omega_family("zassenhaus", 2, p)
        for a in chars:
            for b in chars:
                yield V, 2, [a, b], fam
    V = pc.builtin_group("E:2:2")
    x, y = cohomology.h1(V, 2)
    zero = cohomology.Cochain1(V, np.zeros(V.order, dtype=np.int64), 2)
    fam = pc.omega_family("zassenhaus", 3, 2)
    for phis in ([x, y, x], [x, x, x], [zero, zero, zero]):
        yield V, 3, phis, fam
    # triples with two and three distinct values
    for nm, p in [("Z/4xZ/2", 2), ("E:3:2", 3)]:
        V = pc.builtin_group(nm)
        x = cohomology.h1(V, p)[0]
        yield V, 3, [x, x, x], pc.omega_family("zassenhaus", 3, p)


def test_batched_massey_set_matches_per_hom_loop():
    sizes = []
    for V, n, phis, fam in _massey_cases():
        got = cohomology.massey_pullback_set(V, n, phis, fam)
        want = loop_massey_pullback_set(V, n, phis, fam)
        assert len(got) == len(want)
        sizes.append(len(got))
        for (c, v, rho), (c0, v0, rho0) in zip(got, want):
            assert matches_table(c, c0)
            assert np.array_equal(v, v0)
            assert np.array_equal(rho.image, rho0.image)
    assert 0 in sizes and 1 in sizes and max(sizes) == 3


def test_hom_rows_come_out_in_the_id_dtype(monkeypatch):
    """The lemma at core.ID_DTYPE: every id is below DEFAULT_CAP, and the
    16-bit id dtype holds DEFAULT_CAP - 1.  `LiftablePullbacks.images` and
    the hom rows `massey_pullback_set` reads its classes from come out in
    it; the homs built from them are int32, as every GroupHom."""
    assert np.iinfo(ID_DTYPE).max >= DEFAULT_CAP - 1
    assert np.array([DEFAULT_CAP - 1]).astype(ID_DTYPE)[0] == DEFAULT_CAP - 1
    G, fam, bundle = _setup("Q8", "zassenhaus", 3, 2)
    lp = liftable_pullback_space(G, bundle.Tbar, fam)
    assert len(lp.images) and lp.images.dtype == ID_DTYPE
    assert lp.rho(0).image.dtype == np.int32
    seen = []
    real = cohomology.pullback_classes

    def spy(space, exts, homs):
        out = real(space, exts, homs)
        seen.append([R.dtype for R in homs] + [out[2].dtype])
        return out
    monkeypatch.setattr(cohomology, "pullback_classes", spy)
    V = pc.builtin_group("Z/4xZ/2")
    x = cohomology.h1(V, 2)[0]
    vals = cohomology.massey_pullback_set(
        V, 3, [x, x, x], pc.omega_family("zassenhaus", 3, 2))
    assert seen == [[ID_DTYPE, ID_DTYPE]] and vals
    assert all(rho.image.dtype == np.int32 for _, _, rho in vals)


def test_batch_coords_reject_rows_outside_z2():
    G, fam, bundle = _setup("Q8", "zassenhaus", 2, 2)
    Q, _ = cached_quotient(G, bundle.Tbar)
    space = cohomology.h2_space(Q, 2)
    ext = fam.extensions[0]
    alpha = cohomology.classifying_cocycle(ext)
    hs = pc.enumerate_homs(Q, ext.Gbar)
    V = cohomology.pullback_coords(alpha, hs.images, space)
    assert np.array_equal(V, [space.coords(cohomology.pullback(alpha, rho))
                              for rho in hs.homs])
    gens = Q.generators
    table = classifying_table(ext)
    cols = table[hs.images[:, :, None], hs.images[:, None, gens]]
    cols = cols.reshape(len(hs), -1)
    cols[len(hs) // 2, 0] = 1       # f(1, s_0) != 0: not normalized
    with pytest.raises(ValueError):
        space.column_coords(cols)
    with pytest.raises(ValueError):
        space.column_coords(cols[len(hs) // 2])


def test_a_space_eliminates_once_per_distinct_pair(monkeypatch):
    """A sweep pass over a cold catalog asks for A 221 times, once per
    check, over 85 distinct (G, N1, N2, p): the memo eliminates once for
    each and a second pass not at all.  The memoized basis is read-only.
    The catalog is rebuilt from its tables in an empty twin registry, as
    the `unitriangular` builders hand out warm groups."""
    monkeypatch.setattr(core, "_TWINS", weakref.WeakValueDictionary())
    calls, eliminations = [], []
    real_a_space, real_nullspace = pairings.a_space, gf.nullspace

    def nullspace_spy(a, p):
        if sys._getframe(1).f_code.co_name == "a_space":
            eliminations.append(a.shape)
        return real_nullspace(a, p)

    def a_space_spy(*args):
        calls.append(args)
        return real_a_space(*args)

    monkeypatch.setattr(gf, "nullspace", nullspace_spy)
    monkeypatch.setattr(pairings, "a_space", a_space_spy)
    catalog = [(nm, core._table_group(G.mult, G.mult_gen, G.pred, G.name), p)
               for nm, G, p in catalog_instances()]
    transfer_sweep(instances=catalog)
    assert (len(calls), len(eliminations)) == (221, 85)
    transfer_sweep(instances=catalog)
    assert (len(calls), len(eliminations)) == (442, 85)
    A = real_a_space(*calls[0])
    assert not A.flags.writeable
    with pytest.raises(ValueError):
        A[...] = 0
