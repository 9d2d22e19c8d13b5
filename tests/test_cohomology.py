import copy
import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

import pcohom as pc
from pcohom import cohomology, gf
from pcohom.catalog import applicable_families, catalog_instances
from pcohom.cohomology import (H2_ORDER_CAP, Cochain1, Cocycle2, H2Space,
                               _column_violations, _delta_coboundaries,
                               _expand_from_columns,
                               _gauged_z2, _relator_forms, _z2_basis,
                               bockstein,
                               classifying_cocycle, conj_invariant_h1, cup,
                               h1, h2_space, is_coboundary,
                               massey_pullback_set, pullback,
                               pullback_columns, transgression)
from pcohom.core import (_element_orders, element_order, group_from_json,
                         word_images)
from pcohom.errors import (EdgeCheckFailed, MixedParents, NotACharacter,
                           NotInvariant, NotNormal, NotSurjective,
                           OracleDisagreement, SectionDefectOutsideKernel,
                           SolveRoundTripFailed)
from concrete_elements import perm_from_cycles, unitriangular_matrices
from cocycle_tables import (bockstein_table, checked, classifying_table,
                            constraint_violations, cup_table, expand, gauge,
                            generator_columns, matches_table, pullback_table,
                            table_accepts, transgression_table)
from test_gf import coboundary_matrix


def coboundary_table(G, f, p):
    """delta f (g, h) = f(g) + f(h) - f(gh) for a 1-cochain f with f(1)=0."""
    f = np.asarray(f) % p
    return (f[:, None] + f[None, :] - f[G.mult]) % p


# ---------------------------------------------------------------------
# H^2 dimensions against classical values
# ---------------------------------------------------------------------

def test_h2_dimensions():
    # cyclic p-groups have one-dimensional H^2 (periodic cohomology)
    for nm, p in [("Z/2", 2), ("Z/4", 2), ("Z/8", 2), ("Z/3", 3), ("Z/9", 3),
                  ("Z/25", 5)]:
        assert h2_space(pc.builtin_group(nm), p).dim == 1, nm
    # elementary abelian: dim H^2((Z/p)^n) = n + n(n-1)/2
    assert h2_space(pc.builtin_group("E:2:2"), 2).dim == 3
    assert h2_space(pc.builtin_group("E:2:3"), 2).dim == 6
    assert h2_space(pc.builtin_group("E:3:2"), 3).dim == 3
    # classical mod-2 Poincare series values
    assert h2_space(pc.builtin_group("D4"), 2).dim == 3
    assert h2_space(pc.builtin_group("Q8"), 2).dim == 2


def test_h2_of_trivial_group():
    G = pc.builtin_group("Z/2")
    T, _ = pc.quotient_group(G, G.whole())
    space = h2_space(T, 2)
    assert space.dim == 0
    assert is_coboundary(Cocycle2(T, np.zeros(0, dtype=np.int64), 2))
    # no generators: the gauge and the solver take empty columns
    assert space.column_coords(np.zeros(0, dtype=np.int64)).shape == (0,)
    assert space.column_coords(np.zeros((3, 0), dtype=np.int64)).shape \
        == (3, 0)


# ---------------------------------------------------------------------
# Z^2 from the generator rows (lemma at _column_violations)
# ---------------------------------------------------------------------

def all_g_constraints(G, p):
    """Reference: normalization rows plus the cocycle rows at every g, from
    the (n, n, n*ngens) tensor of derived-column forms."""
    n = G.order
    ngens = len(G.generators)
    ngu = n * ngens
    T = np.zeros((n, n, ngu), dtype=np.int64)
    for x in range(1, n):
        pe, pg = G.pred[x]
        T[:, x, :] = T[:, pe, :]
        np.add.at(T, (np.arange(n), x, G.mult[:, pe] * ngens + pg), 1)
        T[:, x, pe * ngens + pg] -= 1
    rows = [np.eye(ngens, ngu, dtype=np.int64)]
    for g in range(n):
        for s in range(ngens):
            r = T[g].copy()
            np.add.at(r, (np.arange(n), G.mult[g] * ngens + s), 1)
            r[np.arange(n), np.arange(n) * ngens + s] -= 1
            r -= T[g][G.mult_gen[:, s]]
            rows.append(r % p)
    return np.concatenate(rows)


def perm_group(d, *gens):
    return group_from_json({"kind": "permutation", "degree": d, "generators":
                            [perm_from_cycles(d, c).map for c in gens]})


S3 = perm_group(3, [(0, 1, 2)], [(0, 1)])
A4 = perm_group(4, [(0, 1, 2)], [(0, 1), (2, 3)])
Z8_ON_1_2_4 = group_from_json({"kind": "residue", "modulus": 8,
                               "generators": [1, 2, 4]})
EXTRA_GROUPS = [("S3", S3, 2), ("S3", S3, 3), ("A4", A4, 2), ("A4", A4, 3),
                ("Z/8 on 1, 2, 4", Z8_ON_1_2_4, 2)]


def full_cocycle_constraints(G, p):
    """Reference: the rows whose nullspace is Z^2, over all n * ngens
    generator columns: the normalization rows u(1, s) = 0, then for each
    generator s, each generator g and all h the row f(g,h) + u(gh,s) -
    u(h,s) - f(g,hs) = 0, with T[j, x] = f(gens[j], x) as a linear form in
    the columns, walked one position at a time (completeness is the lemma
    at cohomology._column_violations).  The relator route
    (`cohomology._gauged_z2`) is checked against it."""
    n = G.order
    gens = np.asarray(G.generators, dtype=np.int64)
    ngens = len(gens)
    ngu = n * ngens
    k = np.arange(ngens)
    T = np.zeros((ngens, n, ngu), dtype=np.int64)
    for x in range(1, n):
        pe, pg = G.pred[x]
        T[:, x] = T[:, pe]
        T[k, x, G.mult[gens, pe] * ngens + pg] += 1
        T[:, x, pe * ngens + pg] -= 1
    h = np.arange(n)
    rows = [np.eye(ngens, ngu, dtype=np.int64)]
    for s in range(ngens):
        r = T - T[:, G.mult_gen[:, s]]
        r[k[:, None], h, G.mult[gens] * ngens + s] += 1
        r[:, h, h * ngens + s] -= 1
        rows.append(r.reshape(ngens * n, ngu) % p)
    return np.concatenate(rows)


def off_tree(G):
    """Reference: the mask of the generator columns (g, s) that are not BFS
    tree edges G.pred[x] = (g, s), n(ngens - 1) + 1 of the n * ngens."""
    ngens = len(G.generators)
    off = np.ones(G.order * ngens, dtype=bool)
    off[G.pred[1:, 0].astype(np.intp) * ngens + G.pred[1:, 1]] = False
    return off


def gauged_nullspace(G, p):
    """Reference: the gauged cocycles as the nullspace of the reference rows
    over the off-tree columns, with zeros on the tree columns."""
    off = off_tree(G)
    Z = np.zeros((0, len(off)), dtype=np.int64)
    if off.any():
        basis = gf.nullspace(full_cocycle_constraints(G, p)[:, off], p)
        Z = np.zeros((len(basis), len(off)), dtype=np.int64)
        Z[:, off] = basis
    return Z


def full_nullspace(G, p):
    """Reference: the basis of Z^2 as the nullspace over all generator
    columns."""
    return gf.nullspace(full_cocycle_constraints(G, p), p)


def test_generator_rows_give_cocycles_on_catalog():
    # every Z^2 basis row, expanded to a table, satisfies every identity
    for nm, G, p in catalog_instances():
        cand = full_nullspace(G, p)
        for u in cand:
            f = _expand_from_columns(G, u, p)
            assert not len(constraint_violations(G, f, p)), nm


def test_generator_rows_span_all_g_rows():
    cases = [c for c in catalog_instances() if c[1].order <= 32]
    for nm, G, p in cases + EXTRA_GROUPS:
        assert np.array_equal(gf.nullspace(all_g_constraints(G, p), p),
                              full_nullspace(G, p)), (nm, p)


def test_level_walks_match_per_position_loops():
    """_expand_from_columns, walked a BFS level at a time
    (core.bfs_levels), against the per-position loop
    (`cocycle_tables.expand`) on every distinct catalog (table, prime), on
    Z/1 and on Z/256: the expansion of every Z^2 basis row (the first four
    on Z/256, whose 255 one-position levels make each expansion slow) and
    of random columns, one row at a time and in one batch, whole tables
    and the rows at the generators alone."""
    rng = np.random.default_rng(20260824)
    seen = set()
    cases = catalog_instances() + [("Z/1", pc.builtin_group("Z/1"), 2),
                                   ("Z/256", pc.builtin_group("Z/256"), 2)]
    for nm, G, p in cases:
        if (G.key, p) in seen:
            continue
        seen.add((G.key, p))
        full = full_cocycle_constraints(G, p)
        cand = gf.nullspace(full, p)[:4 if G.order > H2_ORDER_CAP else None]
        noise = rng.integers(0, p, size=(2, full.shape[1]))
        U = np.concatenate([cand, noise])
        want = np.stack([expand(G, u, p) for u in U])
        for u, f in zip(U, want):
            assert np.array_equal(_expand_from_columns(G, u, p), f), nm
        assert np.array_equal(_expand_from_columns(G, U, p), want), nm
        assert np.array_equal(_expand_from_columns(G, U, p, G.generators),
                              want[:, G.generators]), nm
    assert len(seen) == 36


def h2_build_groups():
    """(name, group, p): every catalog group, its quotients by the distinct
    nontrivial lower p-central and Zassenhaus terms 2 and 3, and by the
    normal closure of one seeded element whose closure is proper; then the
    order 243 Gbar of zassenhaus:3:3, above H2_ORDER_CAP."""
    rng = np.random.default_rng(20260824)
    out = []
    for name, G, p in catalog_instances():
        out.append((name, G, p))
        terms = {}
        for chain in (pc.lower_p_central(G, p, 3), pc.zassenhaus(G, p, 3)):
            for N in chain.terms[1:3]:
                if N.order > 1:
                    terms.setdefault(N.members.tobytes(), N)
        nc = [x for x in range(1, G.order)
              if _element_orders(G)[x] != G.order]
        if nc:
            g = nc[int(rng.integers(len(nc)))]
            terms.setdefault(None, pc.normal_closure(G, [g]))
        for N in terms.values():
            out.append((f"{name}/{N.order}", pc.quotient_group(G, N)[0], p))
    ext = pc.parse_family("zassenhaus:3:3").extensions[0]
    out.append(("zassenhaus:3:3 Gbar", ext.Gbar, ext.p))
    return out


def test_z2_basis_matches_full_nullspace():
    """cand rebuilt from the gauged cocycles (duality lemma at _z2_basis)
    equals the nullspace over all generator columns, and the gauged
    cocycles are 0 on the tree with dimension dim H^2 + ngens - dim H^1
    (lemma at _gauged_z2), dim H^2 read off the full nullspace as
    dim Z^2 - dim B^2 = dim Z^2 - (|G| - 1 - dim H^1).  On the h2-build
    groups, 43 distinct (group, prime) pairs, and on EXTRA_GROUPS."""
    seen = set()
    for name, G, p in h2_build_groups() + EXTRA_GROUPS:
        if (G.key, p) in seen:
            continue
        seen.add((G.key, p))
        ref = full_nullspace(G, p)
        assert np.array_equal(_z2_basis(G, p), ref), name
        n, ngens, d1 = G.order, len(G.generators), len(h1(G, p))
        dim_h2 = len(ref) - (n - 1 - d1)
        Z = _gauged_z2(G, p)
        assert len(Z) == dim_h2 + ngens - d1, name
        assert not Z[:, G.pred[1:, 0] * ngens + G.pred[1:, 1]].any(), name
        if n <= H2_ORDER_CAP:
            assert h2_space(G, p).dim == dim_h2, name
    assert len(seen) == 48


def test_gauged_z2_matches_the_reference_on_catalog():
    """The relator route (`_gauged_z2`) spans the gauged nullspace of the
    reference rows (`full_cocycle_constraints` over the off-tree columns)
    on every distinct catalog (table, prime), on EXTRA_GROUPS, on Z/1 (no
    generators) and on Z/2 and Z/256 (one non-tree edge, the early return
    of `core.relator_edges`).  The search's BFS over all generators is G's
    own (lemma at `_gauged_z2`).  The residual rows are not all 0 on
    exactly U:2:4, Mp3:5 and one order-128 stand-in quotient among the
    catalog groups, one rank each (kept / nullity 5/4, 3/2 and 9/8)."""
    residual = {}
    seen = set()
    cases = catalog_instances() + EXTRA_GROUPS + [
        (nm, pc.builtin_group(nm), 2) for nm in ("Z/1", "Z/2", "Z/256")]
    for name, G, p in cases:
        if (G.key, p) in seen:
            continue
        seen.add((G.key, p))
        elems, pred, tgt = pc.homsearch._partial_bfs(G, len(G.generators))
        assert np.array_equal(elems, np.arange(G.order)), name
        assert np.array_equal(pred, G.pred), name
        assert np.array_equal(tgt, G.mult_gen), name
        Z = _gauged_z2(G, p)
        assert Z.shape[1] == G.order * len(G.generators), name
        assert np.array_equal(gf.rref(Z, p)[0],
                              gf.rref(gauged_nullspace(G, p), p)[0]), name
        forms, rows = _relator_forms(G, p)
        if len(rows) and (name, G, p) not in EXTRA_GROUPS:
            residual[name] = (forms.shape[1], len(Z), gf.rank(rows, p))
    assert len(seen) == 41
    assert residual == {"U:2:4": (5, 4, 1), "Mp3:5": (3, 2, 1),
                        "standin:zassenhaus:3:2:2/nc(464,510)": (9, 8, 1)}


def test_gauged_dimension_above_the_cap():
    """Closed forms above H2_ORDER_CAP, independent of the linear algebra:
    dim _gauged_z2 = dim H^2 + ngens - dim H^1, with dim H^2 = k(k+1)/2
    on a product of k nontrivial cyclic p-groups (E:2:9, E:3:6 and
    Z/1024 x Z/2) and, by Kunneth, h2(A) + h1(A) h1(B) + h2(B) on
    Heis:3 x Heis:3, read off H^2 and H^1 of Heis:3.  The dense gauged
    solve took 6.6 s on E:2:9 and 15.5 s on E:3:6 (2 vCPUs)."""
    Heis = pc.builtin_group("Heis:3")
    h2, h1_heis = h2_space(Heis, 3).dim, len(h1(Heis, 3))
    cases = [("E:2:9", 2, 45), ("E:3:6", 3, 21), ("Z/1024xZ/2", 2, 3),
             ("Heis:3xHeis:3", 3, 2 * h2 + h1_heis ** 2)]
    assert cases[-1][2] == 12
    for name, p, dim_h2 in cases:
        G = pc.builtin_group(name)
        assert G.order > H2_ORDER_CAP, name
        Z = _gauged_z2(G, p)
        assert len(Z) == dim_h2 + len(G.generators) - len(h1(G, p)), name
        assert not Z[:, G.pred[1:, 0] * len(G.generators)
                     + G.pred[1:, 1]].any(), name


def test_z2_system_is_built_in_the_working_dtype():
    """The coboundaries d(delta_x) and the gauged cocycles are held in gf's
    working dtype, with the values of the int64 references, at p = 2
    (bool), 3 (int16) and 191 (int64)."""
    for name in ("D4", "Heis:3", "Z/4xZ/2"):
        G = pc.builtin_group(name)
        for p in (2, 3, 191):
            want = gf._working_dtype(p)
            B = _delta_coboundaries(G, p)
            assert B.dtype == want, (name, p)
            assert np.array_equal(B.astype(np.int64),
                                  coboundary_matrix(G).T % p), (name, p)
            Z = _gauged_z2(G, p)
            assert Z.dtype == want, (name, p)
            assert np.array_equal(gf.rref(Z, p)[0],
                                  gf.rref(gauged_nullspace(G, p), p)[0]), \
                (name, p)
            assert np.array_equal(_z2_basis(G, p), full_nullspace(G, p)), \
                (name, p)


def test_z2_basis_memory_stays_below_the_int64_rows():
    """A cold _z2_basis on an order-128, 3-generator catalog quotient
    traces less than 2 MiB: the int64 constraint rows alone (1,155 x 257)
    take 2.26 MiB, and the int64 build traced 5.4 MiB."""
    name, G, p = next(c for c in catalog_instances()
                      if c[1].order == 128 and len(c[1].generators) == 3)
    tracemalloc.start()
    try:
        _z2_basis(G, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, (name, peak)


def test_relator_forms_memory_stays_below_the_gathered_loops():
    """A cold _relator_forms on E:2:9 (45 kept relators, 78,336 traced
    occurrences), its record built first, traces less than 8 MiB: every
    form sum is taken a letter at a time (`_loop_sums`), and the residual
    rows are kept per kept edge only where nonzero.  Gathering forms[E] in
    int64 per kept edge traced 17.6 MiB."""
    G = dataclasses.replace(pc.builtin_group("E:2:9"), _cache={})
    pc.homsearch._relator_edges(G, len(G.generators))
    tracemalloc.start()
    try:
        _relator_forms(G, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def basis_tables(space):
    """The basis cocycles as tables: space.rep(e_i) for each unit vector,
    expanded by the reference loop."""
    return [expand(space.group, space.rep(e).columns, space.p)
            for e in np.eye(space.dim, dtype=np.int64)]


def basis_digest(space):
    """sha256 of the representatives' positions and every basis table.
    The positions are counted as in a span whose first rows are a basis
    of B^2 (dim |G| - 1 - dim H^1), the numbering the pins were recorded
    in, not from the ngens rows of X.T that H2Space._span starts with."""
    G, p = space.group, space.p
    reps = (np.asarray(space._reps, dtype=np.int64) - len(G.generators)
            + G.order - 1 - len(h1(G, p)))
    h = hashlib.sha256(reps.tobytes())
    for b in basis_tables(space):
        h.update(b.astype(np.int64).tobytes())
    return h.hexdigest()


# sha256 of _reps and every basis table: same basis, same coordinates
H2_BASIS_PINS = {
    "Q8": "36c39e81c09c69742cb429a1806cbf5efbfcd33c0f30222b0330e59aa5f7c969",
    "D4xZ/2":
        "dd509f1262aff7aac23c23ad9f2d4bd9767ef6200153590f48957689d8d460d2",
    "Heis:3":
        "5747ece4b164129f78dd947b3da512fbb7953dd818d2bd72e752abdd363d2702",
    "Mp3:3":
        "0b59d18f0bb4f97c6bad33bd67a379e9686eed031846d876820c3a90da13e731",
    "Meta:3":
        "7bc6d63d3fa174a8c2b2978def5aabe44a1fc31ed9a665ffc74bdbc133d2b2f4",
    "U:2:4":
        "2651db020ee72f9850db0199ce14b30101435374df1463b74fa7ddd1ecec2a2d",
    "U:3:2":
        "8824b003ca04d712d9d5ba4d5ad1d2be4be1075d60e23dccea42d15579ee21bc",
    "standin:zassenhaus:2:2:2/nc(3)":
        "cd1b997c0f4ab25b2183a063982fcd98139b467cb74e30694fa8235eabdf8451",
    "D4 on three generators":
        "9e3369f5c87a3accda4bd3bb6cd93d85e45228de0f064f185da73f053297c054",
}


def test_h2_basis_pinned():
    cases = [(nm, pc.builtin_group(nm), p) for nm, p in
             [("Q8", 2), ("D4xZ/2", 2), ("Heis:3", 3), ("Mp3:3", 3),
              ("Meta:3", 3), ("U:2:4", 2), ("U:3:2", 2)]]
    cases += [c for c in catalog_instances()
              if c[0] == "standin:zassenhaus:2:2:2/nc(3)"]
    cases.append(("D4 on three generators",
                  perm_group(4, [(0, 1, 2, 3)], [(1, 3)], [(0, 2)]), 2))
    assert [nm for nm, _, _ in cases] == list(H2_BASIS_PINS)
    for nm, G, p in cases:
        assert basis_digest(h2_space(G, p)) == H2_BASIS_PINS[nm], nm


def test_cold_h2_space_builds_no_table(monkeypatch):
    """A cold h2_space keeps its basis as generator columns and expands no
    n x n table: with _expand_from_columns patched to log whole-table
    requests, only the rows at the generators are expanded, for the check
    at the generators.  Neither H2Space.rep nor H2Space.coords asks for a
    table, nor do classifying_cocycle, cup, bockstein and transgression;
    pullback asks for one, alpha's table over its own group, for the
    gather in pullback_columns.  The basis digest is the pinned one."""
    expand_rows = cohomology._expand_from_columns
    whole = []

    def logged(G, u, p, g=None):
        if g is None:
            whole.append(G.key)
        return expand_rows(G, u, p, g)

    monkeypatch.setattr(cohomology, "_expand_from_columns", logged)
    for nm, p in [("Q8", 2), ("D4xZ/2", 2), ("Heis:3", 3), ("Mp3:3", 3),
                  ("U:3:2", 2)]:
        G = dataclasses.replace(pc.builtin_group(nm), _cache={})
        space = h2_space(G, p)
        assert space.basis.shape == (space.dim,
                                     G.order * len(G.generators)), nm
        x = np.arange(1, space.dim + 1) % p
        assert np.array_equal(space.coords(space.rep(x)), x), nm
        for a in h1(G, p):
            space.coords(cup(a, a))
            space.coords(bockstein(a))
    ext = pc.build_bar_extension(2, 2)
    alpha = classifying_cocycle(ext)
    transgression(ext.lam,
                  Cochain1(ext.E, _kernel_character(ext), 2, is_hom=False))
    assert whole == []
    Gbar = ext.Gbar
    pullback(alpha, pc.GroupHom(Gbar, Gbar, np.arange(Gbar.order)))
    assert whole == [Gbar.key]
    monkeypatch.undo()
    assert basis_digest(space) == H2_BASIS_PINS["U:3:2"]


def test_h2_basis_row_outside_z2_raises(monkeypatch):
    """The check at the generators guards the basis: a cand whose rows all
    gain one off-tree entry, so none is a cocycle, raises EdgeCheckFailed
    before the round trip."""
    G = dataclasses.replace(pc.builtin_group("Q8"), _cache={})
    orig = cohomology._z2_basis

    def shifted(G, p):
        cand = orig(G, p)
        cand[:, -1] += 1
        return cand % p

    monkeypatch.setattr(cohomology, "_z2_basis", shifted)
    with pytest.raises(EdgeCheckFailed, match=r"H\^2 basis row"):
        h2_space(G, 2)


def test_h1_counts_and_values():
    # H^1(G, Z/p) = Hom(G, Z/p) has dimension = rank of G/G^p[G,G]
    for nm, p, d in [("Z/8", 2, 1), ("E:2:3", 2, 3), ("D4", 2, 2),
                     ("Q8", 2, 2), ("Heis:3", 3, 2), ("Meta:3", 3, 2)]:
        G = pc.builtin_group(nm)
        chars = h1(G, p)
        assert len(chars) == d, nm
        for ch in chars:
            assert ch.values[0] == 0
            assert np.array_equal(ch.values[G.mult] % p,
                                  (ch.values[:, None] + ch.values[None, :]) % p)


def greedy_h1(G, p):
    """Reference: cohomology.h1 before its one nullspace.  The characters
    dual to the greedy basis of the elementary abelianization, in id
    order, by enumerating every combination of the picks."""
    D = pc.power_commutator_subgroup(G, G.whole(), p)
    Q, proj = pc.quotient_group(G, D)
    basis_ids = []
    closure = {0}
    for x in range(1, Q.order):
        if x not in closure:
            basis_ids.append(x)
            closure = set(int(t) for t in
                          pc.subgroup_generated(Q, basis_ids).members)
    d = len(basis_ids)
    assert p ** d == Q.order
    coords = np.zeros((Q.order, d), dtype=np.int64)
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
    return [coords[proj.image, j] for j in range(d)]


def test_h1_matches_greedy_dual_basis():
    """Every catalog group, and its lower p-central and Zassenhaus terms 2
    and 3 as subgroups and as quotients, at p and at one other prime; each
    distinct (group, prime) pair once.  Then groups on redundant
    generators, where the nullspace over the generator values is not
    already in rref (D4 whose first generator (0 2) is r^2 s)."""
    cases = []
    for name, G, p in catalog_instances():
        groups = [G]
        for chain in (pc.lower_p_central(G, p, 3), pc.zassenhaus(G, p, 3)):
            for N in chain.terms[1:3]:
                groups.append(pc.subgroup_as_group(G, N)[0])
                groups.append(pc.quotient_group(G, N)[0])
        other = 3 if p == 2 else 2
        cases += [(name, H, q) for H in groups for q in (p, other)]
    cases += EXTRA_GROUPS + [
        ("D4 on three generators",
         perm_group(4, [(0, 1, 2, 3)], [(1, 3)], [(0, 2)]), 2),
        ("D4 on (0 2), r, s",
         perm_group(4, [(0, 2)], [(0, 1, 2, 3)], [(1, 3)]), 2)]
    seen = set()
    for name, H, q in cases:
        if (H.key, q) in seen:
            continue
        seen.add((H.key, q))
        got = [c.values for c in h1(H, q)]
        want = greedy_h1(H, q)
        assert len(got) == len(want), (name, H.order, q)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (name, H.order, q)
    assert len(seen) == 86


# ---------------------------------------------------------------------
# cocycles and coboundaries
# ---------------------------------------------------------------------

def test_coboundaries_are_recognized():
    rng = np.random.default_rng(5)
    for nm, p in [("D4", 2), ("Heis:3", 3)]:
        G = pc.builtin_group(nm)
        for _ in range(5):
            f = rng.integers(0, p, size=G.order)
            f[0] = 0
            u = generator_columns(G, coboundary_table(G, f, p))
            assert is_coboundary(Cocycle2(G, u, p))  # a checked cocycle


def test_basis_elements_are_not_coboundaries():
    for nm, p in [("Z/4", 2), ("E:3:2", 3), ("Q8", 2)]:
        G = pc.builtin_group(nm)
        space = h2_space(G, p)
        for e in np.eye(space.dim, dtype=np.int64):
            assert not is_coboundary(space.rep(e))
        # coords round-trip on random combinations
        rng = np.random.default_rng(1)
        for _ in range(5):
            c = rng.integers(0, p, size=space.dim)
            assert np.array_equal(space.coords(space.rep(c)), c % p)


def test_cocycle_identity_is_enforced():
    G = pc.builtin_group("E:2:2")
    bad = np.zeros(G.order * len(G.generators), dtype=np.int64)
    bad[3] = 1        # f(x, s) = 1 at one (x, s) alone: not a cocycle
    assert not table_accepts(G, expand(G, bad, 2), 2)
    with pytest.raises(EdgeCheckFailed):
        Cocycle2(G, bad, 2)
    # a whole table is not a column vector
    with pytest.raises(EdgeCheckFailed, match=r"shape \(4, 4\)"):
        Cocycle2(G, np.zeros((G.order, G.order), dtype=np.int64), 2)


def test_mixed_groups_are_rejected():
    Z4, Z2 = pc.builtin_group("Z/4"), pc.builtin_group("Z/2")
    c = Cocycle2(Z2, np.zeros(2, dtype=np.int64), 2)
    with pytest.raises(MixedParents):
        h2_space(Z4, 2).coords(c)
    with pytest.raises(MixedParents):
        pullback(c, pc.GroupHom(Z4, Z4, np.arange(4)))
    with pytest.raises(MixedParents):
        cup(h1(Z4, 2)[0], h1(Z2, 2)[0])


def test_cochain_arithmetic_rejects_mixed_parents():
    """Sums and differences of cochains on different groups raise
    MixedParents, whether their arrays have one shape (characters of Z/4
    and E:2:2) or not (characters of Z/4 and Z/8, cocycles on Z/4 and
    E:2:2)."""
    Z4, V = pc.builtin_group("Z/4"), pc.builtin_group("E:2:2")
    a, b = h1(Z4, 2)[0], h1(V, 2)[0]
    with pytest.raises(MixedParents):
        cup(a, a) + cup(b, b)
    with pytest.raises(MixedParents):
        cup(a, a) - cup(b, b)
    with pytest.raises(MixedParents):
        a + b
    with pytest.raises(MixedParents):
        a + h1(pc.builtin_group("Z/8"), 2)[0]


def test_mixed_primes_are_rejected():
    """A cochain mod 3 on Z/6 is rejected by the mod-2 H^2 space of Z/6
    and by cup with a mod-2 character, and two cochains on one group with
    different primes do not add."""
    Z6 = pc.builtin_group("Z/6")
    chi3, chi2 = h1(Z6, 3)[0], h1(Z6, 2)[0]
    with pytest.raises(MixedParents):
        h2_space(Z6, 2).coords(bockstein(chi3))
    with pytest.raises(MixedParents):
        cup(chi2, chi3)
    with pytest.raises(MixedParents):
        chi2 + chi3
    with pytest.raises(MixedParents):
        bockstein(chi2) + cup(chi3, chi3)


def test_h1_dimension_disagreement_raises(monkeypatch):
    """h1's dimension against |G : G^p[G,G]| is a cross-oracle: a wrong
    subgroup calculus raises OracleDisagreement, not an assert."""
    G = dataclasses.replace(pc.builtin_group("D4"), _cache={})
    monkeypatch.setattr(cohomology, "power_commutator_subgroup",
                        lambda G, A, m: G.trivial_subgroup())
    with pytest.raises(OracleDisagreement, match=r"dim H\^1 = 2"):
        h1(G, 2)


def test_h2_round_trip_mismatch_raises(monkeypatch):
    G = pc.builtin_group("E:2:2")
    monkeypatch.setattr(H2Space, "column_coords",
                        lambda self, u: np.zeros((len(u), self.dim)))
    with pytest.raises(SolveRoundTripFailed):
        h2_space.__wrapped__(G, 2)


# ---------------------------------------------------------------------
# the BFS-tree gauge against the full B^2 span
# ---------------------------------------------------------------------

class SpanReference:
    """Reference: cohomology before the tree gauge.  B^2 is the Span over
    the coboundaries of the delta functions (`coboundary_matrix`), and
    with cand given, H^2 coordinates come from one Span over the B^2
    basis rows followed by cand, read at the cand rows that grew it."""

    def __init__(self, G, p, cand=None):
        self.p = p
        ncols = G.order * len(G.generators)
        self.bspan = gf.Span(ncols, p, coboundary_matrix(G).T)
        if cand is not None:
            bmat = self.bspan.rows
            self.span = gf.Span(ncols, p, np.concatenate([bmat, cand]))
            grew = self.span.trans[:, len(bmat):].any(axis=0)
            self.reps = len(bmat) + np.flatnonzero(grew)

    def is_coboundary(self, u):
        return self.bspan.contains(u)

    def column_coords(self, u):
        """Coordinates, or None for a row outside Z^2."""
        x = self.span.solve(u)
        return None if x is None else x[..., self.reps]


def random_coboundaries(G, p, rng, k):
    """Generator columns of d(c) for k random 1-cochains c with c(1) = 0."""
    c = rng.integers(0, p, size=(k, G.order))
    c[:, 0] = 0
    return np.stack([generator_columns(G, coboundary_table(G, f, p))
                     for f in c])


def same_answer(space, ref, u):
    """Both sides give the same coordinates for u, one row or a batch, or
    both reject it; returns whether they accepted."""
    want = ref.column_coords(u)
    if want is None:
        with pytest.raises(ValueError):
            space.column_coords(u)
        return False
    assert np.array_equal(space.column_coords(u), want)
    return True


def test_gauge_matches_b2_span_on_catalog():
    """Every catalog group: the same is_coboundary verdicts and H^2
    coordinates as the B^2 span, on random coboundaries and random basis
    combinations plus coboundaries; and the same answer on rows that are
    not normalized (both reject) or random normalized rows (mostly not
    cocycles), one at a time and in a batch with a valid row."""
    rng = np.random.default_rng(20260824)
    n_groups = n_rejected = 0
    for name, G, p in catalog_instances():
        space = h2_space(G, p)
        ref = SpanReference(G, p, full_nullspace(G, p))
        ngens, k = len(G.generators), 4
        dc = random_coboundaries(G, p, rng, k)
        a = rng.integers(0, p, size=(k, space.dim))
        a[0] = 0
        reps = np.stack([space.rep(x).columns for x in a])
        U = np.concatenate([dc, (reps + dc) % p])
        want = np.concatenate([np.zeros_like(a), a])
        for u, x in zip(U, want):
            assert is_coboundary(Cocycle2(G, u, p)) == \
                ref.is_coboundary(u) == (not x.any()), name
            assert np.array_equal(space.column_coords(u), x), name
        assert np.array_equal(space.column_coords(U), want), name
        assert np.array_equal(ref.column_coords(U), want), name
        bad = dc.copy()
        bad[:, rng.integers(ngens)] += 1                 # u(1, s) != 0
        noise = rng.integers(0, p, size=(k, G.order * ngens))
        noise[:, :ngens] = 0                            # normalized
        for u in (bad % p).tolist() + noise.tolist():
            ok = same_answer(space, ref, u)
            assert same_answer(space, ref, [U[0], u]) == ok, name
            n_rejected += not ok
        for u in bad % p:
            assert ref.column_coords(u) is None, name
        n_groups += 1
    assert n_groups == 41 and n_rejected == 291


def test_gauge_above_h2_cap():
    """Groups above H2_ORDER_CAP, where h2_space is not built: the order
    243 Gbar of zassenhaus:3:3 against the B^2 span, and the order 512
    Gbar of zassenhaus:4:2 against known answers."""
    rng = np.random.default_rng(4242)
    for spec, check_ref in (("zassenhaus:3:3", True),
                            ("zassenhaus:4:2", False)):
        ext = pc.parse_family(spec).extensions[0]
        G, p = ext.Gbar, ext.p
        assert G.order > H2_ORDER_CAP
        alpha = classifying_cocycle(ext).columns
        dc = random_coboundaries(G, p, rng, 3)
        rows = [(u, True) for u in dc] + [((alpha + u) % p, False)
                                          for u in dc]
        ref = SpanReference(G, p) if check_ref else None
        for u, want in rows:
            assert is_coboundary(Cocycle2(G, u, p)) == want, spec
            if ref is not None:
                assert ref.is_coboundary(u) == want, spec


def test_loop_sums_are_the_gauge_at_the_kept_edges():
    """The lemma at `_kept_sums`: on normalized rows the loop sums are the
    reference gauge (`cocycle_tables.gauge`) at the kept edges, one row at
    a time and in a batch, on random normalized rows (mostly not
    cocycles), random coboundaries and gauged cocycles plus a coboundary,
    which pass the loop check.  On every distinct catalog (table, prime)
    and on E:2:9, E:3:6 and Heis:3xHeis:3, above H2_ORDER_CAP."""
    rng = np.random.default_rng(20260824)
    seen = set()
    cases = catalog_instances() + [
        (nm, pc.builtin_group(nm), p)
        for nm, p in (("E:2:9", 2), ("E:3:6", 3), ("Heis:3xHeis:3", 3))]
    for name, G, p in cases:
        if (G.key, p) in seen:
            continue
        seen.add((G.key, p))
        ngens = len(G.generators)
        noise = rng.integers(0, p, size=(3, G.order * ngens))
        noise[:, :ngens] = 0
        dc = random_coboundaries(G, p, rng, 2)
        cocycles = (_gauged_z2(G, p)[:2].astype(np.int64) + dc[0]) % p
        U = np.concatenate([noise, dc, cocycles])
        L, bad = cohomology._kept_sums(G, U, p)
        assert np.array_equal(
            L, gauge(G, U, p)[:, cohomology._kept_loops(G)[0]]), name
        for u, row in zip(U, L):
            assert np.array_equal(cohomology._kept_sums(G, u, p)[0], row)
        assert not bad[3:].any(), name
    assert len(seen) == 37


def test_loop_check_agrees_with_column_violations():
    """The check of `_kept_sums` flags exactly the rows that
    `_column_violations` flags, row by row: random rows, random normalized
    rows, cocycles (H^2 basis combinations plus coboundaries) and those
    cocycles with one entry moved, on every distinct catalog (table,
    prime), on EXTRA_GROUPS and on Z/1 (no generators); 228 of the 400
    seeded rows are flagged."""
    rng = np.random.default_rng(20260825)
    seen = set()
    n_flagged = 0
    cases = catalog_instances() + EXTRA_GROUPS + [
        ("Z/1", pc.builtin_group("Z/1"), 2)]
    for name, G, p in cases:
        if (G.key, p) in seen:
            continue
        seen.add((G.key, p))
        space, ngens = h2_space(G, p), len(G.generators)
        width = G.order * ngens
        noise = rng.integers(0, p, size=(4, width))
        noise[2:, :ngens] = 0
        a = rng.integers(0, p, size=(3, space.dim))
        cocycles = (a @ space.basis + random_coboundaries(G, p, rng, 3)) % p
        moved = cocycles.copy()
        if width:
            moved[np.arange(3), rng.integers(width, size=3)] += 1
        U = np.concatenate([noise, cocycles, moved % p])
        bad = cohomology._kept_sums(G, U, p)[1]
        assert np.array_equal(bad, _column_violations(G, U, p)), name
        assert not bad[4:7].any(), name
        n_flagged += int(bad.sum())
    assert len(seen) == 40 and n_flagged == 228


def test_tree_coboundary_letter_counts_match_word_images():
    """W of `_tree_coboundaries`, built by one level walk, is the word
    walk over Z/p of the unit generator images (`core.word_images`): each
    letter of every BFS word counted mod p, on every catalog group and on
    Z/1."""
    cases = catalog_instances() + [("Z/1", pc.builtin_group("Z/1"), 2)]
    for name, G, p in cases:
        W = cohomology._tree_coboundaries(dataclasses.replace(G, _cache={}),
                                          p)[0]
        ref = word_images(G.pred, pc.builtin_group(f"Z/{p}"),
                          np.eye(len(G.generators))).T
        assert W.dtype == ref.dtype and np.array_equal(W, ref), name


# ---------------------------------------------------------------------
# classifying classes of extensions
# ---------------------------------------------------------------------

def test_classifying_class_nonzero_for_nonsplit_extensions():
    # U_2(Z/2) over the Klein group is nonsplit (a split central extension
    # of an abelian group by a central kernel would be abelian)
    ext = pc.build_bar_extension(2, 2)
    alpha = classifying_cocycle(ext)
    assert not is_coboundary(alpha)
    # Z/9 over Z/3 is nonsplit
    ext = pc.build_bar_extension(1, 9)
    alpha = classifying_cocycle(ext)
    assert not is_coboundary(alpha)
    # M_27 over (Z/3)^2 is nonsplit
    ext = pc.build_mp3(3)
    assert not is_coboundary(classifying_cocycle(ext))


SHIFT_FAMILIES = ["zassenhaus:2:2", "lower-central:2:2", "zassenhaus:2:3",
                  "lower-central:2:3", "mixed:3", "zassenhaus:2:5",
                  "lower-central:2:5", "mixed:5", "zassenhaus:3:3"]


def test_classifying_class_does_not_depend_on_the_section():
    """Class independence of the section (lemma at classifying_cocycle):
    moving every nonidentity value of the section by iota(1) changes the
    defect by exactly de, e(x) = [x != 1], a coboundary; on every
    extension of the three families at p = 2, 3, 5 and of
    zassenhaus:3:3."""
    n_exts = 0
    for spec in SHIFT_FAMILIES:
        for ext in pc.parse_family(spec).extensions:
            E, G, p = ext.E, ext.Gbar, ext.p
            shifted = copy.copy(ext)
            shifted.section = ext.section.copy()
            shifted.section[1:] = E.mult[ext.section[1:], ext.iota.image[1]]
            diff = classifying_cocycle(shifted) - classifying_cocycle(ext)
            e = (np.arange(G.order) != 0).astype(np.int64)
            assert np.array_equal(diff.columns, generator_columns(
                G, coboundary_table(G, e, p))), spec
            assert is_coboundary(diff), spec
            n_exts += 1
    assert n_exts == 14


def test_section_defect_outside_the_kernel_raises():
    ext = pc.build_bar_extension(2, 2)
    bad = copy.copy(ext)
    bad.section = ext.section.copy()
    bad.section[1] = ext.section[0]           # not a section mod iota(Z)
    with pytest.raises(SectionDefectOutsideKernel):
        classifying_cocycle(bad)


def test_pullback_functoriality():
    ext = pc.build_bar_extension(2, 3)
    alpha = classifying_cocycle(ext)
    Gbar = ext.Gbar
    ident = pc.GroupHom(Gbar, Gbar, np.arange(Gbar.order))
    assert np.array_equal(pullback(alpha, ident).columns, alpha.columns)
    V = pc.builtin_group("E:3:2")
    zero = pc.GroupHom(V, Gbar, np.zeros(V.order, dtype=np.int32))
    assert not pullback(alpha, zero).columns.any()


# ---------------------------------------------------------------------
# the generator-column constructors against the table path
# ---------------------------------------------------------------------

def test_constructors_match_table_reference():
    """Every Cocycle2 constructor against its table-path reference
    (`cocycle_tables`): its columns are the reference table at the
    generator columns, and their expansion (`_expand_from_columns`) is
    the reference table (`matches_table`).  On every catalog group: cup
    and Bockstein of its characters, the H^2 basis representatives, the
    transgressions of the invariant characters of the lower p-central
    terms 2 and 3, and pullbacks of every applicable family's classifying
    cocycles along seeded homs, with the batched pullback_columns over
    every hom.  On every extension of SHIFT_FAMILIES: the classifying
    cocycle.  Each distinct (group, prime) pair once."""
    rng = np.random.default_rng(20260824)
    seen = set()
    n_checked = 0
    for name, G, p in catalog_instances():
        if (G.key, p) in seen:
            continue
        seen.add((G.key, p))
        chars = h1(G, p)
        made = [(cup(a, b), cup_table(a, b)) for a in chars for b in chars]
        made += [(bockstein(a), bockstein_table(a)) for a in chars]
        space = h2_space(G, p)
        for e in np.eye(space.dim, dtype=np.int64):
            c = space.rep(e)
            made.append((c, checked(G, expand(G, c.columns, p), p)))
        for N in pc.lower_p_central(G, p, 3).terms[1:3]:
            _, pi = pc.quotient_group(G, N)
            made += [(transgression(pi, psi), transgression_table(pi, psi))
                     for psi in conj_invariant_h1(G, N, p)]
        gens = np.asarray(G.generators, dtype=np.intp)
        for fam in applicable_families(p):
            for ext in fam.extensions:
                alpha, ref = classifying_cocycle(ext), classifying_table(ext)
                R = pc.enumerate_homs(G, ext.Gbar).images
                want = ref[R[:, :, None], R[:, None, gens]]
                assert np.array_equal(pullback_columns(alpha, R, G),
                                      want.reshape(len(R), -1)), name
                for k in rng.choice(len(R), size=min(3, len(R)),
                                    replace=False):
                    rho = pc.GroupHom(G, ext.Gbar, R[k])
                    made.append((pullback(alpha, rho),
                                 pullback_table(ref, rho, p)))
        for c, table in made:
            assert matches_table(c, table), name
        n_checked += len(made)
    n_exts = 0
    for spec in SHIFT_FAMILIES:
        for ext in pc.parse_family(spec).extensions:
            assert matches_table(classifying_cocycle(ext),
                                 classifying_table(ext)), spec
            n_exts += 1
    assert len(seen) == 34 and n_exts == 14 and n_checked == 752


# ---------------------------------------------------------------------
# cup products and Bocksteins
# ---------------------------------------------------------------------

def test_cup_bilinear_and_anticommutative():
    for nm, p in [("E:2:2", 2), ("E:3:2", 3), ("D4", 2)]:
        G = pc.builtin_group(nm)
        space = h2_space(G, p)
        chars = h1(G, p)
        for a in chars:
            for b in chars:
                ab = cup(a, b)
                # graded commutativity in degree 1: a u b = -(b u a)
                assert np.array_equal(space.coords(ab),
                                      -space.coords(cup(b, a)) % p)
                # bilinearity against a + b
                assert np.array_equal(space.coords(cup(a + b, b)),
                                      space.coords(ab + cup(b, b)))
        if p > 2:
            for a in chars:
                assert not space.coords(cup(a, a)).any()


def test_bockstein_additive_and_kummer_like():
    # on Z/4 the reduction character lifts to Z/4 -> Z/4, so Bock = 0;
    # on Z/2 the identity character does not lift, Bock is the Z/4 class
    Z4 = pc.builtin_group("Z/4")
    ch = h1(Z4, 2)[0]
    assert not h2_space(Z4, 2).coords(bockstein(ch)).any()

    Z2 = pc.builtin_group("Z/2")
    ch = h1(Z2, 2)[0]
    b = bockstein(ch)
    assert h2_space(Z2, 2).coords(b).any()
    # ... and it is exactly the classifying class of Z/2 -> Z/4 -> Z/2
    ext = pc.build_bar_extension(1, 4)
    assert np.array_equal(h2_space(Z2, 2).coords(b), h2_space(Z2, 2).coords(
        pullback(classifying_cocycle(ext),
                 pc.GroupHom(Z2, ext.Gbar, np.arange(2)))))

    # additivity
    V = pc.builtin_group("E:3:2")
    s = h2_space(V, 3)
    x, y = h1(V, 3)
    assert np.array_equal(s.coords(bockstein(x + y)),
                          s.coords(bockstein(x) + bockstein(y)))


def test_bockstein_cup_square_identity_p2():
    # at p = 2, Bock(phi) = phi u phi
    for nm in ["E:2:2", "E:2:3", "D4", "Q8"]:
        G = pc.builtin_group(nm)
        s = h2_space(G, 2)
        for ch in h1(G, 2):
            assert np.array_equal(s.coords(bockstein(ch)),
                                  s.coords(cup(ch, ch)))


def test_bockstein_independence_on_klein():
    # dim H^2((Z/2)^2) = 3 with basis Bock(x), Bock(y), x u y
    V = pc.builtin_group("E:2:2")
    s = h2_space(V, 2)
    x, y = h1(V, 2)
    M = np.stack([s.coords(bockstein(x)), s.coords(bockstein(y)),
                  s.coords(cup(x, y))])
    assert gf.rank(M, 2) == 3


# ---------------------------------------------------------------------
# transgression
# ---------------------------------------------------------------------

def test_transgression_gives_extension_class():
    # trg of a generator character of the kernel is +- the classifying class
    for ext in [pc.build_bar_extension(2, 2), pc.build_bar_extension(1, 9),
                pc.build_mp3(3)]:
        p = ext.p
        psi = Cochain1(ext.E, _kernel_character(ext), p, is_hom=False)
        t = transgression(ext.lam, psi)
        space = h2_space(ext.Gbar, p)
        alpha = classifying_cocycle(ext)
        c = space.coords(t)
        assert (np.array_equal(c, space.coords(alpha)) or
                np.array_equal(c, (-space.coords(alpha)) % p))
        assert space.coords(t).any()


def _kernel_character(ext):
    # character of the kernel copy sending iota(1) to 1, zero elsewhere
    vals = np.zeros(ext.E.order, dtype=np.int64)
    for z in range(ext.Z.order):
        vals[int(ext.iota.image[z])] = z
    return vals


def test_transgression_rejects_non_invariant_character():
    # in Heis:3 take N = <x, z> (normal, rank 2, z central); the character
    # dual to z is moved by conjugation: y x y^-1 = x z^(+-1) changes the
    # z-coordinate of x
    G = pc.builtin_group("Heis:3")
    x = G.generators[0]
    z = next(int(c) for c in pc.center(G).members if c)
    N = pc.subgroup_generated(G, [x, z])
    assert N.is_normal() and N.order == 9
    Q, pi = pc.quotient_group(G, N)
    vals = np.zeros(G.order, dtype=np.int64)
    # coordinates: N = <x> x <z>, write n = x^a z^b; psi(n) = b
    for a in range(3):
        for b in range(3):
            n = G.mul(G.power(x, a), G.power(z, b))
            vals[n] = b
    psi = Cochain1(G, vals, 3, is_hom=False)
    with pytest.raises(NotInvariant):
        transgression(pi, psi)


def test_transgression_needs_a_surjection():
    Z2, Z4 = pc.builtin_group("Z/2"), pc.builtin_group("Z/4")
    pi = pc.GroupHom(Z2, Z4, [0, 2])
    with pytest.raises(NotSurjective):
        transgression(pi, Cochain1(Z2, [0, 1], 2))


def test_cup_and_bockstein_need_characters():
    G = pc.builtin_group("Z/4")
    chi = h1(G, 2)[0]
    other = Cochain1(G, [0, 1, 0, 0], 2, is_hom=False)
    for make in (lambda: cup(chi, other), lambda: cup(other, chi),
                 lambda: bockstein(other)):
        with pytest.raises(NotACharacter):
            make()


def test_conj_invariant_h1_raises_typed_errors(monkeypatch):
    G = pc.builtin_group("D4")
    reflection = next(g for g in range(1, G.order)
                      if element_order(G, g) == 2
                      and g not in pc.center(G))
    with pytest.raises(NotNormal):
        conj_invariant_h1(G, pc.subgroup_generated(G, [reflection]), 2)
    # the dimension identity is a cross-oracle: a wrong N^p[G,N] raises
    orig = cohomology.power_commutator_subgroup
    monkeypatch.setattr(cohomology, "power_commutator_subgroup",
                        lambda G, A, m: A if A.order < G.order
                        else orig(G, A, m))
    with pytest.raises(OracleDisagreement, match=r"dim H\^1\(N\)\^G"):
        conj_invariant_h1(G, pc.center(G), 2)


def test_conj_invariant_h1_dimensions():
    # dim H^1(N)^G = log_p [N : N^p [G, N]]
    G = pc.builtin_group("D4")
    psis = conj_invariant_h1(G, pc.center(G), 2)
    assert len(psis) == 1
    G = pc.builtin_group("Heis:3")
    x = G.generators[0]
    z = next(int(c) for c in pc.center(G).members if c)
    N = pc.subgroup_generated(G, [x, z])
    psis = conj_invariant_h1(G, N, 3)
    # [G, N] = <z>, N^3 = 1, so N / N^3[G,N] has order 3
    assert len(psis) == 1
    for ps in psis:
        # invariance under conjugation by every generator
        for g in G.generators:
            conj = ps.values[G.mult[G.mult[G.inv[g], N.members], g]]
            assert np.array_equal(conj % 3, ps.values[N.members] % 3)


# ---------------------------------------------------------------------
# Massey pullback sets
# ---------------------------------------------------------------------

def test_massey_n2_equals_cup():
    for nm, p in [("E:2:2", 2), ("E:3:2", 3)]:
        V = pc.builtin_group(nm)
        s = h2_space(V, p)
        chars = h1(V, p)
        fam = pc.omega_family("zassenhaus", 2, p)
        for a in chars:
            for b in chars:
                vals = massey_pullback_set(V, 2, [a, b], fam)
                assert len(vals) == 1
                assert np.array_equal(vals[0][1], s.coords(cup(a, b)))


def test_massey_n3_contains_zero_for_defined_triple():
    # On V = (Z/2)^2, with x, y the basis of H^1, a hom V -> Ubar with
    # superdiagonal (a, b, c) exists iff a u b = 0 and b u c = 0, that is,
    # iff <a, b, c> is defined; when it is not, the set is empty.
    V = pc.builtin_group("E:2:2")
    x, y = h1(V, 2)
    fam = pc.omega_family("zassenhaus", 3, 2)
    vals = massey_pullback_set(V, 3, [x, y, x], fam)
    # x u y != 0, so <x, y, x> is not defined
    assert vals == []
    # x u x = Bock(x) = x^2 != 0 on (Z/2)^2, so <x, x, x> is not defined
    # either
    assert massey_pullback_set(V, 3, [x, x, x], fam) == []
    # <0, 0, 0> is defined and contains zero: the trivial hom lifts
    zero = Cochain1(V, np.zeros(V.order, dtype=np.int64), 2)
    vals = massey_pullback_set(V, 3, [zero, zero, zero], fam)
    assert any(not c.any() for _, c, _ in vals)


def test_massey_set_refuses_foreign_or_non_characters():
    """massey_pullback_set checks its characters as cup does: characters of
    another group, or mod another prime than the family's, raise
    MixedParents, and a cochain that is not a character raises
    NotACharacter.  Unchecked, the characters of D4 on Q8 gave one class,
    mod-2 characters with a p = 3 family none, and the non-character none."""
    Q8, D4, V = (pc.builtin_group(nm) for nm in ("Q8", "D4", "E:2:2"))
    fam = pc.parse_family("zassenhaus:2:2")
    with pytest.raises(MixedParents):
        massey_pullback_set(Q8, 2, h1(D4, 2), fam)
    with pytest.raises(MixedParents):
        massey_pullback_set(V, 2, h1(V, 2), pc.parse_family("zassenhaus:2:3"))
    bad = Cochain1(V, [0, 1, 0, 0], 2, is_hom=False)
    with pytest.raises(NotACharacter):
        massey_pullback_set(V, 2, [bad, bad], fam)
    assert len(massey_pullback_set(Q8, 2, h1(Q8, 2), fam)) >= 1


def superdiagonal(E, n):
    """(|E|, n): the superdiagonal entries of E's unitriangular matrices."""
    mats = unitriangular_matrices(E)
    return np.stack([mats[:, i, i + 1] for i in range(n)], axis=1)


def test_superdiagonal_is_the_bfs_letter_count():
    """massey_pullback_set reads the superdiagonal of Ubar_n as the BFS
    letter count W of `_tree_coboundaries`; it equals the superdiagonal of
    each section representative in E, read entry by entry."""
    for n, p in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]:
        ext = pc.omega_family("zassenhaus", n, p).extensions[0]
        W = cohomology._tree_coboundaries(ext.Gbar, p)[0]
        assert np.array_equal(W, superdiagonal(ext.E, n)[ext.section]), (n, p)


MASSEY_ORACLE_CASES = [("E:2:2", 2, 2), ("E:2:2", 3, 2), ("Z/4", 3, 2),
                       ("D4", 3, 2), ("Q8", 3, 2), ("Z/4xZ/2", 3, 2),
                       ("E:2:3", 3, 2), ("E:3:2", 2, 3), ("Z/9", 2, 3),
                       ("Heis:3", 2, 3)]


def test_massey_set_has_zero_iff_a_hom_to_E_has_the_superdiagonal():
    """Dwyer's lift criterion as an oracle with no cohomology.  For
    zassenhaus(n, p), with bar extension E -> Ubar, the set
    massey_pullback_set(Q, n, phis, fam) has the zero class iff some hom
    Q -> E (`enumerate_homs`) has superdiagonal phis: a hom to Ubar lifts
    to E iff its pullback class vanishes (the central-extension lift
    criterion), a lift keeps the superdiagonal, and every hom to E lifts
    its image in Ubar.  Every tuple of basis characters of H^1(Q) is
    tried; all three outcomes occur: undefined (an empty set), defined
    without zero, and containing zero."""
    outcomes = {"undefined": 0, "nonzero": 0, "zero": 0}
    for nm, n, p in MASSEY_ORACLE_CASES:
        Q = pc.builtin_group(nm)
        fam = pc.omega_family("zassenhaus", n, p)
        E = fam.extensions[0].E
        sd = superdiagonal(E, n)[pc.enumerate_homs(Q, E).images]
        for phis in itertools.product(h1(Q, p), repeat=n):
            want = np.stack([phi.values for phi in phis], axis=1)
            lifted = bool((sd == want).all(axis=(1, 2)).any())
            vals = massey_pullback_set(Q, n, list(phis), fam)
            has_zero = any(not v.any() for _, v, _ in vals)
            assert has_zero == lifted, (nm, n)
            outcomes["zero" if has_zero else
                     "nonzero" if vals else "undefined"] += 1
    assert outcomes == {"undefined": 58, "nonzero": 6, "zero": 9}
