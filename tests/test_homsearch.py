import ast
import dataclasses
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pcohom as pc
from pcohom import cohomology, homsearch
from pcohom.catalog import applicable_families, catalog_instances
from pcohom.core import (ID_DTYPE, GroupHom, _element_orders,
                         _respects_generator_edges, _table_product,
                         bfs_levels, hom_from_generator_images,
                         relator_edges, word_images)
from pcohom.errors import (BudgetExceeded, MixedParents, NotSurjective,
                           TNotInsideTbar)
from pcohom.homsearch import (DEFAULT_BUDGET, HomSet, enumerate_homs,
                              hom_count, lift_hom, t_bundle, t_subgroup)
from pcohom.pairings import cached_quotient, liftability_crosscheck
from cocycle_tables import (classifying_table, generator_columns,
                            pullback_table)
from test_acceptance import liftability_triples
from test_edge_checks import HOM_PAIRS, _u729, full_filter_prefixes


def full_enumerate_homs(G, U, *, budget=DEFAULT_BUDGET):
    """Reference: the search over every hom, with no cut to conjugacy
    class representatives and no cache."""
    ngens = len(G.generators)
    if ngens == 0:
        return HomSet(G, U, np.zeros((1, G.order), dtype=np.int32))
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
        P, img = homsearch._filter_prefixes(G, U, homsearch._extend(P, c), j)
    return HomSet(G, U, img, explored_prefixes=explored)


def cold(G):
    """G with an empty cache, so memoized searches run again."""
    return dataclasses.replace(G, _cache={})


def hom_enum_codomains(p):
    """The E and Gbar of every extension of zassenhaus:3:p and
    lower-central:3:p, one per table."""
    cods = {}
    for label in ("zassenhaus", "lower-central"):
        for ext in pc.omega_family(label, 3, p).extensions:
            for U in (ext.E, ext.Gbar):
                cods.setdefault(U.key, U)
    return list(cods.values())


@pytest.fixture(scope="module")
def reference_pairs():
    """(G, U, full_enumerate_homs(G, U)) for every catalog group of order
    <= 32 against the codomains of its prime, (E:3:2, U729), HOM_PAIRS
    and the trivial group."""
    groups = {}
    for _, G, p in catalog_instances():
        if G.order <= 32 and p in (2, 3):
            groups.setdefault(G.key, (G, p))
    pairs = [(G, U) for G, p in groups.values() for U in hom_enum_codomains(p)]
    pairs.append((pc.builtin_group("E:3:2"), _u729()))
    pairs += [(pc.builtin_group(a), pc.builtin_group(b))
              for a, b in HOM_PAIRS + [("Z/1", "D4")]]
    return [(G, U, full_enumerate_homs(G, U)) for G, U in pairs]


def test_reference_pairs_cover_nonabelian_codomains(reference_pairs):
    shrunk = []
    for G, U, ref in reference_pairs:
        F, _, _ = homsearch._reduced_homs(G, U)
        if len(F) < len(ref):
            shrunk.append((G, U))
    assert len(reference_pairs) > 150 and len(shrunk) > 50


def test_reduced_hom_memo_keeps_generator_images_and_meet(reference_pairs):
    """After t_subgroup, each memoized reduced set is its generator images
    (ngens ids per hom) plus one bool per element of G: no |G|-wide row
    per hom stays cached."""
    for G, U, _ in reference_pairs:
        t_subgroup(G, U)
        values = [v for k, v in G._cache.items() if k[0] == "_reduced_homs"]
        assert values, (G.name, U.name)
        for F, meet, explored in values:
            assert F.dtype == np.int32 and F.ndim == 2, (G.name, U.name)
            assert F.shape[1] == len(G.generators), (G.name, U.name)
            assert meet.dtype == bool and meet.shape == (G.order,)
            assert isinstance(explored, int)


def test_hom_set_matches_full_search(reference_pairs):
    """Expanding the reduced set gives the full search's matrix: the same
    rows in the same order, in the 16-bit id dtype (the full search's
    image rows are int32), and the same explored count."""
    for G, U, ref in reference_pairs:
        hs = enumerate_homs(G, U)
        assert hs.images.dtype == ID_DTYPE and ref.images.dtype == np.int32
        assert np.array_equal(hs.images, ref.images), (G.name, U.name)
        assert hs.explored_prefixes == ref.explored_prefixes, (G.name, U.name)


def test_t_subgroup_matches_full_kernel_intersection(reference_pairs):
    for G, U, ref in reference_pairs:
        want = np.flatnonzero((ref.images == 0).all(axis=0))
        assert np.array_equal(t_subgroup(G, U).members, want), (G.name, U.name)


def test_weighted_count_is_hom_count(reference_pairs):
    """Lemma 4: |Hom(G, U)| = sum over class representatives x of
    |cl(x)| * #{reduced f : f(s_1) = x}."""
    for G, U, ref in reference_pairs:
        F, _, _ = homsearch._reduced_homs(G, U)
        classes = homsearch._conjugacy_classes(U)
        if classes is None or not G.generators:
            assert np.array_equal(F, ref.images[:, G.generators])
        else:
            x = F[:, 0]
            assert (classes.rep[x] == x).all()
            reps, per_rep = np.unique(x, return_counts=True)
            assert int((classes.size[reps] * per_rep).sum()) == len(ref)
        assert hom_count(G, U) == (len(ref), ref.explored_prefixes)


def bfs_depths(pred):
    """Reference: the depth of each position of a BFS, one position at a
    time along pred."""
    depth = np.zeros(len(pred), dtype=np.int64)
    for c in range(1, len(pred)):
        depth[c] = depth[pred[c, 0]] + 1
    return depth


def test_edge_schedule_closes_each_non_tree_edge_once():
    """The edge schedule lemma (`core.closing_edges`): on every partial
    BFS of the catalog groups and of the hom-enum codomains, every
    non-tree edge (e, s) is scheduled exactly once, at the first level
    where e, tgt[e, s] and the generator s are all filled, and no tree
    edge is scheduled.  Level k of `bfs_levels` holds the positions at
    depth k + 1, so that level is the greatest depth of the three, less
    one."""
    groups = {G.key: G for _, G, _ in catalog_instances()}
    for p in (2, 3):
        groups.update((U.key, U) for U in hom_enum_codomains(p))
    checked = 0
    for G in groups.values():
        for j in range(1, len(G.generators) + 1):
            _, pred, tgt = homsearch._partial_bfs(G, j)
            t, e, g, bounds = homsearch._closing_edges(G, j)
            depth = bfs_depths(pred)
            assert len(bounds) == depth.max() + 1
            assert bounds[0] == 0 and bounds[-1] == len(t)
            level = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
            gens = tgt[0].tolist()
            got = {}
            for i in range(len(t)):
                edge = (int(e[i]), gens.index(g[i]))
                assert edge not in got and t[i] == tgt[edge], (G.name, j)
                got[edge] = int(level[i])
            tree = {(int(d), int(s)) for d, s in pred[1:]}
            want = {(x, s): int(max(depth[x], depth[tgt[x, s]], 1)) - 1
                    for x in range(len(pred)) for s in range(j)
                    if (x, s) not in tree}
            assert got == want, (G.name, j)
            checked += 1
    assert checked >= len(groups) > 30


def schedule_groups():
    """The groups of the edge schedule test: the catalog groups and the
    hom-enum codomains, one per table."""
    groups = {G.key: G for _, G, _ in catalog_instances()}
    for p in (2, 3):
        groups.update((U.key, U) for U in hom_enum_codomains(p))
    return list(groups.values())


def tree_word(pred, c):
    """Reference: the BFS word of position c, one letter at a time along
    pred."""
    word = []
    while c:
        c, s = (int(x) for x in pred[c])
        word.append(s)
    return word[::-1]


def traced_loops(pred, step, x, s):
    """Reference: the loops of the relator of the edge (x, s), with step
    the nested list of tgt.  From each position v, the (position, letter)
    occurrences of the paths v.w(x) s and v.w(x*s), traced one letter at
    a time; both end at one position, so they close a loop."""
    words = tree_word(pred, x) + [s], tree_word(pred, step[x][s])
    loops = []
    for v in range(len(pred)):
        loop = []
        for word in words:
            p = v
            for letter in word:
                loop.append((p, letter))
                p = step[p][letter]
        loops.append(loop)
    return loops


def close_by_loops(known, loops):
    """Reference: apply the deduction rule until nothing changes.  A loop
    with exactly one occurrence of an unknown edge makes that edge
    known."""
    changed = True
    while changed:
        changed = False
        for loop in loops:
            unknown = [o for o in loop if o not in known]
            if len(unknown) == 1:
                known.add(unknown[0])
                changed = True


def test_relator_basis_against_a_traced_reference():
    """The basis (`core.relator_edges`) on every partial BFS of the edge
    schedule test's groups, against a plain reference.  It is a
    sub-schedule: kept edges in closing order, each in its level's slice.
    Taking the non-tree edges in closing order, the loops of the kept edges
    before an edge, traced letter by letter from every position and closed
    by the one-unknown rule, deduce it exactly when the basis drops it.  So
    the tree and the basis close every edge."""
    checked = kept = edges = 0
    for G in schedule_groups():
        for j in range(1, len(G.generators) + 1):
            _, pred, tgt = homsearch._partial_bfs(G, j)
            t, e, g, bounds = homsearch._closing_edges(G, j)
            bt, be, bg, bb = homsearch._relator_edges(G, j)[0]
            gens = tgt[0].tolist()
            order = [(int(x), gens.index(y)) for x, y in zip(e, g.tolist())]
            basis = [(int(x), gens.index(y)) for x, y in zip(be, bg.tolist())]
            at = [order.index(edge) for edge in basis]
            assert at == sorted(at) and np.array_equal(bt, t[at])
            level = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
            assert np.array_equal(
                np.repeat(np.arange(len(bb) - 1), np.diff(bb)), level[at])
            step = tgt.tolist()
            known = {(int(d), int(s)) for d, s in pred[1:]}
            loops = []
            for edge in order:
                if edge in basis:
                    assert edge not in known, (G.name, j, edge)
                    known.add(edge)
                    loops += traced_loops(pred, step, *edge)
                    close_by_loops(known, loops)
                else:
                    assert edge in known, (G.name, j, edge)
            assert len(known) == len(pred) * j
            checked += 1
            kept += len(basis)
            edges += len(order)
    assert checked >= 75 and edges > 20 * kept


def level_survivors(pred, U, C, edges):
    """Reference: the rows of C that pass every edge of a schedule closing
    by each BFS level, one index array per level, read off image rows
    evaluated in full (no row is dropped from the walk)."""
    t, e, g, bounds = edges
    img = np.zeros((len(pred), len(C)), dtype=np.int64)
    alive = np.ones(len(C), dtype=bool)
    out = []
    for k, (lo, hi, d, s) in enumerate(bfs_levels(pred)):
        img[lo:hi] = U.mult[img[d], C[:, s].T]
        a, b = bounds[k], bounds[k + 1]
        alive &= (img[t[a:b]] == U.mult[img[e[a:b]], img[g[a:b]]]).all(
            axis=0)
        out.append(np.flatnonzero(alive))
    return out


def test_relator_basis_keeps_the_same_rows_at_every_level(monkeypatch):
    """Lemma (b) of `core.relator_edges`: on every block of prefixes that
    the search walks, for every catalog group against the E and Gbar of
    its families and for every hom-enum pair, the rows left after each BFS
    level are the same under the basis and under the full schedule."""
    calls = []
    walk = homsearch._filter_prefixes

    def spy(G, U, P, j):
        calls.append((G, U, P, j))
        return walk(G, U, P, j)

    monkeypatch.setattr(homsearch, "_filter_prefixes", spy)
    pairs = {}
    for _, G, p in catalog_instances():
        cods = [U for fam in applicable_families(p)
                for ext in fam.extensions for U in (ext.E, ext.Gbar)]
        if G.order <= 81 and p in (2, 3):
            cods += hom_enum_codomains(p)
        for U in cods:
            pairs.setdefault((G.key, U.key), (G, U))
    for G, U in pairs.values():
        t_subgroup(cold(G), U)
    dropped = 0
    for G, U, P, j in calls:
        _, pred, _ = homsearch._partial_bfs(G, j)
        full = level_survivors(pred, U, P, homsearch._closing_edges(G, j))
        basis = level_survivors(pred, U, P,
                                 homsearch._relator_edges(G, j)[0])
        for k, (a, b) in enumerate(zip(full, basis)):
            assert np.array_equal(a, b), (G.name, U.name, j, k)
        dropped += len(P) - len(full[-1])
    assert len(pairs) > 250 and len(calls) > len(pairs) and dropped > 0


def test_a_basis_short_of_its_last_edge_passes_a_non_hom():
    """Planted fault: with its last kept edge left out, the basis lets the
    walk of the last level keep a row that is no hom, which
    `core._respects_generator_edges` flags, on at least one pair; the whole
    basis keeps only homs."""
    caught = []
    for a, b in HOM_PAIRS + [("U:3:2", "U:3:2"), ("Meta:3", "Meta:3")]:
        G, U = pc.builtin_group(a), pc.builtin_group(b)
        j = len(G.generators)
        _, pred, tgt = homsearch._partial_bfs(G, j)
        t, e, g, bounds = basis = homsearch._relator_edges(G, j)[0]
        m = len(t) - 1
        short = t[:m], e[:m], g[:m], [min(x, m) for x in bounds]
        C = np.array(list(itertools.product(
            *homsearch._order_candidates(G, U))), dtype=np.int32)
        mul = _table_product(U)
        assert _respects_generator_edges(
            tgt, word_images(pred, U, C, basis), mul).all()
        if not _respects_generator_edges(
                tgt, word_images(pred, U, C, short), mul).all():
            caught.append((a, b))
    assert caught


def test_relator_basis_ratchet():
    """Meta:3 at two generators keeps at most 3 of its 82 non-tree edges.
    On the BFS of Z/1024 x Z/2, 1,024 levels deep, the relator a^1024 is
    traced once per coset of <a>, so the basis peaks near 1.3 MiB, not at
    the 16 MiB of one 1,024-edge loop per element."""
    G = pc.builtin_group("Meta:3")
    assert len(homsearch._closing_edges(G, 2)[0]) == 82
    assert len(homsearch._relator_edges(G, 2)[0][0]) <= 3
    G = pc.builtin_group("Z/1024xZ/2")
    _, pred, tgt = homsearch._partial_bfs(G, 2)
    schedule = homsearch._closing_edges(G, 2)
    assert len(schedule[3]) == 1025
    tracemalloc.start()
    try:
        basis = relator_edges(pred, tgt, schedule)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis[0]) == 3 and peak < 2 ** 21


def test_homs_compare_by_keys_and_image():
    """GroupHom equality and hash: domain key, codomain key and image.  The
    dataclass default compared image arrays and raised ValueError on
    h == h, h in homset and HomSet.index."""
    Z4, Z2, E4 = (pc.builtin_group(n) for n in ("Z/4", "Z/2", "E:2:2"))
    hs = enumerate_homs(Z4, Z4)
    h = hs[1]
    assert h == h and h == hs[1] and h != hs[2] and h != h.image
    assert h in hs and hs.index(h) == 1
    assert hash(h) == hash(hs[1])
    assert len({hs[i] for i in range(len(hs))} | {hs[1]}) == len(hs) == 4
    # the same image into another codomain is another hom
    into_z2, into_e4 = GroupHom(Z2, Z2, [0, 1]), GroupHom(Z2, E4, [0, 1])
    assert into_z2 != into_e4 and into_z2 == GroupHom(Z2, Z2, [0, 1])


def test_hom_set_takes_int_indices_only():
    """HomSet[i] takes an int (numpy ints too); a slice raises TypeError,
    not an edge-check error about the image."""
    hs = enumerate_homs(pc.builtin_group("Z/4"), pc.builtin_group("Z/4"))
    assert hs[np.int64(2)] == hs[2] and hs[-1] == hs[len(hs) - 1]
    assert list(hs) == [hs[i] for i in range(len(hs))]
    for bad in (slice(1, 3), 1.0, [1, 2]):
        with pytest.raises(TypeError):
            hs[bad]
    with pytest.raises(IndexError):
        hs[len(hs)]


def class_groups():
    """Non-abelian groups for the class tests: builtins and the non-abelian
    hom-enum codomains (orders up to 729)."""
    groups = ([pc.builtin_group(name) for name in
               ("D4", "Heis:3", "U:3:2", "Q8xZ/2", "Heis:3xZ/3")]
              + hom_enum_codomains(2) + hom_enum_codomains(3))
    return [U for U in groups if not (U.mult == U.mult.T).all()]


def test_conjugacy_classes_against_definition():
    for U in class_groups():
        classes = homsearch._conjugacy_classes(U)
        for x in range(U.order):
            cl = np.unique(U.mult[U.mult[:, x], U.inv])
            assert classes.rep[x] == cl[0] and classes.size[x] == len(cl), \
                U.name
    assert homsearch._conjugacy_classes(pc.builtin_group("E:2:3")) is None


def test_rebuild_transversal_against_definition():
    """The transversal that `enumerate_homs` builds for a class
    representative x conjugates x onto each member of cl(x) once, by
    member ascending, with the least u that does so."""
    for U in class_groups():
        for x in np.unique(homsearch._conjugacy_classes(U).rep):
            by_u = U.mult[U.mult[:, x], U.inv]
            cl = np.unique(by_u)
            t = homsearch._transversal(U, int(x))
            assert t.dtype == np.int32
            assert np.array_equal(U.mult[U.mult[t, x], U.inv[t]], cl)
            assert [int(np.flatnonzero(by_u == y)[0]) for y in cl] == \
                t.tolist()


@pytest.mark.parametrize("gname,uname", [("Meta:3", "Heis:3"),
                                         ("E:2:3", "U:3:2")])
def test_budget_parity_with_full_search(gname, uname):
    """The reduced search counts the full search's prefixes, so a budget
    is exceeded exactly when it is for the full search, with the same
    count; level 1 is the first generator's full candidate list."""
    G, U = pc.builtin_group(gname), pc.builtin_group(uname)
    assert homsearch._conjugacy_classes(U) is not None
    total = full_enumerate_homs(G, U).explored_prefixes
    level1 = int((_element_orders(G)[G.generators[0]]
                  % _element_orders(U) == 0).sum())
    for budget in (level1 - 1, level1, total - 1):
        with pytest.raises(BudgetExceeded) as want:
            full_enumerate_homs(G, U, budget=budget)
        with pytest.raises(BudgetExceeded) as got:
            enumerate_homs(cold(G), U, budget=budget)
        assert got.value.explored == want.value.explored > budget
        with pytest.raises(BudgetExceeded):
            t_subgroup(cold(G), U, budget=budget)
    assert enumerate_homs(cold(G), U, budget=total).explored_prefixes == total


def brute_hom_count(G, U):
    """Oracle: try every generator-image tuple and evaluate BFS words."""
    count = 0
    for images in itertools.product(range(U.order), repeat=len(G.generators)):
        img = np.zeros(G.order, dtype=np.int32)
        ok = True
        for x in range(1, G.order):
            pe, pg = G.pred[x]
            img[x] = U.mult[img[pe], images[pg]]
        # check multiplicativity on the whole table
        if np.array_equal(img[G.mult], U.mult[np.ix_(img, img)]):
            count += 1
    return count


def test_hom_counts_match_bruteforce():
    cases = [("Z/4", "Z/4"), ("Z/4", "D4"), ("D4", "Z/4"), ("D4", "D4"),
             ("Q8", "D4"), ("D4", "Q8"), ("E:2:2", "Q8"), ("Z/9", "Heis:3"),
             ("Heis:3", "E:3:2")]
    for a, b in cases:
        G, U = pc.builtin_group(a), pc.builtin_group(b)
        hs = enumerate_homs(G, U)
        assert len(hs) == brute_hom_count(G, U), (a, b)


def test_known_hom_counts():
    # Hom(Z/n, Z/m) has gcd(n, m) elements
    import math
    for n in [2, 4, 6, 8]:
        for m in [2, 3, 4, 9]:
            G, U = pc.builtin_group(f"Z/{n}"), pc.builtin_group(f"Z/{m}")
            assert len(enumerate_homs(G, U)) == math.gcd(n, m)
    # Hom((Z/p)^k, (Z/p)^l) = p^(kl)
    assert len(enumerate_homs(pc.builtin_group("E:2:2"),
                              pc.builtin_group("E:2:3"))) == 2 ** 6
    assert len(enumerate_homs(pc.builtin_group("E:3:2"),
                              pc.builtin_group("E:3:2"))) == 3 ** 4


def test_all_returned_maps_are_homs():
    G, U = pc.builtin_group("D4"), pc.builtin_group("U:2:2")
    for h in enumerate_homs(G, U).homs:
        h.validate()     # would raise on a non-hom


def test_hom_search_builds_no_grouphom(monkeypatch):
    """t_subgroup and len(HomSet) read the image matrix; a GroupHom (and
    its validation) is made only when an item is asked for."""
    G = pc.builtin_group("Meta:3")
    U = pc.omega_family("zassenhaus", 3, 3).extensions[0].Gbar
    calls = []
    validate = GroupHom.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(GroupHom, "validate", counted)
    T = t_subgroup(G, U)
    hs = enumerate_homs(G, U)
    assert len(hs.homs) > 1000 and T.order < G.order
    assert calls == []
    rho = hs.homs[1]
    assert len(calls) == 1 and np.array_equal(rho.image, hs.images[1])


def test_budget_exceeded():
    # a live E:2:3 of an earlier test may already hold this hom set, under
    # another budget (core.memo keys the budget)
    G = pc.builtin_group("E:2:3")
    U = pc.builtin_group("U:3:2")
    with pytest.raises(BudgetExceeded):
        enumerate_homs(G, U, budget=10)


def test_t_subgroup_examples():
    # T of Q8 with respect to U_2(Z/2) is the center {1, -1}: Q8's maximal
    # quotient embeddable in the dihedral group of order 8 is the Klein group
    Q8 = pc.builtin_group("Q8")
    T = t_subgroup(Q8, pc.build_unitriangular(2, 2))
    assert T == pc.center(Q8)
    # D4 embeds in U_2(Z/2) (they are isomorphic), so T is trivial
    D4 = pc.builtin_group("D4")
    assert t_subgroup(D4, pc.build_unitriangular(2, 2)).order == 1
    # T with respect to Z/p is the Frattini-like subgroup G^p[G,G]
    for nm, p in [("D4", 2), ("Q8", 2), ("Mp3:3", 3), ("Meta:3", 3)]:
        G = pc.builtin_group(nm)
        Zp = pc.builtin_group(f"Z/{p}")
        assert t_subgroup(G, Zp) == pc.power_commutator_subgroup(G, G.whole(), p)


def test_t_subgroup_is_intersection_of_kernels():
    G = pc.builtin_group("Mp3:3")
    U = pc.build_unitriangular(2, 3)
    hs = enumerate_homs(G, U)
    inter = set(range(G.order))
    for h in hs.homs:
        inter &= set(int(x) for x in np.nonzero(h.image == 0)[0])
    assert sorted(inter) == [int(x) for x in t_subgroup(G, U).members]


def test_t_bundle_ordering_and_normality():
    for nm, p, kind in [("Q8", 2, "zassenhaus"), ("Meta:3", 3, "lower-central"),
                        ("Mp3:3", 3, "mixed")]:
        G = pc.builtin_group(nm)
        fam = pc.omega_family(kind, None if kind == "mixed" else 2, p)
        b = t_bundle(G, fam)
        assert b.T <= b.Tbar
        assert b.T.is_normal() and b.Tbar.is_normal()
        # Tbar/T has exponent dividing p (kernel exponent bound)
        for x in b.Tbar.members:
            assert G.power(int(x), p) in b.T


def test_lift_hom_finds_lift_iff_exists():
    # quotient Z/4 -> Z/2 against the extension Z/2 -> Z/4 -> Z/2:
    # the identity of Z/2 lifts; composing with nothing else to test here,
    # use Q8 -> Q8/Z ~ Klein vs U_2(Z/2) -> Klein where no lift exists
    ext = pc.build_bar_extension(2, 2)
    Q8 = pc.builtin_group("Q8")
    Q, pi = cached_quotient(Q8, pc.center(Q8))
    found = 0
    for rho in enumerate_homs(Q, ext.Gbar).homs:
        lift = lift_hom(ext, pi, rho)
        if lift is not None:
            assert np.array_equal(ext.lam.image[lift.image],
                                  rho.image[pi.image])
            found += 1
    # the trivial map always lifts
    assert found >= 1
    # but the two surjections Klein -> Klein cannot all lift (Q8 has no
    # quotient isomorphic to D4 = U_2(Z/2))
    assert found < len(enumerate_homs(Q, ext.Gbar))


def product_lift_hom(ext, pi, rhobar):
    """Reference: the lift search before it ran the hom search's loop.  It
    builds the cartesian product of every generator's preimages under
    lambda, in lexicographic order, and filters it once, by the last
    level's walk; the first surviving row is the lift."""
    G = pi.domain
    required = rhobar.image[pi.image]
    C = np.zeros((1, 0), dtype=np.int32)
    for s in G.generators:
        pre = np.nonzero(ext.lam.image == required[s])[0].astype(np.int32)
        C = homsearch._extend(C, pre)
    kept, imgs = homsearch._filter_prefixes(G, ext.E, C, len(G.generators))
    return GroupHom(G, ext.E, imgs[0]) if len(kept) else None


def lift_level_count(ext, pi, rhobar):
    """Reference: the lift search's explored count.  Level j counts the
    tuples of the first j - 1 generators' candidates that are consistent
    on the subgroup they generate (`full_filter_prefixes`), times the j-th
    generator's candidates: the preimages of rhobar(pi(s)) whose order
    divides o(s).  The count stops after a level with no consistent
    tuple."""
    G = pi.domain
    orders = _element_orders(G)
    e_orders = _element_orders(ext.E)
    required = rhobar.image[pi.image]
    cands = [np.flatnonzero((ext.lam.image == required[s])
                            & (orders[s] % e_orders == 0)).astype(np.int32)
             for s in G.generators]
    count, P = 0, np.zeros((1, 0), dtype=np.int32)
    for j, c in enumerate(cands):
        if j and len(P):
            P = full_filter_prefixes(G, ext.E, P, j)[0]
        count += len(P) * len(c)
        if not len(P):
            break
        P = homsearch._extend(P, c)
    return count


def test_lift_search_matches_cartesian_product():
    """On every triple of acceptance criterion 3, lift_hom returns the
    cartesian-product search's lift, the least in lexicographic order, or
    None with it."""
    found = set()
    for ext, pi, rho in liftability_triples():
        got, want = lift_hom(ext, pi, rho), product_lift_hom(ext, pi, rho)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got.image, want.image)
        found.add(got is None)
    assert found == {False, True}


def test_lift_search_stays_within_the_hom_search_budget():
    """A lift explores no more prefixes than the search of Hom(G, E)
    (`hom_count`), and counts them level by level: a budget of its count
    lets it finish, and one less raises the hom search's BudgetExceeded
    with that count."""
    levels = set()
    for ext, pi, rho in liftability_triples():
        n = lift_level_count(ext, pi, rho)
        assert n <= hom_count(pi.domain, ext.E)[1]
        lift_hom(ext, pi, rho, budget=n)
        with pytest.raises(BudgetExceeded) as exc:
            lift_hom(ext, pi, rho, budget=n - 1)
        assert exc.value.explored == n
        assert str(exc.value) == f"hom search budget exceeded ({n})"
        levels.add(len(pi.domain.generators))
    assert max(levels) >= 3


def test_liftability_crosscheck_triple_agreement():
    total = 0
    for nm, p, kind in [("Q8", 2, "zassenhaus"), ("D4", 2, "zassenhaus"),
                        ("Mp3:3", 3, "mixed"), ("Z/8", 2, "lower-central")]:
        G = pc.builtin_group(nm)
        fam = pc.omega_family(kind, None if kind == "mixed" else 2, p)
        b = t_bundle(G, fam)
        Q, pi = cached_quotient(G, b.Tbar)
        for ext in fam.extensions:
            for rho in enumerate_homs(Q, ext.Gbar).homs:
                rep = liftability_crosscheck(ext, pi, rho)
                assert rep["status"] == "PASS"
                total += 1
    assert total > 50


def table_path_legs(ext, pi, rho):
    """Legs (c) and (d) of liftability_crosscheck by the table path: the
    pullback table (`cocycle_tables`), its inflation as a |G| x |G| table
    and the coboundary test of that table's generator columns, and the H^2
    coordinates of the pullback."""
    G, Q, p = pi.domain, pi.codomain, ext.p
    pulled = pullback_table(classifying_table(ext), rho, p)
    inflated = generator_columns(G, pulled[np.ix_(pi.image, pi.image)])
    c = bool(cohomology.coboundary_mask(G, inflated, p))
    _, trg = cohomology.transgression_span(G, pi, p)
    sol = trg.solve(cohomology.h2_space(Q, p).column_coords(
        generator_columns(Q, pulled)))
    return c, None if sol is None else [int(x) for x in sol]


def test_liftability_crosscheck_matches_table_path():
    """On the triples of acceptance criterion 3, the legs read off gathered
    generator columns give the table path's verdicts and coefficients."""
    verdicts = set()
    for ext, pi, rho in liftability_triples():
        rep = liftability_crosscheck(ext, pi, rho)
        c, psi = table_path_legs(ext, pi, rho)
        assert rep["inflation_vanishes"] == c
        assert rep["psi_coefficients"] == psi
        assert rep["transgression_preimage_exists"] == (psi is not None)
        verdicts.add(c)
    assert verdicts == {False, True}


def test_homsearch_imports_no_cohomology():
    """The hom and lift searches are pure group enumeration: homsearch
    imports no cohomology, at module level or inside a function; the
    liftability cross-check lives in pairings."""
    tree = ast.parse(Path(homsearch.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name for a in node.names)
    assert names and not any("cohomology" in n for n in names)


def test_liftability_crosscheck_rejects_mixed_parents():
    fam = pc.omega_family("zassenhaus", 2, 2)
    G = pc.builtin_group("Q8")
    Q, pi = cached_quotient(G, t_bundle(G, fam).Tbar)
    ext = fam.extensions[0]
    rho = enumerate_homs(G, ext.Gbar).homs[0]      # from G, not from Q
    with pytest.raises(MixedParents):
        liftability_crosscheck(ext, pi, rho)


def test_liftability_psi_coefficients_pinned():
    # two invariant characters on the kernel; the class is the
    # transgression of the second one
    G = pc.builtin_group("Meta:3")
    fam = pc.omega_family("mixed", None, 3)
    Q, pi = cached_quotient(G, t_bundle(G, fam).Tbar)
    ext = fam.extensions[0]
    rho = hom_from_generator_images(Q, ext.Gbar, [0, 1])
    rep = liftability_crosscheck(ext, pi, rho)
    assert rep["status"] == "PASS" and rep["lift_exists"]
    assert rep["psi_coefficients"] == [0, 1]


def test_t_bundle_raises_when_t_is_not_inside_tbar(monkeypatch):
    G = pc.builtin_group("Q8")
    fam = pc.omega_family("zassenhaus", 2, 2)
    Es = {ext.E.key for ext in fam.extensions}
    monkeypatch.setattr(homsearch, "t_subgroup",
                        lambda G, U, budget: G.whole() if U.key in Es
                        else pc.center(G))
    with pytest.raises(TNotInsideTbar):
        t_bundle.__wrapped__(G, fam)


def test_lift_hom_needs_a_quotient_map():
    ext = pc.build_bar_extension(2, 2)
    Q8 = pc.builtin_group("Q8")
    Q, pi = cached_quotient(Q8, pc.center(Q8))
    trivial = GroupHom(Q8, Q, np.zeros(Q8.order, dtype=np.int32))
    rho = enumerate_homs(Q, ext.Gbar).homs[0]
    with pytest.raises(NotSurjective):
        lift_hom(ext, trivial, rho)
