import dataclasses
import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pcohom as pc
from pcohom import core, homsearch, magnus
from pcohom.catalog import catalog_instances
from pcohom.cli import CONVENTIONS
from pcohom.core import (DEFAULT_CAP, _bfs, _is_normal, _perm_group,
                         _powers, _residue_group, bfs_levels,
                         derived_subgroup,
                         element_order, group_from_json, group_from_table,
                         memo, subgroup_as_group, word_images)
from pcohom.errors import (ClosureCapExceeded, EdgeCheckFailed, EmptyList,
                           KernelMismatch, MixedParents, NonNormalArguments,
                           NotASubgroup, NotNormal, SpecError)
from pcohom.homsearch import _partial_bfs, t_bundle
from pcohom.magnus import free_nilpotent_standin
from pcohom.pairings import cached_quotient
from concrete_elements import (MatMod, Perm, Residue, closure, object_close,
                               product_generators, reference_generators)


# ---------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------

def test_trivial_group():
    G = pc.generate_group([0], [], None)
    assert G.order == 1 and G.generators == []
    # generators equal to the identity are dropped
    G = pc.generate_group([0, 1], [[0, 1], [0, 1]], None)
    assert G.order == 1 and G.generators == []


def test_cyclic_groups():
    for n in range(2, 12):
        G = pc.builtin_group(f"Z/{n}")
        assert G.order == n
        assert pc.is_abelian(G)
        assert pc.exponent(G) == n
        assert element_order(G, G.generators[0]) == n


def test_s3_from_permutations():
    G = _perm_group([[1, 2, 0], [1, 0, 2]])
    assert G.order == 6
    assert not pc.is_abelian(G)
    assert sorted(element_order(G, g) for g in range(6)) == [1, 2, 2, 2, 3, 3]


def test_group_axioms_hold_on_samples():
    for nm in ["D4", "Q8", "Z/9", "E:2:3", "Heis:3", "Z/4xZ/2"]:
        G = pc.builtin_group(nm)
        n = G.order
        # identity, inverses
        assert np.array_equal(G.mult[0], np.arange(n))
        assert np.array_equal(G.mult[np.arange(n), G.inv], np.zeros(n))
        # full associativity (these are all small)
        for a in range(n):
            assert np.array_equal(G.mult[G.mult[a], :], G.mult[a][G.mult])


def test_bfs_words_evaluate_to_their_element():
    # the vectorized evaluator sends every BFS word to its own element,
    # on G's BFS and on each partial BFS over the first j generators
    for nm in ["Z/1", "Z/8", "Z/256", "D4", "Q8", "E:3:2", "Heis:3",
               "Mp3:3", "Meta:3", "U:3:2", "D4xZ/2"]:
        G = pc.builtin_group(nm)
        (img,) = word_images(G.pred, G, [G.generators])
        assert np.array_equal(img, np.arange(G.order)), nm
        for j in range(len(G.generators) + 1):
            elems, pred, _ = _partial_bfs(G, j)
            (img,) = word_images(pred, G, [G.generators])
            assert np.array_equal(img, elems), (nm, j)
        # the hom search's BFS over all generators is G's own BFS
        elems, pred, tgt = _partial_bfs(G, len(G.generators))
        assert np.array_equal(elems, np.arange(G.order)), nm
        assert np.array_equal(pred, G.pred), nm
        assert np.array_equal(tgt, G.mult_gen), nm


# ---------------------------------------------------------------------
# the one walk along BFS predecessors (bfs_levels)
# ---------------------------------------------------------------------

def walk_groups():
    """Every distinct catalog table, then Z/1 (no generators) and Z/256
    (a chain of 255 one-position levels)."""
    seen = {}
    for _, G, _ in catalog_instances():
        seen.setdefault(G.key, G)
    return list(seen.values()) + [pc.builtin_group("Z/1"),
                                  pc.builtin_group("Z/256")]


def walk_preds(G):
    """G's pred and the pred of every partial BFS _partial_bfs(G, j)."""
    return [G.pred] + [_partial_bfs(G, j)[1]
                       for j in range(len(G.generators) + 1)]


def loop_mult_fill(mult_gen, pred):
    """Reference: the per-position fill of generate_group's table."""
    n = len(pred)
    mult = np.empty((n, n), dtype=np.int32)
    mult[:, 0] = np.arange(n)
    for x in range(1, n):
        mult[:, x] = mult_gen[mult[:, pred[x, 0]], pred[x, 1]]
    return mult


def loop_word_images(pred, U, C):
    """Reference: word_images one position at a time."""
    C = np.asarray(C, dtype=np.int32)
    img = np.zeros((len(pred), C.shape[0]), dtype=np.int32)
    for t in range(1, len(pred)):
        pe, pg = pred[t]
        img[t] = U.mult[img[pe], C[:, pg]]
    return img.T


def test_bfs_levels_partition_the_positions():
    for G in walk_groups():
        for pred in walk_preds(G):
            levels = list(bfs_levels(pred))
            got = [np.arange(lo, hi) for lo, hi, _, _ in levels]
            assert np.array_equal(np.concatenate([[0]] + got),
                                  np.arange(len(pred))), G
            for lo, hi, d, s in levels:
                assert lo < hi and (d < lo).all(), G
                assert np.array_equal(d, pred[lo:hi, 0]), G
                assert np.array_equal(s, pred[lo:hi, 1]), G
    assert list(bfs_levels(pc.builtin_group("Z/1").pred)) == []
    assert len(list(bfs_levels(pc.builtin_group("Z/256").pred))) == 255


def test_bfs_levels_rejects_a_parent_after_its_child():
    pred = np.array([[-1, -1], [0, 0], [3, 0], [1, 0]])
    with pytest.raises(EdgeCheckFailed):
        list(bfs_levels(pred))


def test_level_walks_match_per_position_loops():
    """generate_group's table fill and word_images, batched by level,
    against the per-position loops: the table of every walk group rebuilt
    from its left regular permutations (ids follow the same BFS), and
    word images of random generator rows on every partial BFS."""
    rng = np.random.default_rng(20260824)
    for G in walk_groups():
        ref = loop_mult_fill(G.mult_gen, G.pred)
        assert np.array_equal(ref, G.mult), G
        R = _perm_group(G.mult[G.generators])
        assert np.array_equal(R.mult, ref) and np.array_equal(R.pred, G.pred)
        C = rng.integers(0, G.order, size=(3, len(G.generators)))
        for pred in walk_preds(G):
            assert np.array_equal(word_images(pred, G, C),
                                  loop_word_images(pred, G, C)), G


def test_memo_keys():
    calls = []

    @memo
    def probe(G, U, H, fam, p, *, budget=7):
        calls.append(budget)
        return object()

    G, U = pc.builtin_group("D4"), pc.builtin_group("Z/4")
    H = pc.center(G)
    fam = pc.omega_family("zassenhaus", 2, 2)
    first = probe(G, U, H, fam, 2, budget=10)
    # equal keys: a rebuilt group, an equal subgroup and a numpy int all
    # hit the same entry
    same = probe(G, pc.builtin_group("Z/4"), pc.Subgroup(G, H.members),
                 pc.omega_family("zassenhaus", 2, 2), np.int64(2), budget=10)
    assert same is first and calls == [10]
    assert ("probe", U.key, H.members.tobytes(), fam.label, 2, 10) in G._cache
    # the budget is keyed, with its default bound: another budget is a new
    # entry, and omitting the budget is passing its default
    assert probe(G, U, H, fam, 2, budget=99) is not first
    dflt = probe(G, U, H, fam, 2)
    assert probe(G, U, H, fam, 2, budget=7) is dflt and calls == [10, 99, 7]
    # a different p, codomain, subgroup or family is a new entry
    lc = pc.omega_family("lower-central", 2, 2)
    others = [probe(G, U, H, fam, 3), probe(G, G, H, fam, 2),
              probe(G, U, G.whole(), fam, 2), probe(G, U, H, lc, 2)]
    assert len({id(o) for o in others + [first, dflt]}) == 6
    assert len(calls) == 7
    # only keyword-only arguments may be passed by name
    with pytest.raises(TypeError):
        probe(G, U, H, fam, p=2)


# ---------------------------------------------------------------------
# one memo cache per table: twins
# ---------------------------------------------------------------------

@pytest.fixture
def twins(monkeypatch):
    """An empty twin registry, so no live group of another test joins in."""
    registry = weakref.WeakValueDictionary()
    monkeypatch.setattr(core, "_TWINS", registry)
    return registry


def test_quotient_by_trivial_shares_the_cache(twins, monkeypatch):
    calls = []
    orig = homsearch.t_subgroup
    monkeypatch.setattr(homsearch, "t_subgroup",
                        lambda *a, **k: calls.append(a) or orig(*a, **k))
    G = pc.builtin_group("D4")
    fam = pc.omega_family("zassenhaus", 2, 2)
    Q, _ = cached_quotient(G, G.trivial_subgroup())
    assert Q is not G and Q == G and Q._cache is G._cache
    bundle = t_bundle(G, fam)
    assert calls and t_bundle(Q, fam) is bundle
    n = len(calls)
    # a replace bypasses _table_group: cold, and it recomputes
    cold = dataclasses.replace(G, _cache={})
    assert cold._cache is not G._cache
    assert t_bundle(cold, fam).T == bundle.T and len(calls) == 2 * n


def test_another_pred_keeps_its_own_cache(twins):
    G = pc.builtin_group("E:2:2")            # ids 1, a, b, ab
    assert G.pred.tolist() == [[-1, -1], [0, 0], [0, 1], [1, 1]]
    twin = core._table_group(G.mult, G.mult_gen, G.pred.copy(), "t")
    assert twin._cache is G._cache
    pred = np.array([[-1, -1], [0, 0], [0, 1], [2, 0]], dtype=np.int32)
    alt = core._table_group(G.mult, G.mult_gen, pred, "alt")
    assert alt == G and alt._cache is not G._cache


def test_twin_registry_drops_dead_groups(twins):
    """An entry is a cache: a twin that dies hides no live twin, and the
    entry goes when the last group holding its cache dies."""
    G = pc.builtin_group("D4")
    (entry,) = twins.keys()
    throwaway = pc.builtin_group("D4")
    assert throwaway._cache is G._cache
    del throwaway
    gc.collect()
    H = pc.builtin_group("D4")
    assert H is not G and H._cache is G._cache and twins[entry] is G._cache
    del G
    gc.collect()
    assert twins[entry] is H._cache
    del H
    gc.collect()
    assert entry not in twins


def test_a_twin_finds_the_live_catalog_group(twins):
    instances = catalog_instances()
    (D4,) = [G for nm, G, _ in instances if nm == "D4"]
    assert pc.builtin_group("D4")._cache is D4._cache


@pytest.mark.parametrize("collect", [False, True])
def test_quotients_find_live_twins_whatever_the_collector_does(twins,
                                                                collect):
    """G/Phi(G) of every catalog group is a twin of a live catalog group
    whenever one has its tables, with the collector off or run before
    every quotient."""
    instances = catalog_instances()
    live = {(G.key, G.pred.tobytes()): G._cache for _, G, _ in instances}
    found = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _, G, p in instances:
            if collect:
                gc.collect()
            Q, _ = pc.quotient_group(
                G, core.power_commutator_subgroup(G, G.whole(), p))
            cache = live.get((Q.key, Q.pred.tobytes()))
            if cache is not None:
                assert Q._cache is cache
                found += 1
    finally:
        if enabled:
            gc.enable()
    assert found >= 30


def test_the_benchmark_tracer_test_sees_a_cold_group_after_acceptance():
    """The tracer test asserts a cold H^2 build of E:2:2.  After the
    acceptance tests, a registry shared across modules would hand it the
    warm cache of a live twin; `conftest.fresh_twin_registry` keeps it
    cold."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "tests/test_acceptance.py",
         "benchmarks/test_bench.py::"
         "test_tracer_wraps_every_binding_and_restores_them"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        _residue_group([1], 10000)


def test_mixed_kinds_rejected():
    """Every generator of a JSON document is read as the document's one
    kind, so a generator of another kind or size is malformed input."""
    for doc in ({"kind": "residue", "modulus": 4, "generators": [1, [1, 0]]},
                {"kind": "permutation", "degree": 2,
                 "generators": [[1, 0], [[0, 1], [1, 0]]]}):
        with pytest.raises(SpecError):
            group_from_json(doc)


def test_known_group_signatures():
    # order, exponent, center order, derived order -- classic facts
    expected = {
        "D4": (8, 4, 2, 2),
        "Q8": (8, 4, 2, 2),
        "Heis:3": (27, 3, 3, 3),
        "Mp3:3": (27, 9, 3, 3),
        "Mp3:5": (125, 25, 5, 5),
        "Meta:3": (81, 9, 9, 3),
        "U:3:2": (64, 4, 2, 8),
        "E:3:2": (9, 3, 9, 1),
    }
    for nm, (o, e, zo, do) in expected.items():
        G = pc.builtin_group(nm)
        sig = pc.core.signature(G)
        assert (sig[0], sig[1], sig[3], sig[4]) == (o, e, zo, do), nm


def test_d4_and_q8_not_isomorphic():
    # same order/exponent/center, different order multiset
    d = pc.core.signature(pc.builtin_group("D4"))
    q = pc.core.signature(pc.builtin_group("Q8"))
    assert d[2] != q[2]
    assert sorted(q[2]) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_unitriangular_orders():
    for n, m in [(1, 4), (2, 2), (2, 3), (3, 2), (2, 4)]:
        U = pc.build_unitriangular(n, m)
        assert U.order == m ** (n * (n + 1) // 2)


# ---------------------------------------------------------------------
# subgroup calculus
# ---------------------------------------------------------------------

def test_subgroup_generated_and_lagrange():
    G = pc.builtin_group("D4")
    seen = set()
    for g in range(G.order):
        H = pc.subgroup_generated(G, [g])
        assert G.order % H.order == 0
        assert H.order == element_order(G, g)
        seen.add(H.order)
    assert seen == {1, 2, 4}


def test_center_and_derived():
    G = pc.builtin_group("D4")
    Z = pc.center(G)
    D = derived_subgroup(G)
    assert Z.order == 2 and D.order == 2
    assert Z == D     # for D4 the center is the derived subgroup
    assert Z.is_normal() and D.is_normal()


def test_normal_closure_vs_subgroup_generated():
    G = pc.builtin_group("D4")
    # a reflection generates an order-2 subgroup, non-normal;
    # its normal closure has order 4
    refl = next(g for g in range(G.order)
                if element_order(G, g) == 2 and g not in pc.center(G))
    H = pc.subgroup_generated(G, [refl])
    N = pc.normal_closure(G, [refl])
    assert H.order == 2 and not H.is_normal()
    assert N.order == 4 and N.is_normal()
    assert H <= N


def test_commutator_subgroup_requires_normal():
    G = pc.builtin_group("D4")
    refl = next(g for g in range(G.order)
                if element_order(G, g) == 2 and g not in pc.center(G))
    H = pc.subgroup_generated(G, [refl])
    for A, B in ((H, H), (H, G.whole()), (G.whole(), H)):
        with pytest.raises(NonNormalArguments):
            pc.commutator_subgroup(G, A, B)


def test_commutators_follow_the_cli_convention():
    """core.commutators against one product per pair in the convention
    that `cli.CONVENTIONS` states, [a, b] = a^-1 b^-1 a b, on a
    non-abelian group and on ragged id lists."""
    assert CONVENTIONS["commutator"] == "[a, b] = a^-1 b^-1 a b"
    G = pc.builtin_group("D4")
    x, y = [0, 1, 3], list(range(G.order))
    got = core.commutators(G, x, y)
    assert got.shape == (3, G.order)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            want = G.mul(G.mul(G.inv[a], G.inv[b]), G.mul(a, b))
            assert got[i, j] == want
    assert (got != 0).any() and core.commutators(G, [], y).shape == (0, 8)


def test_conjugates_are_g_inverse_x_g():
    """core.conjugates against one product per pair, g^-1 x g, with
    scalars and broadcast id arrays on either side."""
    G = pc.builtin_group("D4")
    g, x = np.arange(G.order)[:, None], np.arange(G.order)
    got = core.conjugates(G, g, x)
    assert got.shape == (G.order, G.order)
    for a in range(G.order):
        for b in range(G.order):
            assert got[a, b] == G.mul(G.mul(G.inv[a], b), a)
    assert (got != x).any()
    assert np.array_equal(core.conjugates(G, 3, x), got[3])
    assert np.array_equal(core.conjugates(G, g[:, 0], 5), got[:, 5])


def test_power_commutator_is_frattini_like():
    # G^2[G,G] for D4 and Q8 has index 4
    for nm in ["D4", "Q8"]:
        G = pc.builtin_group(nm)
        F = pc.power_commutator_subgroup(G, G.whole(), 2)
        assert G.order // F.order == 4


def test_intersect_and_join():
    G = pc.builtin_group("E:2:3")   # (Z/2)^3
    a = pc.subgroup_generated(G, [G.generators[0], G.generators[1]])
    b = pc.subgroup_generated(G, [G.generators[1], G.generators[2]])
    assert pc.intersect_subgroups([a, b]).order == 2
    assert pc.join_subgroups(G, [a, b]).order == 8
    with pytest.raises(EmptyList):
        pc.intersect_subgroups([])


def test_subgroups_of_another_group_are_refused(twins):
    """Inclusion, intersection and quotients need one parent key: a
    subgroup of Z/8 is not compared with, or factored out of, D4.  Twins
    share a key, so a subgroup of a twin still compares."""
    D4, Z8 = pc.builtin_group("D4"), pc.builtin_group("Z/8")
    with pytest.raises(MixedParents):
        D4.whole() <= Z8.whole()
    with pytest.raises(MixedParents):
        pc.intersect_subgroups([D4.whole(), Z8.whole()])
    with pytest.raises(MixedParents):
        pc.quotient_group(D4, Z8.trivial_subgroup())
    with pytest.raises(MixedParents):
        pc.transfer_check(D4, Z8.trivial_subgroup(),
                          pc.omega_family("zassenhaus", 2, 2))
    Q, _ = cached_quotient(D4, D4.trivial_subgroup())
    assert Q is not D4 and Q.key == D4.key
    assert Q.trivial_subgroup() <= D4.whole()
    assert pc.quotient_group(Q, D4.whole())[0].order == 1


def test_subgroup_as_group_roundtrip():
    G = pc.builtin_group("D4")
    Z4 = pc.subgroup_generated(G, [G.generators[0]])
    K, embed = pc.subgroup_as_group(G, Z4)
    assert K.order == 4 and pc.exponent(K) == 4
    # embed respects multiplication
    for a in range(K.order):
        for b in range(K.order):
            assert G.mul(int(embed[a]), int(embed[b])) == int(embed[K.mul(a, b)])


# ---------------------------------------------------------------------
# quotients and homs
# ---------------------------------------------------------------------

def test_quotient_by_center():
    G = pc.builtin_group("Q8")
    Q, proj = pc.quotient_group(G, pc.center(G))
    assert Q.order == 4 and pc.exponent(Q) == 2     # Q8/Z = Klein group
    assert proj.is_surjective()
    assert proj.kernel() == pc.center(G)


def test_quotient_requires_normal():
    G = pc.builtin_group("D4")
    refl = next(g for g in range(G.order)
                if element_order(G, g) == 2 and g not in pc.center(G))
    with pytest.raises(NotNormal):
        pc.quotient_group(G, pc.subgroup_generated(G, [refl]))


def test_quotient_by_a_non_subgroup_raises(monkeypatch):
    G = pc.builtin_group("Z/3")
    N = pc.Subgroup(G, [0, 1], check=False)     # normal, not a subgroup
    with pytest.raises(EdgeCheckFailed):
        pc.quotient_group(G, N)
    # past a hom check that lets the projection through, the kernel
    # check still catches it: ker proj = N^-1 = {0, 2}
    monkeypatch.setattr(core.GroupHom, "validate", lambda self: None)
    with pytest.raises(KernelMismatch):
        pc.quotient_group(G, N)


def test_hom_validation_rejects_non_hom():
    G = pc.builtin_group("Z/4")
    U = pc.builtin_group("Z/4")
    bad = np.array([0, 2, 1, 3])     # not multiplicative
    with pytest.raises(ValueError):
        pc.GroupHom(G, U, bad)


def test_hom_kernel_image_preimage():
    G = pc.builtin_group("Z/8")
    U = pc.builtin_group("Z/4")
    # x -> x mod 4 after matching BFS ids: ids of Z/n are residues
    h = pc.GroupHom(G, U, np.arange(8) % 4)
    assert h.kernel().order == 2
    assert h.preimage(U.trivial_subgroup()) == h.kernel()
    assert h.push(G.whole()).order == 4


def test_group_from_table_canonicalizes():
    G = pc.builtin_group("D4")
    perm = np.random.default_rng(7).permutation(G.order)
    perm = np.concatenate([[0], [x for x in perm if x != 0]])
    inv_perm = np.argsort(perm)
    shuffled = inv_perm[G.mult[np.ix_(perm, perm)]]
    gen_pos = [int(inv_perm[g]) for g in G.generators]
    H, relabel = group_from_table(shuffled, gen_pos)
    assert pc.core.signature(H) == pc.core.signature(G)


def test_group_from_json():
    G = group_from_json({"kind": "permutation", "degree": 3,
                         "generators": [[1, 2, 0], [1, 0, 2]], "name": "S3"})
    assert G.order == 6
    G2 = group_from_json({"kind": "matrix", "modulus": 3,
                          "generators": [[[1, 1], [0, 1]]]})
    assert G2.order == 3
    G3 = group_from_json({"kind": "residue", "modulus": 6, "generators": [2]})
    assert G3.order == 3


@pytest.mark.parametrize("doc, match", [
    ({"kind": "residue", "modulus": 0, "generators": [1]}, "modulus"),
    ({"kind": "matrix", "modulus": 0, "generators": [[[1]]]}, "modulus"),
    ({"kind": "residue", "modulus": [3], "generators": [1]}, "modulus"),
    ({"kind": "permutation", "degree": 0, "generators": []}, "degree"),
    ({"modulus": 3, "generators": [1]}, "kind"),
    ({"kind": "quaternion", "generators": []}, "kind"),
    ('{"kind": "residue", "modulus": 3', "JSON"),
    ("[1, 2]", "object"),
    ({"kind": "matrix", "modulus": 3,
      "generators": [[[1, 1], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
     "one shape"),
    ({"kind": "residue", "modulus": 3}, "generators"),
    ({"kind": "residue", "modulus": 3, "generators": ["one"]}, "integers"),
    ({"kind": "residue", "modulus": 3, "generators": [2 ** 70]},
     "integers"),
    ({"kind": "residue", "modulus": 3, "generators": [[1]]}, "one integer"),
    ({"kind": "permutation", "degree": 2, "generators": [[0, 0]]},
     "not a permutation"),
    ({"kind": "permutation", "degree": 3, "generators": [[1, 0]]},
     "degree mismatch"),
    ({"kind": "matrix", "modulus": 3, "generators": [[[1, 1, 0], [0, 1, 1]]]},
     "matrix must be square"),
    # -1 mod 3^39 has order 2, and 2^62 generates Z/(2^62 + 1), but int64
    # products and sums would wrap
    ({"kind": "matrix", "modulus": 3 ** 39, "generators": [[[3 ** 39 - 1]]]},
     "too large"),
    ({"kind": "residue", "modulus": 2 ** 62 + 1, "generators": [2 ** 62]},
     "too large"),
])
def test_malformed_json_raises_spec_error(doc, match):
    """Every malformed group document is one SpecError, exit code 3: a
    modulus of 0 (once ZeroDivisionError), a missing kind (KeyError), a
    text that is not JSON (JSONDecodeError), matrices of two sizes (once
    an error of exit code 1) and a modulus too large for exact int64
    arithmetic (once a wrong group) among them."""
    with pytest.raises(SpecError, match=match) as exc:
        group_from_json(doc)
    assert exc.value.exit_code == 3


def test_direct_products():
    G = pc.builtin_group("Z/4xZ/2")
    assert G.order == 8 and pc.is_abelian(G) and pc.exponent(G) == 4
    H = pc.builtin_group("D4xZ/2")
    assert H.order == 16 and pc.center(H).order == 4


def tuple_closure(factors, name):
    """Reference: the product closed by the object closure over tuples,
    from each factor's generators with the identity in the other slots,
    as `builtin_group` closed it before `core.direct_product`.  A factor's
    element g is its left-regular permutation Perm(mult[g]): ids are BFS
    positions, so any faithful image closes to the factor's own ids."""
    return closure(product_generators(
        [[Perm(F.mult[g]) for g in F.generators] for F in factors]), name)


def test_direct_product_matches_the_tuple_closure():
    """Every builtin product and E:p:k of the catalog, and the products of
    the scale tier: equal mult, generators, key and pred."""
    names = [nm for nm, _, _ in catalog_instances()
             if "x" in nm or nm.startswith("E:")]
    assert len(names) == 8
    names += ["E:2:8", "E:3:5", "Heis:3xZ/3xZ/3", "Heis:3xHeis:3",
              "Z/4xZ/4xZ/4xZ/4", "Z/8xZ/8xZ/8"]
    for nm in names:
        if nm.startswith("E:"):
            p, k = map(int, nm.split(":")[1:])
            factors = [pc.builtin_group(f"Z/{p}")] * k
        else:
            factors = [pc.builtin_group(part) for part in nm.split("x")]
        want, got = tuple_closure(factors, nm), pc.builtin_group(nm)
        assert np.array_equal(got.mult, want.mult), nm
        assert got.generators == want.generators, nm
        assert got.key == want.key, nm
        assert np.array_equal(got.pred, want.pred), nm
        assert got.name == nm


def same_group(got, want):
    return (np.array_equal(got.mult, want.mult)
            and got.generators == want.generators and got.key == want.key
            and np.array_equal(got.pred, want.pred))


# one document of each kind, each closed from the generators beside it
JSON_CASES = [
    ({"kind": "permutation", "degree": 4,
      "generators": [[1, 2, 3, 0], [0, 3, 2, 1], [1, 2, 3, 0]]},
     [Perm([1, 2, 3, 0]), Perm([0, 3, 2, 1]), Perm([1, 2, 3, 0])]),
    ({"kind": "matrix", "modulus": 4,
      "generators": [[[1, 1], [0, 1]], [[1, 0], [2, 1]], [[5, 4], [0, -3]]]},
     [MatMod([[1, 1], [0, 1]], 4), MatMod([[1, 0], [2, 1]], 4),
      MatMod([[5, 4], [0, -3]], 4)]),
    ({"kind": "residue", "modulus": 27, "generators": [0, 9, 3, 30]},
     [Residue(0, 27), Residue(9, 27), Residue(3, 27), Residue(30, 27)]),
]


def test_closure_matches_the_object_closure(monkeypatch):
    """The level-batched closure against the object closure it replaced
    (`concrete_elements.closure`): equal mult, generators, key and pred on
    every catalog builtin (Mp3:3, Mp3:5, Meta:3, D4 and Q8 among them) and
    stand-in, the E and Z of every family extension for n <= 3 at
    p = 2, 3, the stand-ins lower-central:2:2:3 and zassenhaus:2:2:4 and
    one JSON document of each kind, with repeated and identity generators.
    The stand-in of order 8,192, exactly the cap, is compared by its
    closure's mult_gen and pred, from which `generate_group` fills mult
    and the key as it does for every other group: its two tables would be
    0.5 GB."""
    cases = {nm: G for nm, G, _ in catalog_instances() if "/nc(" not in nm}
    # the catalog's order filter drops its fourth stand-in, of order 512
    for kind, k, p, n in (("zassenhaus", 3, 2, 2), ("lower-central", 2, 2, 3)):
        S = free_nilpotent_standin(k, p, kind, n)
        cases[S.name] = S
    assert len(cases) == 33
    fams = [pc.omega_family(kind, n, p)
            for kind in ("zassenhaus", "lower-central")
            for n in (2, 3) for p in (2, 3)]
    fams.append(pc.omega_family("mixed", 1, 3))
    for ext in (ext for fam in fams for ext in fam.extensions):
        # bar(n,m) extends U:n:m, mp3(p) extends Mp3:p
        kind, args = ext.label.rstrip(")").split("(")
        spec = ("U:{}:{}".format(*args.split(",")) if kind == "bar"
                else f"Mp3:{args}")
        cases[f"{ext.label}.E"] = (spec, ext.E)
        cases[f"{ext.label}.Z"] = (f"Z/{ext.p}", ext.Z)
    assert len(cases) == 55
    for label, case in cases.items():
        spec, G = case if isinstance(case, tuple) else (label, case)
        assert same_group(G, closure(reference_generators(spec))), label
    for doc, gens in JSON_CASES:
        assert same_group(group_from_json(doc), closure(gens)), doc["kind"]

    def close_only(ident, gens, step, name=""):
        mult_gen, pred = core._close(ident, gens, step)
        return SimpleNamespace(order=len(pred), mult_gen=mult_gen, pred=pred)

    monkeypatch.setattr(magnus, "generate_group", close_only)
    S = free_nilpotent_standin(2, 2, "zassenhaus", 4)
    mult_gen, pred = object_close(
        reference_generators("standin:zassenhaus:2:2:4"))
    assert S.order == DEFAULT_CAP
    assert np.array_equal(S.mult_gen, mult_gen)
    assert np.array_equal(S.pred, pred)


def test_over_cap_raises_on_both_closures():
    """Z/8193 and U_2(Z/32), of order 32,768, raise on both closures."""
    with pytest.raises(ClosureCapExceeded):
        closure([Residue(1, DEFAULT_CAP + 1)])
    with pytest.raises(ClosureCapExceeded):
        _residue_group([1], DEFAULT_CAP + 1)
    with pytest.raises(ClosureCapExceeded):
        closure(reference_generators("U:2:32"))
    with pytest.raises(ClosureCapExceeded):
        pc.build_unitriangular(2, 32)


# ---------------------------------------------------------------------
# the one table BFS against the loops it replaced
# ---------------------------------------------------------------------

def queue_bfs(table, gen_positions):
    """Reference: the queue loop group_from_table ran before core._bfs.
    Returns (old_of, pred, relabel)."""
    table = np.asarray(table, dtype=np.int32)
    n = table.shape[0]
    gen_positions = [int(g) for g in gen_positions if g != 0]
    gen_positions = [g for i, g in enumerate(gen_positions)
                     if g not in gen_positions[:i]]
    relabel = np.full(n, -1, dtype=np.int32)
    relabel[0] = 0
    old_of = [0]
    pred = [(-1, -1)]
    i = 0
    while i < len(old_of):
        x = old_of[i]
        for gi, s in enumerate(gen_positions):
            y = int(table[x, s])
            if relabel[y] < 0:
                relabel[y] = len(old_of)
                old_of.append(y)
                pred.append((i, gi))
        i += 1
    return (np.asarray(old_of, dtype=np.int32),
            np.asarray(pred, dtype=np.int32), relabel)


def queue_partial_bfs(G, j):
    """Reference: the per-element homsearch._partial_bfs before core._bfs."""
    pos = {0: 0}
    elems = [0]
    pred = [(-1, -1)]
    i = 0
    while i < len(elems):
        for gi in range(j):
            y = int(G.mult_gen[elems[i], gi])
            if y not in pos:
                pos[y] = len(elems)
                elems.append(y)
                pred.append((i, gi))
        i += 1
    tgt = np.asarray([[pos[int(G.mult_gen[e, s])] for s in range(j)]
                      for e in elems], dtype=np.int32)
    return (np.asarray(elems, dtype=np.int32),
            np.asarray(pred, dtype=np.int32), tgt)


def frontier_closure_ids(table, seed):
    """Reference: the frontier loop of core._closure_ids."""
    seed = np.unique(np.asarray(list(seed) + [0], dtype=np.int32))
    members = {0}
    frontier = np.asarray([0], dtype=np.int32)
    while frontier.size:
        prod = np.unique(table[np.ix_(frontier, seed)])
        new = np.asarray([x for x in prod if int(x) not in members],
                         dtype=np.int32)
        members.update(int(x) for x in new)
        frontier = new
    return np.asarray(sorted(members), dtype=np.int32)


def fixpoint_normal_closure(G, seed):
    """Reference: the fixpoint loop of core.normal_closure."""
    seed = set(int(x) for x in seed) | {0}
    while True:
        members = frontier_closure_ids(G.mult, seed)
        conj = G.mult[G.mult[:, members], G.inv[:, None]]
        allc = set(int(x) for x in np.unique(conj))
        if allc <= set(int(x) for x in members):
            return members
        seed = allc


def greedy_generators(table):
    """Reference: the greedy loop of core.subgroup_as_group."""
    gens = []
    closure = {0}
    for pos in range(1, len(table)):
        if pos not in closure:
            gens.append(pos)
            closure = set(int(x) for x in frontier_closure_ids(table, gens))
            if len(closure) == len(table):
                break
    return gens


def relabelled(G, rng):
    """G's table under a seeded permutation of the ids fixing 0, with its
    generators' new positions."""
    perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    inv_perm = np.argsort(perm)
    return (inv_perm[G.mult[np.ix_(perm, perm)]],
            [int(inv_perm[g]) for g in G.generators])


def bfs_cases():
    """Every catalog group, and one seeded relabelling of each table
    (rebuilt as a group) searched from shuffled generator positions with 0
    and a duplicate thrown in."""
    rng = np.random.default_rng(20260824)
    for name, G, _ in catalog_instances():
        table, gens = relabelled(G, rng)
        yield name, G.mult, list(G.generators)
        shuffled = [gens[i] for i in rng.permutation(len(gens))]
        yield f"{name}~", table, [0] + shuffled + shuffled[:1]


def test_bfs_matches_queue_loops_on_catalog_tables():
    n_cases = 0
    for name, table, gens in bfs_cases():
        old_of, pred, relabel = queue_bfs(table, gens)
        H, new_relabel = group_from_table(table, gens)
        order, new_pred = _bfs(table, list(dict.fromkeys(
            g for g in gens if g != 0)))
        assert np.array_equal(order, old_of), name
        assert np.array_equal(new_pred, pred) and new_pred.dtype == np.int32
        assert np.array_equal(new_relabel, relabel), name
        assert np.array_equal(H.pred, pred), name
        for j in range(len(H.generators) + 1):
            want = queue_partial_bfs(H, j)
            got = _partial_bfs(H, j)
            for a, b in zip(got, want):
                assert np.array_equal(a, b) and a.dtype == b.dtype, (name, j)
        n_cases += 1
    assert n_cases == 82


def one_shot_relabel(table, gen_positions):
    """Reference: the relabelled table as group_from_table made it before
    it went a chunk of rows at a time, in one np.ix_ gather."""
    old_of, _, relabel = queue_bfs(table, gen_positions)
    return relabel[np.asarray(table, dtype=np.int32)[np.ix_(old_of, old_of)]]


def test_chunked_relabel_matches_one_shot():
    """On the catalog tables (one chunk each) and on seeded relabellings
    of orders 729 (a short last chunk) and 1024 (16 chunks)."""
    rng = np.random.default_rng(20260824)
    cases = list(bfs_cases())
    for name in ("Heis:3xHeis:3", "E:2:10"):
        cases.append((name, *relabelled(pc.builtin_group(name), rng)))
    for name, table, gens in cases:
        H, _ = group_from_table(table, gens)
        assert np.array_equal(H.mult, one_shot_relabel(table, gens)), name
        assert H.mult.dtype == np.int32, name
    assert len(cases) == 84


def test_relabel_keeps_one_table_besides_the_input():
    """group_from_table on an order-1024 table traces less than 1.5 tables:
    the output, a chunk and the table check's temporaries.  The one-shot
    relabel and the key's tobytes() copy traced 13 MiB (3.3 tables)."""
    table, gens = relabelled(pc.builtin_group("E:2:10"),
                             np.random.default_rng(7))
    table = table.astype(np.int32)
    tracemalloc.start()
    try:
        group_from_table(table, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.nbytes, peak


def test_closures_match_frontier_and_fixpoint_loops():
    rng = np.random.default_rng(4242)
    for name, table, gens in bfs_cases():
        G, _ = group_from_table(table, gens)
        n = G.order
        seeds = [[], [0], [0, 0]]
        for size in (1, 2, 3):
            s = [int(x) for x in rng.integers(n, size=size)]
            seeds += [s, s + s[:1] + [0]]
        for seed in seeds:
            H = pc.subgroup_generated(G, seed)
            assert np.array_equal(H.members,
                                  frontier_closure_ids(G.mult, seed)), name
            N = pc.normal_closure(G, seed)
            assert np.array_equal(N.members,
                                  fixpoint_normal_closure(G, seed)), name
            # the materialized subgroup uses the parent's greedy generators
            for S in (H, N):
                m = S.members
                idx = np.full(n, -1, dtype=np.int32)
                idx[m] = np.arange(len(m))
                table = idx[G.mult[np.ix_(m, m)]]
                K, embed = subgroup_as_group(G, S)
                ref, relabel = group_from_table(table,
                                                greedy_generators(table))
                assert K.key == ref.key and np.array_equal(K.pred, ref.pred)
                assert np.array_equal(embed[relabel], m), name


def ix_level_bfs(table, cols):
    """Reference: the level loop of core._bfs before it gathered the
    columns once and built pred after the loop, with an np.ix_ gather,
    a first-occurrence pass and a pred block per level."""
    cols = np.asarray(cols, dtype=np.intp)
    seen = np.zeros(len(table), dtype=bool)
    seen[0] = True
    level = np.zeros(1, dtype=np.int32)
    order, pred = [level], [np.full((1, 2), -1, dtype=np.int32)]
    start = 0
    while level.size and cols.size:
        succ = table[np.ix_(level, cols)].ravel()
        fresh = np.flatnonzero(~seen[succ])
        fresh = fresh[np.sort(np.unique(succ[fresh], return_index=True)[1])]
        parent, col = np.divmod(fresh, cols.size)
        pred.append(np.stack([start + parent, col], axis=1).astype(np.int32))
        start += level.size
        level = succ[fresh].astype(np.int32)
        seen[level] = True
        order.append(level)
    return np.concatenate(order), np.concatenate(pred)


def test_bfs_matches_the_ix_level_loop():
    """The tables _bfs is given: each catalog table (and its seeded
    relabelling) from all its generators, from each one alone and from
    none; the mult_gen prefixes of the hom search; and the seed and
    conjugation columns of normal_closure.  Equal arrays and dtypes."""
    rng = np.random.default_rng(31)
    n_cases = 0
    for name, table, gens in bfs_cases():
        table = np.asarray(table, dtype=np.int32)
        gens = list(dict.fromkeys(g for g in gens if g != 0))
        G, _ = group_from_table(table, gens)
        cases = [(table, gens), (table, [])] + [(table, [g]) for g in gens]
        cases += [(G.mult_gen, range(j)) for j in range(len(gens) + 1)]
        g = np.asarray(G.generators, dtype=np.intp)
        conj = G.mult[G.mult[G.inv[g]], g[:, None]].T
        for seed in ([0], rng.integers(G.order, size=2)):
            closure = np.concatenate([G.mult[:, np.unique(seed)], conj], 1)
            cases.append((closure, range(closure.shape[1])))
        for t, cols in cases:
            for got, want in zip(_bfs(t, cols), ix_level_bfs(t, cols)):
                assert np.array_equal(got, want), (name, list(cols))
                assert got.dtype == want.dtype, (name, list(cols))
            n_cases += 1
    assert n_cases == 730


def test_inverses_along_preds_match_the_table_scan():
    """inv read along the BFS preds equals inv read off the zeros of mult,
    on every catalog table and its seeded relabelling."""
    for name, table, gens in bfs_cases():
        G, _ = group_from_table(table, gens)
        rows, cols = np.nonzero(G.mult == 0)
        assert np.array_equal(rows, np.arange(G.order)), name
        assert np.array_equal(G.inv, cols) and G.inv.dtype == np.int32, name


def test_table_group_scans_no_square_array():
    """_table_group on order-1024 tables traces less than n^2 bytes, the
    size of the n x n bool the inverse scan of mult == 0 allocated (1.07
    MB traced then, against n^2 = 1.05 MB)."""
    for nm in ("E:2:10", "U:4:2"):
        G = pc.builtin_group(nm)
        assert G.order == 1024
        tracemalloc.start()
        try:
            core._table_group(G.mult, G.mult_gen, G.pred, nm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < G.order ** 2, (nm, peak)


def frozenset_subgroup(G, members):
    """Reference: Subgroup's checks and queries on a frozenset of ids, as
    Subgroup kept them.  Returns (error or None, set)."""
    s = frozenset(int(x) for x in np.unique(np.asarray(members)))
    m = np.array(sorted(s), dtype=np.int32)
    if 0 not in s:
        return "subgroup must contain the identity", s
    if G.order % len(s):
        return "Lagrange violation: not a subgroup", s
    if not set(int(x) for x in np.unique(G.mult[np.ix_(m, m)])) <= s:
        return "set not closed under multiplication", s
    return None, s


def subgroup_cases(G, p, rng):
    """G's whole and trivial subgroups, its lower p-central and Zassenhaus
    terms, the cyclic subgroups of its first ids and a few random id sets
    (most of them not subgroups)."""
    subs = [G.whole().members, G.trivial_subgroup().members]
    for chain in (pc.lower_p_central(G, p, 4), pc.zassenhaus(G, p, 4)):
        subs += [t.members for t in chain.terms]
    subs += [pc.subgroup_generated(G, [x]).members
             for x in range(min(G.order, 8))]
    for size in (1, 2, 4, 8):
        x = rng.integers(G.order, size=min(size, G.order))
        subs += [x, np.append(x, 0), np.append(x, G.order - 1)]
    return subs


def test_subgroup_queries_match_a_frozenset_reference():
    """The closure check, `in` and `<=` against frozensets of ids on every
    catalog group.  is_normal is checked against a set reference by
    test_generator_routines_match_all_pairs_loops."""
    rng = np.random.default_rng(20260824)
    n_subgroups = n_rejected = 0
    for name, G, p in catalog_instances():
        made = []
        for members in subgroup_cases(G, p, rng):
            error, s = frozenset_subgroup(G, members)
            if error is not None:
                with pytest.raises(NotASubgroup, match=error):
                    pc.Subgroup(G, members)
                n_rejected += 1
                H = pc.Subgroup(G, members, check=False)
            else:
                H = pc.Subgroup(G, members)
                n_subgroups += 1
            for x in [-1, *range(G.order + 1), np.int64(G.order - 1)]:
                assert (x in H) == (int(x) in s), (name, x)
            made.append((H, s))
        for (A, a), (B, b) in itertools.product(made, repeat=2):
            assert (A <= B) == (a <= b), name
    assert (n_subgroups, n_rejected) == (678, 452)


# ---------------------------------------------------------------------
# normality and G^m[G, A] from the generators, against all-pairs loops
# ---------------------------------------------------------------------

def all_pairs_is_normal(G, H):
    """Reference: core._is_normal before it conjugated by the generators
    only; g m g^-1 for every g in G and m in H."""
    conj = G.mult[G.mult[:, H.members], G.inv[:, None]]
    return set(int(x) for x in np.unique(conj)) <= \
        set(int(x) for x in H.members)


def all_pairs_power_commutator(G, A, m):
    """Reference: core.power_commutator_subgroup before it took the
    commutators [s, a] at the generators s only; every [g, a]."""
    a = A.members
    g = np.arange(G.order, dtype=np.int32)
    x = G.mult[np.ix_(G.inv[g], G.inv[a])]
    y = G.mult[np.ix_(g, a)]
    comms = np.unique(G.mult[x, y])
    return pc.subgroup_generated(G, np.concatenate([_powers(G, a, m), comms]))


def all_pairs_commutator(G, A, B):
    """Reference: core.commutator_subgroup before it took the commutators
    [x, b] at the greedy generators x of A only; every [a, b]."""
    a, b = A.members, B.members
    x = G.mult[np.ix_(G.inv[a], G.inv[b])]
    y = G.mult[np.ix_(a, b)]
    return pc.subgroup_generated(G, np.unique(G.mult[x, y]))


def test_commutator_subgroup_matches_all_pairs():
    """[A, B] for every ordered pair of distinct lower p-central and
    Zassenhaus terms of every catalog group, both series run down to 1."""
    n_pairs = 0
    for name, G, p in catalog_instances():
        terms = {}
        for chain in (pc.lower_p_central(G, p, 16), pc.zassenhaus(G, p, 16)):
            assert chain.terms[-1].order == 1, name
            terms.update((t.members.tobytes(), t) for t in chain.terms)
        for A, B in itertools.product(terms.values(), repeat=2):
            assert pc.commutator_subgroup(G, A, B) == \
                all_pairs_commutator(G, A, B), name
            n_pairs += 1
    assert n_pairs == 385


def test_whole_group_is_a_checked_subgroup():
    for name, G, _ in catalog_instances():
        assert G.whole() == pc.Subgroup(G, np.arange(G.order)), name
        assert G.trivial_subgroup() == pc.Subgroup(G, [0]), name


def test_generator_routines_match_all_pairs_loops():
    """Every catalog group with its whole and trivial subgroups and its
    lower p-central and Zassenhaus terms 2-3, through both routines; then
    every cyclic subgroup through _is_normal, most of them not normal."""
    n_cases = n_not_normal = 0
    for name, G, p in catalog_instances():
        subs = [G.whole(), G.trivial_subgroup()]
        for chain in (pc.lower_p_central(G, p, 3), pc.zassenhaus(G, p, 3)):
            subs += chain.terms[1:3]
        for A in subs:
            assert _is_normal(G, A) and all_pairs_is_normal(G, A), name
            for m in (p, 1, 0):
                got = pc.power_commutator_subgroup(G, A, m)
                assert got == all_pairs_power_commutator(G, A, m), (name, m)
            n_cases += 2
        for x in range(G.order):
            H = pc.subgroup_generated(G, [x])
            want = all_pairs_is_normal(G, H)
            assert _is_normal(G, H) == want, (name, x)
            n_cases += 1
            n_not_normal += not want
    assert n_cases == 1795 and n_not_normal == 816
