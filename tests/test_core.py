import itertools

import numpy as np
import pytest

import pcohom as pc
from pcohom.core import (derived_subgroup, element_index, element_order,
                         group_from_json, group_from_table, memo, word_images)
from pcohom.elements import MatMod, Perm, Residue, perm_from_cycles
from pcohom.errors import (ClosureCapExceeded, MixedElementKinds,
                           NonNormalArguments, NotNormal)


# ---------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------

def test_trivial_group():
    G = pc.generate_group([])
    assert G.order == 1 and G.generators == []


def test_cyclic_groups():
    for n in range(2, 12):
        G = pc.builtin_group(f"Z/{n}")
        assert G.order == n
        assert pc.is_abelian(G)
        assert pc.exponent(G) == n
        assert element_order(G, G.generators[0]) == n


def test_s3_from_permutations():
    a = perm_from_cycles(3, [(0, 1, 2)])
    b = perm_from_cycles(3, [(0, 1)])
    G = pc.generate_group([a, b])
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
    G = pc.builtin_group("D4")
    for x in range(G.order):
        acc = 0
        for gi in G.words[x]:
            acc = G.mul(acc, G.generators[gi])
        assert acc == x
    # the vectorized evaluator sends every BFS word to its own element
    for nm in ["Z/1", "Z/8", "D4", "Q8", "E:3:2", "Heis:3", "Mp3:3",
               "Meta:3", "U:3:2", "D4xZ/2"]:
        G = pc.builtin_group(nm)
        (img,) = word_images(G.pred, G, [G.generators])
        assert np.array_equal(img, np.arange(G.order)), nm


def test_memo_keys():
    calls = []

    @memo
    def probe(G, U, H, fam, p, *, budget=None):
        calls.append(budget)
        return object()

    G, U = pc.builtin_group("D4"), pc.builtin_group("Z/4")
    H = pc.center(G)
    fam = pc.omega_family("zassenhaus", 2, 2)
    first = probe(G, U, H, fam, 2, budget=10)
    # equal keys: a rebuilt group, an equal subgroup, a numpy int, and
    # another budget all hit the same entry
    same = probe(G, pc.builtin_group("Z/4"), pc.Subgroup(G, H.members),
                 pc.omega_family("zassenhaus", 2, 2), np.int64(2), budget=99)
    assert same is first and calls == [10]
    assert ("probe", U.key, H.members.tobytes(), fam.label, 2) in G._cache
    # a different p, codomain, subgroup or family is a new entry
    lc = pc.omega_family("lower-central", 2, 2)
    others = [probe(G, U, H, fam, 3), probe(G, G, H, fam, 2),
              probe(G, U, G.whole(), fam, 2), probe(G, U, H, lc, 2)]
    assert len({id(o) for o in others + [first]}) == 5
    assert len(calls) == 5
    # only keyword-only arguments may be passed by name
    with pytest.raises(TypeError):
        probe(G, U, H, fam, p=2)


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        pc.generate_group([Residue(1, 10000)], cap=100)


def test_mixed_kinds_rejected():
    with pytest.raises(MixedElementKinds):
        pc.generate_group([Residue(1, 4), Perm([1, 0])])


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
    with pytest.raises(NonNormalArguments):
        pc.commutator_subgroup(G, H, H)


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
    assert h.image_subgroup().order == 4
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


def test_direct_products():
    G = pc.builtin_group("Z/4xZ/2")
    assert G.order == 8 and pc.is_abelian(G) and pc.exponent(G) == 4
    H = pc.builtin_group("D4xZ/2")
    assert H.order == 16 and pc.center(H).order == 4


def test_element_index():
    G = pc.builtin_group("Q8")
    idx = element_index(G)
    for i, e in enumerate(G.elements):
        assert idx[e] == i
