import itertools

import numpy as np
import pytest

import pcohom as pc
from pcohom.core import GroupHom, hom_from_generator_images
from pcohom.errors import BudgetExceeded
from pcohom.homsearch import (enumerate_homs, lift_hom, liftability_crosscheck,
                              t_bundle, t_subgroup)
from pcohom.pairings import cached_quotient


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
