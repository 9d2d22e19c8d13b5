import dataclasses

import numpy as np
import pytest

import pcohom as pc
from pcohom.core import (GroupHom, builtin_group, center, element_order,
                         exponent, group_from_json, quotient_group,
                         subgroup_generated)
from pcohom.errors import FamilyWitnessFailed, NotACentralExtension
from pcohom.unitriangular import (CentralExtension, _factor_prime_power,
                                  build_bar_extension, build_mp3,
                                  build_unitriangular, omega_family,
                                  parse_family)

from concrete_elements import unitriangular_matrices


def test_unitriangular_orders_and_structure():
    for n, m in [(1, 2), (1, 9), (2, 2), (2, 3), (2, 5), (3, 2), (2, 4)]:
        U = build_unitriangular(n, m)
        assert U.order == m ** (n * (n + 1) // 2)
    # U_1(Z/m) is cyclic
    assert exponent(build_unitriangular(1, 9)) == 9
    # U_2(Z/p) is the Heisenberg group: center and derived of order p
    for p in [2, 3, 5]:
        H = build_unitriangular(2, p)
        assert center(H).order == p
        assert pc.core.derived_subgroup(H).order == p


def test_heisenberg_exponent():
    # exponent p for odd p, 4 for p = 2
    assert exponent(build_unitriangular(2, 3)) == 3
    assert exponent(build_unitriangular(2, 5)) == 5
    assert exponent(build_unitriangular(2, 2)) == 4


def test_bar_extension_shapes():
    for n, m in [(2, 2), (2, 3), (3, 2), (1, 4), (1, 9), (2, 4)]:
        ext = build_bar_extension(n, m)
        assert ext.Z.order == ext.p
        assert ext.E.order == ext.Gbar.order * ext.p
        # section is a genuine normalized section
        assert ext.section[0] == 0
        assert np.array_equal(ext.lam.image[ext.section],
                              np.arange(ext.Gbar.order))
        # kernel copy is central and matches iota
        assert ext.lam.kernel() == ext.iota.push(ext.Z.whole())


def trivial_hom(G, U):
    return GroupHom(G, U, np.zeros(G.order, dtype=np.int32))


def test_central_extension_checks_its_maps():
    ext = build_bar_extension(2, 2)
    with pytest.raises(NotACentralExtension, match="not exact"):
        dataclasses.replace(ext, iota=trivial_hom(ext.Z, ext.E))
    for x, wrong in ((0, 1), (1, 0), (1, -1), (1, ext.E.order)):
        section = ext.section.copy()
        section[x] = wrong
        with pytest.raises(NotACentralExtension, match="section"):
            dataclasses.replace(ext, section=section)
    # S3 over A3 = Z/3 is exact, but A3 is not central
    E = group_from_json({"kind": "permutation", "degree": 3, "name": "S3",
                         "generators": [[1, 2, 0], [1, 0, 2]]})
    c = E.generators[0]
    Gbar, lam = quotient_group(E, subgroup_generated(E, [c]))
    Z = builtin_group("Z/3")
    iota = GroupHom(Z, E, np.array([E.power(c, k) for k in range(3)]))
    with pytest.raises(NotACentralExtension, match="not central"):
        CentralExtension(Z, E, Gbar, iota, lam, lam.section(), 3)


def test_family_witnesses_are_checked():
    ext = build_bar_extension(2, 2)
    for gammas in ([], [trivial_hom(ext.Gbar, ext.E)]):
        with pytest.raises(FamilyWitnessFailed, match="gammas"):
            dataclasses.replace(ext, gammas=gammas).verify_family_witnesses()
    for z_embed in (None, trivial_hom(ext.Z, ext.Gbar),
                    trivial_hom(ext.Z, ext.E)):
        with pytest.raises(FamilyWitnessFailed, match="z_embed"):
            dataclasses.replace(
                ext, z_embed=z_embed).verify_family_witnesses()


def test_bar_extension_rejects_trivial_case():
    with pytest.raises(ValueError):
        build_bar_extension(1, 2)


def test_gamma_witnesses_cut_out_identity():
    for n, m in [(2, 2), (2, 3), (3, 2), (1, 4), (2, 4), (3, 4)]:
        ext = build_bar_extension(n, m)
        kers = [g.kernel() for g in ext.gammas]
        assert pc.intersect_subgroups(kers).order == 1
        assert ext.z_embed.is_injective()


def bar_spec(ext):
    """(n, m) of a bar extension, E = U_n(Z/m): n generators, the first,
    1 + E_01, of order m."""
    return len(ext.E.generators), element_order(ext.E, ext.E.generators[0])


def matrix_ids(mats):
    """The id of each matrix of an (|G|, k, k) int64 array, by its bytes."""
    return {a.tobytes(): i for i, a in enumerate(mats)}


def reference_witnesses(ext):
    """Reference: the images of gammas, iota and z_embed as the builders
    made them, one element at a time, before they were built from
    generator images."""
    E, Gbar, lam, sec, p = ext.E, ext.Gbar, ext.lam, ext.section, ext.p

    def Zpow(G, x):                 # a hom from Z/p, by its image of 1
        return [G.power(x, k) for k in range(p)]

    if ext.label.startswith("mp3"):
        r, s = E.generators
        rp = E.power(r, p)
        srp = E.mul(s, rp)
        coords = {}
        for a in range(p):
            for b in range(p):
                coords[int(lam(E.mul(E.power(r, a), E.power(s, b))))] = (a, b)
        gamma = [E.mul(E.power(rp, coords[x][0]), E.power(srp, coords[x][1]))
                 for x in range(Gbar.order)]
        return [gamma], Zpow(E, rp), Zpow(Gbar, lam(r))
    n, m = bar_spec(ext)
    size, q = n + 1, m // p                              # q = p^(e-1)
    mats = unitriangular_matrices(E)
    ids = {E.key: matrix_ids(mats)}

    def mat_id(G, a, mod):
        if G.key not in ids:
            ids[G.key] = matrix_ids(unitriangular_matrices(G))
        return ids[G.key][np.ascontiguousarray(a % mod).tobytes()]

    def corner(value):
        a = np.eye(size, dtype=np.int64)
        a[0, n] = value
        return a

    reps = [mats[sec[x]] for x in range(Gbar.order)]
    if n == 1:
        gammas = [[mat_id(E, corner(p * int(a[0, n])), m) for a in reps]]
        w = mat_id(E, corner(q // p), m)
    else:
        rows, cols = [], []
        for a in reps:
            row, col = a.copy(), a.copy()
            row[0, 1:] = 0
            col[:n, n] = 0
            rows.append(mat_id(E, row, m))
            cols.append(mat_id(E, col, m))
        gammas = [rows, cols]
        if q > 1:
            T = pc.build_unitriangular(n, q)
            gammas.append([mat_id(T, a % q, q) for a in reps])
        sup = np.eye(size, dtype=np.int64)
        sup[0, 1] = q
        w = mat_id(E, sup, m)
    return gammas, Zpow(E, mat_id(E, corner(q), m)), Zpow(Gbar, lam(w))


def test_witnesses_from_generator_images_match_the_per_element_ones():
    """Every extension of the families at n = 2, 3 and p = 2, 3, 5, and of
    mixed(3) and mixed(5).  At n = 3, p = 5 every family builds U_3(Z/5)
    or U_2(Z/25), of order 5^6, over the closure cap."""
    specs = [(label, n, p) for label in ("zassenhaus", "lower-central")
             for n in (2, 3) for p in (2, 3, 5) if (n, p) != (3, 5)]
    specs += [("mixed", None, 3), ("mixed", None, 5)]
    seen = set()
    for spec in specs:
        for ext in pc.omega_family(*spec).extensions:
            gammas, iota, z_embed = reference_witnesses(ext)
            assert [g.image.tolist() for g in ext.gammas] == gammas, ext.label
            assert ext.iota.image.tolist() == iota, ext.label
            assert ext.z_embed.image.tolist() == z_embed, ext.label
            seen.add(ext.label)
    assert len(seen) == 14


def test_ubar_of_prime_modulus_is_elementary_for_n2():
    ext = build_bar_extension(2, 2)
    assert exponent(ext.Gbar) == 2 and ext.Gbar.order == 4
    ext3 = build_bar_extension(2, 3)
    assert exponent(ext3.Gbar) == 3 and ext3.Gbar.order == 9


def test_mp3_presentation():
    for p in [3, 5]:
        ext = build_mp3(p)
        E = ext.E
        r, s = E.generators
        assert E.order == p ** 3
        assert element_order(E, r) == p * p
        assert element_order(E, s) == p
        assert exponent(E) == p * p
        rs = E.mult[E.mult[E.inv[r], E.inv[s]], E.mult[r, s]]     # [r, s]
        assert rs == E.power(r, p)
        # quotient is elementary abelian of rank 2
        assert exponent(ext.Gbar) == p and ext.Gbar.order == p * p
        # gamma witness is an embedding (Z/p)^2 -> M_{p^3}
        assert ext.gammas[0].is_injective()


def test_mp3_rejects_even_p():
    with pytest.raises(ValueError):
        build_mp3(2)


def test_families():
    fam = omega_family("zassenhaus", 3, 2)
    assert len(fam.extensions) == 1
    assert fam.extensions[0].E.order == 64

    fam = omega_family("lower-central", 3, 2)
    assert [e.E.order for e in fam.extensions] == [8, 64, 64]
    # s = 1 member is the cyclic extension Z/p -> Z/p^n -> Z/p^(n-1)
    assert exponent(fam.extensions[0].E) == 8

    fam = omega_family("mixed", None, 3)
    assert [e.E.order for e in fam.extensions] == [9, 27]
    assert exponent(fam.extensions[1].E) == 9


def test_parse_family():
    assert parse_family("zassenhaus:2:2").label == "zassenhaus(2,2)"
    assert parse_family("lower-central:3:2").label == "lower-central(3,2)"
    assert parse_family("mixed:5").label == "mixed(5)"
    with pytest.raises(ValueError):
        parse_family("bogus:1:2")


# every (n, m) the families build at n = 2, 3 and p = 2, 3, 5
BAR_SPECS = [(1, 4), (1, 8), (1, 9), (1, 25), (1, 27), (2, 2), (2, 3),
             (2, 4), (2, 5), (2, 9), (3, 2), (3, 3)]


def test_bar_specs_are_those_the_families_build():
    specs = {bar_spec(ext) for label in ("zassenhaus", "lower-central")
             for n in (2, 3) for p in (2, 3, 5) if (n, p) != (3, 5)
             for ext in pc.omega_family(label, n, p).extensions}
    specs |= {bar_spec(pc.omega_family("mixed", None, p).extensions[0])
              for p in (3, 5)}
    assert specs == set(BAR_SPECS)


def test_section_corner_convention():
    """The kernel generator is the id of 1 + p^(e-1) E_{0n}, and the
    section picks, in each coset of the kernel, the one matrix whose
    corner entry is below p^(e-1): both read off the matrices of E, built
    by MatMod products along E's BFS words."""
    for n, m in BAR_SPECS:
        ext = build_bar_extension(n, m)
        p, e = _factor_prime_power(m)
        q = p ** (e - 1)
        mats = unitriangular_matrices(ext.E)
        corner = np.eye(n + 1, dtype=np.int64)
        corner[0, n] = q
        assert ext.iota.image[1] == matrix_ids(mats)[corner.tobytes()], \
            (n, m)
        small = np.flatnonzero(mats[:, 0, n] < q)
        want = np.full(ext.Gbar.order, -1)
        want[ext.lam.image[small]] = small
        assert np.array_equal(ext.section, want), (n, m)
        assert sorted(ext.section) == sorted(small), (n, m)
