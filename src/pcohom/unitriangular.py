"""Unitriangular groups and the central extensions built from them.

Provides U_n(Z/m), the bar extensions 0 -> Z/p -> U_n(Z/p^e) -> Ubar -> 1
whose kernel is the order-p subgroup of the corner copy of the coefficient
ring, the order-p^3 exponent-p^2 group M_{p^3}, and the three extension
families (zassenhaus / lower-central / mixed) together with verified
witnesses for the two standing assumptions on a family:

  (I)  each quotient group Ubar carries homomorphisms (the "gammas") into
       concrete groups with trivially intersecting kernels;
  (II) the kernel Z/p embeds into Ubar.

Each witness, and each iota, is a homomorphism, so it is built from its
generator images by `core.hom_from_generator_images`, which evaluates it
along BFS words and verifies it as `GroupHom` does.  Ubar's generators
are the images of E's generators in order, as `quotient_group` keeps
their order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import (FiniteGroup, GroupHom, _matrix_group, _perm_group,
                   bfs_levels, builtin_group, center, commutators,
                   hom_from_generator_images, intersect_subgroups,
                   quotient_group, spec_ints, spec_prime, subgroup_generated)
from .errors import FamilyWitnessFailed, NotACentralExtension, SpecError


def _factor_prime_power(m: int):
    for p in range(2, m + 1):
        if m % p == 0:
            e = 0
            q = m
            while q % p == 0:
                q //= p
                e += 1
            if q != 1:
                raise SpecError(f"{m} is not a prime power")
            return p, e
    raise SpecError("modulus must be >= 2")


@functools.cache
def build_unitriangular(n: int, m: int) -> FiniteGroup:
    """U_n(Z/m): unipotent upper-triangular (n+1)x(n+1) matrices over Z/m,
    generated by the superdiagonal elementary matrices.

    They generate all m^(n(n+1)/2) of them: for i < j < k the commutator
    of 1 + E_ij and 1 + E_jk is 1 +- E_ik, so every elementary matrix
    1 + E_ik lies in the closure, and these generate U_n(Z/m)."""
    gens = np.repeat(np.eye(n + 1, dtype=np.int64)[None], n, axis=0)
    gens[np.arange(n), np.arange(n), np.arange(1, n + 1)] = 1
    return _matrix_group(gens, m, name=f"U{n}(Z/{m})")


@dataclass
class CentralExtension:
    """0 -> Z -> E -> Gbar -> 1 with Z central of order p and a chosen
    normalized set-section Gbar -> E, checked when built
    (`errors.NotACentralExtension`)."""
    Z: FiniteGroup
    E: FiniteGroup
    Gbar: FiniteGroup
    iota: GroupHom
    lam: GroupHom
    section: np.ndarray
    p: int
    label: str = ""
    gammas: list = field(default_factory=list)     # assumption (I) witnesses
    z_embed: GroupHom | None = None                # assumption (II) witness
    # (section bytes, classifying cocycle): `cohomology._extension_alpha`
    _alpha: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        z_img = np.unique(self.iota.image)
        ker = np.flatnonzero(self.lam.image == 0)
        if not (self.iota.is_injective() and self.lam.is_surjective()
                and np.array_equal(ker, z_img)):
            raise NotACentralExtension(f"{self.label}: Z -> E -> Gbar is not "
                                       "exact")
        if not np.isin(z_img, center(self.E).members).all():
            raise NotACentralExtension(f"{self.label}: iota(Z) is not central")
        s = self.section
        if not (s.shape == (self.Gbar.order,) and s[0] == 0
                and ((0 <= s) & (s < self.E.order)).all()
                and np.array_equal(self.lam.image[s],
                                   np.arange(self.Gbar.order))):
            raise NotACentralExtension(f"{self.label}: section is not a "
                                       "normalized section of lam")

    def verify_family_witnesses(self):
        """Check the stored witnesses of assumptions (I) and (II)
        (`errors.FamilyWitnessFailed`); the builders call this once, on the
        witnesses they make."""
        if not self.gammas or intersect_subgroups(
                [g.kernel() for g in self.gammas]).order != 1:
            raise FamilyWitnessFailed(f"{self.label}: the gammas' kernels "
                                      "do not meet in 1")
        z = self.z_embed
        if (z is None or z.domain.key != self.Z.key
                or z.codomain.key != self.Gbar.key or not z.is_injective()):
            raise FamilyWitnessFailed(f"{self.label}: z_embed does not embed "
                                      "Z into Gbar")


@functools.cache
def build_bar_extension(n: int, m: int) -> CentralExtension:
    """Central extension of U_n(Z/m) by the order-p subgroup of the corner.

    For m = p this is 0 -> R+ -> U_n(Z/p) -> Ubar_n(Z/p) -> 1 with the full
    corner as kernel; for m = p^e (e > 1) the kernel is p^(e-1) times the
    corner, which is the building block of the lower-central family.

    E's generators are g_1..g_n, g_i = 1 + E_{i-1,i}, in this order, and
    both the kernel and the section are read off E's tables.

    Lemma (corner): with [a, b] = a^-1 b^-1 a b, the right-nested
    commutator [g_1, [g_2, ..., [g_{n-1}, g_n]]] is 1 + E_{0n}, so its
    p^(e-1)-th power 1 + p^(e-1) E_{0n} generates the kernel; for n = 1
    the commutator is g_1 itself.  For i < j < k, E_ij E_jk = E_ik is the
    only nonzero product of two of E_ij, E_jk, E_ik, so
    [1 + E_ij, 1 + E_jk] = 1 + E_ik, and from the inside out the nest is
    1 + E_{n-2,n}, 1 + E_{n-3,n}, ..., 1 + E_{0n}.

    Lemma (first row): right multiplication by g_{s+1} = 1 + E_{s,s+1}
    adds column s to column s+1.  So the first row of d * g_{s+1} is the
    first row of d with entry s added to entry s+1, and one walk along
    E's BFS words (`core.bfs_levels`) from the identity's first row
    (1, 0, ..., 0) gives every element's corner entry, the last one."""
    p, e = _factor_prime_power(m)
    if n == 1 and e == 1:
        raise SpecError("the n=1 prime-modulus extension has a trivial quotient")
    E = build_unitriangular(n, m)
    g = E.generators
    nest = g[-1]
    for a in reversed(g[:-1]):
        nest = int(commutators(E, [a], [nest])[0, 0])
    corner_id = E.power(nest, p ** (e - 1))
    # |Zsub| = p: quotient_group checks ker lam = Zsub, and
    # CentralExtension that ker lam = iota(Z) with iota injective
    Zsub = subgroup_generated(E, [corner_id])

    Z = builtin_group(f"Z/{p}")
    iota = hom_from_generator_images(Z, E, [corner_id])
    Gbar, lam = quotient_group(E, Zsub)
    Gbar.name = f"Ubar{n}(Z/{m})"

    # section: the coset representative whose corner entry is < p^(e-1);
    # a coset shifts the corner by the p multiples of p^(e-1), so exactly
    # one member qualifies (and CentralExtension rejects a -1 left over)
    unit = np.eye(n + 1, dtype=np.int64)
    row0 = np.repeat(unit[:1], E.order, axis=0)     # first rows, filled below
    for lo, hi, d, s in bfs_levels(E.pred):
        row0[lo:hi] = (row0[d] + row0[d, s, None] * unit[s + 1]) % m
    section = np.full(Gbar.order, -1, dtype=np.int32)
    small = np.nonzero(row0[:, n] < p ** (e - 1))[0]
    section[lam.image[small]] = small

    ext = CentralExtension(Z, E, Gbar, iota, lam, section, p,
                           label=f"bar({n},{m})")

    # assumption (I) witnesses, by the images of Gbar's generators, which
    # are lam of E's superdiagonal generators g_1..g_n
    if n == 1:
        # E is cyclic Z/m; Gbar = Z/p^(e-1) embeds by multiplication by p
        gammas = [hom_from_generator_images(Gbar, E, [E.power(g[0], p)])]
    else:
        # replace the first row (resp. the last column) by the identity's
        gammas = [hom_from_generator_images(Gbar, E, [0, *g[1:]]),
                  hom_from_generator_images(Gbar, E, [*g[:-1], 0])]
        if e > 1:
            # reduction mod p^(e-1)
            T = build_unitriangular(n, p ** (e - 1))
            gammas.append(hom_from_generator_images(Gbar, T, T.generators))
    ext.gammas = gammas

    # assumption (II) witness: Z/p embeds into Gbar, by a power of g_1
    w = E.power(g[0], p ** (e - 2 if n == 1 else e - 1))
    ext.z_embed = hom_from_generator_images(Z, Gbar, [lam.image[w]])

    ext.verify_family_witnesses()
    return ext


@functools.cache
def build_mp3(p: int) -> CentralExtension:
    """M_{p^3}: the order-p^3, exponent-p^2 group with presentation
    r^(p^2) = s^p = 1, [r,s] = r^p, as the central extension
    0 -> Z/p -> M_{p^3} -> (Z/p)^2 -> 1 with r -> (1,0), s -> (0,1).

    Lemma (the presentation): r is x -> x + 1 and s is x -> u x on Z/p^2,
    u = 1 - p.  Since u^j = 1 - jp, s has order p, and r^b s^j is
    x -> u^j x + b, so E is these p^3 maps; [r, s] is x -> x + p, which
    is r^p; and for odd p, (x -> u^j x + b)^p is x -> x + pb, so the
    exponent is p^2, the order of r."""
    if p < 3 or _factor_prime_power(p) != (p, 1):
        raise SpecError("p must be an odd prime")
    q = p * p
    # affine permutations of Z/p^2: r = translation by 1, s = scaling by 1-p
    x = np.arange(q)
    E = _perm_group([(x + 1) % q, (1 - p) * x % q], name=f"M{p}^3")
    r_id, s_id = E.generators
    rp = E.power(r_id, p)

    Zsub = subgroup_generated(E, [rp])
    Z = builtin_group(f"Z/{p}")
    iota = hom_from_generator_images(Z, E, [rp])
    Gbar, lam = quotient_group(E, Zsub)
    Gbar.name = f"(Z/{p})^2"

    # section: the class of r^a s^b -> r^a s^b; the p^2 pairs fill the p^2
    # classes, or a class is left at -1 for CentralExtension to reject
    section = np.full(Gbar.order, -1, dtype=np.int32)
    for a in range(p):
        for b in range(p):
            eid = E.mul(E.power(r_id, a), E.power(s_id, b))
            section[lam.image[eid]] = eid
    ext = CentralExtension(Z, E, Gbar, iota, lam, section, p,
                           label=f"mp3({p})")

    # assumption (I): (Z/p)^2 embeds back into M_{p^3} via
    # lam(r) -> r^p, lam(s) -> s r^p; one gamma: verify_family_witnesses
    # checks that it is injective
    ext.gammas = [hom_from_generator_images(Gbar, E, [rp, E.mul(s_id, rp)])]

    # assumption (II): Z/p -> (Z/p)^2 along the first coordinate
    ext.z_embed = hom_from_generator_images(Z, Gbar, [lam.image[r_id]])
    ext.verify_family_witnesses()
    return ext


@dataclass
class OmegaFamily:
    label: str
    p: int
    n: int | None
    extensions: list      # builder-made, witnesses verified once there

    def __repr__(self):
        return f"OmegaFamily({self.label}, {len(self.extensions)} extensions)"


def omega_family(label: str, n: int | None, p: int) -> OmegaFamily:
    """The three extension families:

    - zassenhaus(n,p): the single extension over U_n(Z/p), n >= 2;
    - lower-central(n,p): the n extensions with E = U_s(Z/p^(n-s+1));
    - mixed(p): Z/p^2 over Z/p together with M_{p^3} over (Z/p)^2 (p odd).
    """
    if label in ("zassenhaus", "lower-central") and (n is None or n < 2):
        raise SpecError(f"family {label} needs n >= 2, got {n}")
    spec_prime(p)
    if label == "zassenhaus":
        exts = [build_bar_extension(n, p)]
    elif label == "lower-central":
        exts = [build_bar_extension(s, p ** (n - s + 1)) for s in range(1, n + 1)]
    elif label == "mixed":
        exts = [build_bar_extension(1, p * p), build_mp3(p)]
        n = None
    else:
        raise SpecError(f"unknown family label {label!r}")
    name = f"{label}({n},{p})" if n is not None else f"{label}({p})"
    return OmegaFamily(name, p, n, exts)


def parse_family(spec: str) -> OmegaFamily:
    """Parse 'zassenhaus:n:p', 'lower-central:n:p' or 'mixed:p'."""
    label, *fields = spec.split(":")
    if label == "mixed":
        return omega_family("mixed", None, *spec_ints(spec, fields, 1))
    return omega_family(label, *spec_ints(spec, fields, 2))
