"""End-to-end acceptance checks.  Each test covers one criterion and emits a
single pass/fail line into the terminal summary (see conftest.py)."""

import hashlib
import itertools
import json
import time

import numpy as np
import pytest

import pcohom as pc
from pcohom import pairings
from pcohom.catalog import (CATALOG_SEED, _subgroup_choices,
                            applicable_families, catalog_instances,
                            transfer_sweep)
from pcohom.cohomology import (Cochain1, _extension_alpha, bockstein,
                               classifying_cocycle, coboundary_mask, cup, h1,
                               h2_space, massey_pullback_set, pullback,
                               pullback_columns)
from pcohom.core import word_images
from pcohom.homsearch import (_conjugacy_classes, _reduced_homs,
                              enumerate_homs, hom_count, t_bundle,
                              t_subgroup)
from pcohom.magnus import (counterexample_harness, lyndon_words,
                           zassenhaus_membership)
from pcohom.pairings import (a_pairing, a_space, c_pairing, cached_quotient,
                             liftability_crosscheck, pairing_kernels)
from concrete_elements import unitriangular_matrices
from conftest import ACCEPTANCE_LINES


@pytest.fixture(scope="module")
def catalog():
    """The catalog instances, built once for this module and let go after
    it, so that its 41 warm groups are not live twins (core.memo) of the
    groups later tests build afresh."""
    return catalog_instances()


def record(num, ok, detail):
    ACCEPTANCE_LINES.append(
        f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_transfer_sweep(catalog):
    t0 = time.time()
    sweep = transfer_sweep(instances=catalog)
    elapsed = time.time() - t0
    names = [nm for nm, G, p in catalog]
    required = ["D4", "Q8", "Mp3:3", "Heis:3", "U:2:2", "U:2:3", "U:3:2",
                "Z/8", "Z/27"]
    have_required = all(nm in names for nm in required)
    n_quot = sum(1 for nm in names if "/nc(" in nm)
    fams_seen = {r["family"] for r in sweep["reports"]}
    fams_expected = {f.label for p in (2, 3, 5) for f in applicable_families(p)}
    ok = (sweep["groups"] >= 25
          and all(G.order <= 128 for _, G, _ in catalog)
          and have_required
          and n_quot >= 8
          and fams_expected <= fams_seen
          and sweep["all_pass"]
          and elapsed < 600)
    record(1, ok,
           f"{sweep['groups']} groups, {sweep['checks']} transfer checks, "
           f"{sweep['failures']} failures, {n_quot} stand-in quotients, "
           f"families {sorted(fams_seen)}, {elapsed:.1f}s")


SWEEP_DIGEST = ("fbd5106b44b95b4e70654cd3cf7edffc5bb5b20dec1147703ae34abe"
                "909d205c")


def test_sweep_reports_are_pinned(catalog):
    """The sha256 of the sweep's full reports, witnesses included, is
    pinned: a change that moves a dimension or a witness but no verdict
    still shows here."""
    reports = transfer_sweep(instances=catalog)["reports"]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode())
    assert digest.hexdigest() == SWEEP_DIGEST


def sweep_pairs(catalog):
    """The distinct (G, N1, N2, p) with N1 = N and N2 = Tbar(G) that the
    sweep builds, drawn as `transfer_sweep` draws its subgroup choices;
    groups with equal tables (one `G.key`) count once."""
    rng = np.random.default_rng(CATALOG_SEED + 1)
    pairs = {}
    for _, G, p in catalog:
        for fam in applicable_families(p):
            tbar = t_bundle(G, fam).Tbar
            for _, N in _subgroup_choices(G, tbar, rng):
                key = (G.key, N.members.tobytes(), tbar.members.tobytes(), p)
                pairs.setdefault(key, (G, N, tbar, p))
    return list(pairs.values())


def log_index(Q, A, p):
    """log_p |A : A^p[Q, A]| for A normal in the p-group Q."""
    index, e = A.order // pc.power_commutator_subgroup(Q, A, p).order, 0
    while index > 1:
        index, e = index // p, e + 1
    return e


def test_five_term_dimension_identity_on_sweep_pairs(catalog):
    """The five-term sequence 0 -> H^1(Q2) -> H^1(Q1) -> H^1(K)^Q1 ->
    H^2(Q2) -> H^2(Q1), with q: Q1 = G/N1 -> Q2 = G/N2 and K = ker q, is
    exact.  So dim A = log_p |K : K^p[Q1, K]| - (log_p |Q1 : Phi(Q1)| -
    log_p |Q2 : Phi(Q2)|), with Phi(Q) = Q^p[Q, Q]; each order comes from
    `core.power_commutator_subgroup`, with no cohomology."""
    pairs = sweep_pairs(catalog)
    for G, N1, N2, p in pairs:
        q = pairings._pair(G, N1, N2, p).q
        Q1, Q2 = q.domain, q.codomain
        rhs = (log_index(Q1, q.kernel(), p) - log_index(Q1, Q1.whole(), p)
               + log_index(Q2, Q2.whole(), p))
        assert len(a_space(G, N1, N2, p)) == rhs, (G.name, N1.order, p)
    assert len(pairs) == 85


def test_lift_count_identity_on_catalog_pairs(catalog):
    """|Hom(G, E)| = p^{dim H^1(G)} * sum over the liftable reduced
    f: G -> Gbar of |cl(f(s_1))|, for every catalog group G and every
    extension E -> Gbar of its families, and, on the groups of order
    <= 64 at p = 2 and 3, of `zassenhaus(3,p)` and `lower-central(3,p)`.
    The lifts of a liftable f form a torsor under Hom(G, Z/p), through
    the central Z/p; f lifts iff f*alpha is a coboundary, alpha the
    classifying cocycle; and a reduced f stands for |cl(f(s_1))| homs
    (lemma 4 of `homsearch`), which lift or not together (lemma 3).  The
    left side comes from the search into E, the right from the search
    into Gbar, `h1` and `coboundary_mask` on the pullback columns."""
    seen = set()
    for _, G, p in catalog:
        dim_h1 = len(h1(G, p))
        fams = list(applicable_families(p))
        if G.order <= 64 and p in (2, 3):
            fams += [pc.omega_family(kind, 3, p)
                     for kind in ("zassenhaus", "lower-central")]
        for ext in (e for fam in fams for e in fam.extensions):
            if (G.key, ext.label) in seen:
                continue
            seen.add((G.key, ext.label))
            F = _reduced_homs(G, ext.Gbar)[0]
            cols = pullback_columns(_extension_alpha(ext),
                                    word_images(G.pred, ext.Gbar, F), G)
            classes = _conjugacy_classes(ext.Gbar)
            weight = (np.ones(len(F), dtype=np.int64) if classes is None
                      else classes.size[F[:, 0]])
            liftable = int(weight[coboundary_mask(G, cols, p)].sum())
            assert hom_count(G, ext.E)[0] == p ** dim_h1 * liftable, (
                G.name, ext.label)
    # 80 pairs under the sweep's families and 78 more at n = 3
    assert len(seen) == 158


def test_criterion_2_pairings_perfect(catalog):
    checked = 0
    bad = []
    for nm, G, p in catalog:
        for fam in applicable_families(p):
            bundle = t_bundle(G, fam)
            N1 = G.trivial_subgroup()
            N2 = bundle.Tbar
            fa = pairing_kernels(a_pairing(G, N1, N2, p))
            out = c_pairing(G, N1, N2, fam)
            checked += 1
            if not (fa["perfect"] and out["B_flags"]["perfect"]
                    and out["C_flags"]["perfect"]):
                bad.append((nm, fam.label))
    record(2, not bad,
           f"A/B/C pairings perfect on {checked} (group, family) instances"
           + (f"; failures: {bad}" if bad else ""))


def liftability_triples():
    """(ext, pi, rho) over the (group, family) combos below, with pi the
    quotient map by Tbar: every extension of the family with every hom rho
    from the quotient to its Gbar, 566 triples in all."""
    combos = [("Q8", "zassenhaus", 2, 2), ("D4", "zassenhaus", 2, 2),
              ("Mp3:3", "mixed", None, 3), ("Z/8", "lower-central", 2, 2),
              ("Heis:3", "mixed", None, 3), ("E:2:2", "zassenhaus", 2, 2),
              ("Z/4xZ/2", "zassenhaus", 2, 2), ("Meta:3", "mixed", None, 3),
              ("E:3:2", "zassenhaus", 2, 3), ("E:2:3", "zassenhaus", 2, 2),
              ("Heis:3", "zassenhaus", 2, 3)]
    for nm, kind, n, p in combos:
        G = pc.builtin_group(nm)
        fam = pc.omega_family(kind, n, p)
        bundle = t_bundle(G, fam)
        Q, pi = cached_quotient(G, bundle.Tbar)
        for ext in fam.extensions:
            for rho in enumerate_homs(Q, ext.Gbar).homs:
                yield ext, pi, rho


def test_criterion_3_liftability_triples():
    total = 0
    failures = 0
    for ext, pi, rho in liftability_triples():
        rep = liftability_crosscheck(ext, pi, rho)
        total += 1
        if rep["status"] != "PASS":
            failures += 1
    ok = total >= 500 and failures == 0
    record(3, ok, f"{total} (extension, projection, map) triples, "
                  f"{failures} disagreements between lift search, inflation "
                  f"vanishing, and transgression preimage")


def test_criterion_4_kernel_subgroup_identities(catalog):
    problems = []
    # T with respect to Z/p equals the second lower p-central term
    for nm, G, p in catalog:
        Zp = pc.builtin_group(f"Z/{p}")
        if t_subgroup(G, Zp) != pc.lower_p_central(G, p, 2).term(2):
            problems.append(("frattini", nm))

    small = [(nm, G, p) for nm, G, p in catalog if G.order <= 32]
    # kernel intersections against the truncated quotient match those
    # against the next-lower full unitriangular group
    for n, p in [(2, 2), (3, 2), (2, 3)]:
        ext = pc.build_bar_extension(n, p)
        Un1 = pc.build_unitriangular(n - 1, p)
        for nm, G, q in small:
            if q != p:
                continue
            if t_subgroup(G, ext.Gbar) != t_subgroup(G, Un1):
                problems.append(("truncation", n, p, nm))

    # Tbar of the lower-central family at n equals T of the family at n-1
    for nm, G, q in small:
        fam2 = pc.omega_family("lower-central", 2, q)
        if t_bundle(G, fam2).Tbar != t_subgroup(G, pc.builtin_group(f"Z/{q}")):
            problems.append(("lc-step-2", nm))
        if q == 2:
            fam3 = pc.omega_family("lower-central", 3, 2)
            if t_bundle(G, fam3).Tbar != t_bundle(G, fam2).T:
                problems.append(("lc-step-3", nm))

    # exponent bound: Tbar^p [G, Tbar] <= T for every applicable family
    for nm, G, p in catalog:
        for fam in applicable_families(p):
            b = t_bundle(G, fam)
            if not pc.power_commutator_subgroup(G, b.Tbar, p) <= b.T:
                problems.append(("exponent", nm, fam.label))
    record(4, not problems,
           f"kernel-intersection identities on {len(catalog)} groups "
           f"(Frattini description, truncated-vs-lower unitriangular, "
           f"family recursion, exponent bound)"
           + (f"; failures: {problems}" if problems else ""))


def test_criterion_5_cohomology_identities():
    problems = []

    # dimensions
    if h2_space(pc.builtin_group("Z/3"), 3).dim != 1:
        problems.append("dim H2(Z/3)")
    V2 = pc.builtin_group("E:2:2")
    s2 = h2_space(V2, 2)
    if s2.dim != 3:
        problems.append("dim H2((Z/2)^2)")
    x, y = h1(V2, 2)
    from pcohom import gf
    M = np.stack([s2.coords(bockstein(x)), s2.coords(bockstein(y)),
                  s2.coords(cup(x, y))])
    if gf.rank(M, 2) != 3:
        problems.append("Bockstein/cup basis of H2((Z/2)^2)")

    # Bockstein cup-square identity at p = 2
    for ch in h1(V2, 2):
        if not np.array_equal(s2.coords(bockstein(ch)),
                              s2.coords(cup(ch, ch))):
            problems.append("cup-square identity")

    # 2-fold external products agree with cup products (both primes)
    for nm, p in [("E:2:2", 2), ("E:3:2", 3)]:
        V = pc.builtin_group(nm)
        s = h2_space(V, p)
        fam = pc.omega_family("zassenhaus", 2, p)
        for a, b in itertools.product(h1(V, p), repeat=2):
            vals = massey_pullback_set(V, 2, [a, b], fam)
            if len(vals) != 1 or not np.array_equal(vals[0][1],
                                                    s.coords(cup(a, b))):
                problems.append(f"2-fold product vs cup at p={p}")

    # pullbacks of the two mixed-family classes, exhaustively on (Z/3)^2
    V = pc.builtin_group("E:3:2")
    s = h2_space(V, 3)
    fam = pc.omega_family("mixed", None, 3)
    cyc, mp3 = fam.extensions
    chi_cyc = unitriangular_matrices(cyc.E)[cyc.section, 0, 1]
    alpha_cyc = classifying_cocycle(cyc)
    n_a = 0
    for rho in enumerate_homs(V, cyc.Gbar).homs:
        phi = Cochain1(V, chi_cyc[rho.image], 3)
        if not np.array_equal(s.coords(pullback(alpha_cyc, rho)),
                              s.coords(bockstein(phi))):
            problems.append("cyclic pullback != Bockstein")
        n_a += 1
    alpha_mp3 = classifying_cocycle(mp3)
    bock_classes = {s.coords(bockstein(Cochain1(
        V, (c1 * h1(V, 3)[0].values + c2 * h1(V, 3)[1].values) % 3,
        3))).tobytes() for c1 in range(3) for c2 in range(3)}
    # coordinates on (Z/3)^2: the class of r^a t^b is (a, b)
    r, t = mp3.E.generators
    mp3_coords = np.zeros((mp3.Gbar.order, 2), dtype=np.int64)
    for a, b in itertools.product(range(3), repeat=2):
        mp3_coords[mp3.lam(mp3.E.mul(mp3.E.power(r, a),
                                     mp3.E.power(t, b)))] = (a, b)
    n_b = n_c = 0
    for rho in enumerate_homs(V, mp3.Gbar).homs:
        r1 = Cochain1(V, mp3_coords[rho.image, 0], 3)
        r2 = Cochain1(V, mp3_coords[rho.image, 1], 3)
        c = pullback(alpha_mp3, rho)
        if rho.is_surjective():
            n_b += 1
            if not np.array_equal(s.coords(c),
                                  s.coords(bockstein(r1) + cup(r1, r2))):
                problems.append("epi pullback != Bock + cup")
        else:
            n_c += 1
            if s.coords(c).tobytes() not in bock_classes:
                problems.append("non-epi pullback not a Bockstein")
    counts_ok = n_a == 9 and n_b == 48 and n_c == 33
    if not counts_ok:
        problems.append(f"exhaustiveness ({n_a}, {n_b}, {n_c})")
    record(5, not problems,
           f"H2 dimensions, Bockstein/cup identities, 2-fold products, and "
           f"mixed-family pullbacks ({n_a}+{n_b}+{n_c} maps checked)"
           + (f"; failures: {problems}" if problems else ""))


def test_criterion_6_counterexample_harness():
    rep = counterexample_harness(k=9, p=2)
    ok = (rep["deg2_rank"] == 36 and rep["deg2_rank_full"]
          and rep["tau12_outside_perturbed_span"]
          and rep["conjugation_invariant_deg2"]
          and rep["common_commutator_completions"] == 0
          and rep["control_k2_completions"] > 0
          and rep["induced_instance"]["transfer_report"]["status"] == "PASS"
          and rep["verdict"] == "transfer equality fails"
          and rep["elapsed_seconds"] < 300)
    record(6, ok,
           f"rank {rep['deg2_rank']}/36, separator outside perturbed span, "
           f"{rep['common_commutator_completions']} completions over "
           f"{rep['explored_prefixes']} prefixes (control k=2: "
           f"{rep['control_k2_completions']}/{rep['control_k2_explored']}), "
           f"induced instance: transfer={rep['induced_instance']['transfer_report']['side_a_transfer']}, "
           f"kernel condition={rep['induced_instance']['transfer_report']['side_b_kernel_condition']}, "
           f"{rep['elapsed_seconds']}s")


def test_criterion_7_intersection_vs_filtration():
    # on the order-81 metacyclic group the third lower 3-central term is
    # trivial, yet the intersection of the two kernel subgroups is not,
    # and the quotient by that intersection is abelian while G is not
    G = pc.builtin_group("Meta:3")
    term3 = pc.lower_p_central(G, 3, 3).term(3)
    T1 = t_subgroup(G, pc.builtin_group("Z/9"))
    T2 = t_subgroup(G, pc.build_unitriangular(2, 3))
    inter = pc.intersect_subgroups([T1, T2])
    Q, _ = pc.quotient_group(G, inter)
    ok = (term3.order == 1 and inter.order == 3
          and not pc.is_abelian(G) and pc.is_abelian(Q))
    record(7, ok,
           f"third filtration term has order {term3.order} but the kernel "
           f"intersection has order {inter.order}; quotient by the "
           f"intersection is abelian on a non-abelian group of order 81")


def test_criterion_8_words_and_membership():
    def duval(k, n):
        out, w = [], [-1]
        while w:
            w[-1] += 1
            if len(w) == n:
                out.append(tuple(w))
            m = len(w)
            while len(w) < n:
                w.append(w[-m])
            while w and w[-1] == k - 1:
                w.pop()
        return out

    counts = [len(lyndon_words(2, n)) for n in range(1, 6)]
    counts_dv = [len(duval(2, n)) for n in range(1, 6)]
    counts_ok = counts == counts_dv == [2, 1, 2, 3, 6]

    rng = np.random.default_rng(20260823)
    words = 0
    agree = 0
    while words < 1000:
        length = int(rng.integers(1, 10))
        w = [int(a) * int(s) for a, s in
             zip(rng.integers(1, 3, size=length),
                 rng.choice([-1, 1], size=length))]
        n = int(rng.integers(2, 5))
        rep = zassenhaus_membership(w, 2, 2, n)   # checks the two criteria
        words += 1
        if rep["series"] == rep["tables"]:
            agree += 1
    ok = counts_ok and agree == words
    record(8, ok,
           f"word counts {counts} by two enumerations; series and table "
           f"membership criteria agree on {agree}/{words} random words")
