import numpy as np
import pytest

import pcohom as pc
from pcohom import magnus
from pcohom.errors import (ClosureCapExceeded, OracleDisagreement,
                           SpecError, WordTooShort)
from pcohom.magnus import (_distinct_commutator_search, _inv_word,
                           counterexample_harness, evaluation_epi,
                           free_nilpotent_standin, lyndon_words,
                           magnus_image, tau, zassenhaus_membership)
from pcohom.unitriangular import build_unitriangular
from concrete_elements import Series


def duval_lyndon(k, n):
    """Oracle: Duval's algorithm generating all Lyndon words of length <= n
    in lexicographic order; keep those of length exactly n."""
    out = []
    w = [-1]
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


# ---------------------------------------------------------------------
# series arithmetic
# ---------------------------------------------------------------------

def unit_row(k, deg):
    return np.eye(1, sum(k ** d for d in range(deg + 1)), dtype=np.int64)[0]


def series_row(s, k):
    """The coefficient row of a reference `Series`: the monomial w of
    degree d at 1 + k + ... + k^(d-1) plus its lexicographic index."""
    row = np.zeros(sum(k ** d for d in range(s.deg + 1)), dtype=np.int64)
    for w, c in s.coeffs.items():
        t = 0
        for a in w:
            t = t * k + a - 1
        row[sum(k ** d for d in range(len(w))) + t] = c
    return row


def test_series_basics():
    # 1 + x1 over k = 2 up to degree 4: positions 0 and 1
    assert np.flatnonzero(magnus_image([1], 2, 3, 4)).tolist() == [0, 1]
    # a word followed by its inverse is the identity series
    for w in [[1], [1, 2], [2, -1, 1, 2], [-2, 1, 1]]:
        full = w + _inv_word(w)
        assert np.array_equal(magnus_image(full, 2, 3, 4), unit_row(2, 4))
    # product expands freely: (1+x1)(1+x2) = 1 + x1 + x2 + x1 x2, with x1 x2
    # at 1 + k + 1 = 4
    s12 = magnus_image([1, 2], 2, 5, 3)
    assert np.flatnonzero(s12).tolist() == [0, 1, 2, 4] and s12.sum() == 4
    # truncation really truncates: 1 + 2 + 4 monomials up to degree 2
    assert magnus_image([1, 1, 1], 2, 5, 2).shape == (7,)
    assert magnus_image([], 3, 2, 0).tolist() == [1]


def test_series_component_vector_order():
    # the top degree is the row's tail, lexicographic: x_a x_b at
    # (a-1)*k + (b-1)
    k = 3
    v = magnus_image([1, 2], k, 5, 2)[-k * k:]
    assert v.shape == (9,)
    assert v[0 * k + 1] == 1 and v.sum() == 1


def test_series_rejects_bad_letters():
    with pytest.raises(SpecError):
        magnus_image([3], 2, 2, 2)
    with pytest.raises(SpecError):
        magnus_image([0], 2, 2, 2)
    with pytest.raises(SpecError):
        magnus_image([-3], 2, 2, 2)


def test_magnus_image_matches_the_reference_series():
    """On seeded words, the row equals the product of the reference
    `Series` generators: 1 + x_i for a letter i, and sum over j <= deg of
    (-x_i)^j for -i.  On mixed-sign words w, w w^-1 is the unit row."""
    rng = np.random.default_rng(20261020)
    for trial in range(300):
        k, deg = int(rng.integers(1, 4)), int(rng.integers(0, 5))
        p = int(rng.choice([2, 3, 5, 7]))
        signs = [1] * 8 if trial < 150 else rng.choice([-1, 1], size=8)
        w = [int(a) * int(s) for a, s in
             zip(rng.integers(1, k + 1, size=int(rng.integers(0, 9))),
                 signs)]
        ref = Series({(): 1}, p, deg, k)
        for a in w:
            i = abs(a)
            ref = ref * (Series({(): 1, (i,): 1}, p, deg, k) if a > 0 else
                         Series({(i,) * j: (-1) ** j for j in range(deg + 1)},
                                p, deg, k))
        assert np.array_equal(magnus_image(w, k, p, deg),
                              series_row(ref, k)), (w, k, p, deg)
        assert np.array_equal(magnus_image(w + _inv_word(w), k, p, deg),
                              unit_row(k, deg)), (w, k, p, deg)


# ---------------------------------------------------------------------
# Lyndon words
# ---------------------------------------------------------------------

def test_lyndon_counts_two_enumerations():
    # necklace-counting values for k = 2: 2, 1, 2, 3, 6
    expect = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}
    for n, cnt in expect.items():
        filt = lyndon_words(2, n)
        duv = duval_lyndon(2, n)
        assert len(filt) == cnt
        assert sorted(filt) == sorted(duv)
    # and a three-letter cross-check: (3^2 - 3)/2 = 3 words of length 2
    assert sorted(lyndon_words(3, 2)) == sorted(duval_lyndon(3, 2))
    assert len(lyndon_words(3, 2)) == 3
    with pytest.raises(WordTooShort):
        lyndon_words(2, 0)


def test_tau_is_right_nested():
    assert tau((0,)) == [1]
    assert tau((0, 1)) == [-1, -2, 1, 2]
    # [a, [b, c]] with a=1, b=2, c=3
    inner = [-2, -3, 2, 3]
    assert tau((0, 1, 2)) == [-1] + _inv_word(inner) + [1] + inner
    with pytest.raises(WordTooShort):
        tau(())


def test_tau_leading_magnus_component():
    # the commutator tau(i-1, j-1) expands as 1 + (x_i x_j - x_j x_i) + ...
    k, p = 4, 5
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            v = magnus_image(tau((i - 1, j - 1)), k, p, 2)[-k * k:]
            expect = np.zeros(k * k, dtype=np.int64)
            expect[(i - 1) * k + (j - 1)] = 1
            expect[(j - 1) * k + (i - 1)] = p - 1
            assert np.array_equal(v, expect)


# ---------------------------------------------------------------------
# Zassenhaus membership by two criteria
# ---------------------------------------------------------------------

def test_membership_known_cases():
    # x^2 lies in the second 2-Zassenhaus term but not the third
    assert zassenhaus_membership([1, 1], 2, 2, 2)["member"]
    assert not zassenhaus_membership([1, 1], 2, 2, 3)["member"]
    # a commutator lies in term 2 (both filtrations) but not term 3
    c = tau((0, 1))
    assert zassenhaus_membership(c, 2, 2, 2)["member"]
    assert not zassenhaus_membership(c, 2, 2, 3)["member"]
    # x^4 reaches term 4 at p = 2; x^3 reaches term 3 at p = 3
    assert zassenhaus_membership([1] * 4, 2, 2, 4)["member"]
    assert zassenhaus_membership([1] * 3, 2, 3, 3)["member"]
    assert not zassenhaus_membership([1] * 3, 2, 3, 4)["member"]
    # a generator is in no term past the first
    assert not zassenhaus_membership([1], 2, 2, 2)["member"]


def test_membership_raises_typed_errors(monkeypatch):
    with pytest.raises(SpecError):
        zassenhaus_membership([1], 2, 2, 1)
    # the table criterion finds a non-identity value for x^2, which the
    # series criterion puts in term 2
    monkeypatch.setattr(magnus, "_evaluate_word_all_tuples",
                        lambda word, k, U: np.ones(1, dtype=np.int32))
    with pytest.raises(OracleDisagreement, match="series criterion True"):
        zassenhaus_membership([1, 1], 2, 2, 2)


def test_membership_criteria_agree_on_random_words():
    # the function raises OracleDisagreement unless the series criterion
    # and the exhaustive table evaluation agree; hammer it with seeded
    # random words
    rng = np.random.default_rng(7)
    for _ in range(200):
        length = int(rng.integers(1, 9))
        w = [int(a) * int(s) for a, s in
             zip(rng.integers(1, 3, size=length),
                 rng.choice([-1, 1], size=length))]
        n = int(rng.integers(2, 5))
        rep = zassenhaus_membership(w, 2, 2, n)
        assert rep["series"] == rep["tables"]


# ---------------------------------------------------------------------
# free nilpotent stand-ins
# ---------------------------------------------------------------------

def test_standin_orders_and_chains():
    S = free_nilpotent_standin(2, 2, "zassenhaus", 2)
    assert S.order == 32
    assert pc.zassenhaus(S, 2, 4).orders() == [32, 8, 1]

    L = free_nilpotent_standin(2, 2, "lower-central", 2)
    assert L.order == 32
    assert pc.lower_p_central(L, 2, 4).orders() == [32, 8, 1]

    # at p = 3 the degree-2 layer is spanned by the single commutator
    # (cubes of generators land in degree 3), so the chain is [27, 3, 1]
    S3 = free_nilpotent_standin(2, 3, "zassenhaus", 2)
    assert S3.order == 27
    assert pc.zassenhaus(S3, 3, 4).orders() == [27, 3, 1]


def test_standin_rejects_unknown_kind():
    with pytest.raises(ValueError):
        free_nilpotent_standin(2, 2, "bogus", 2)


def test_evaluation_epi():
    S = free_nilpotent_standin(2, 2, "zassenhaus", 2)
    Q8 = pc.builtin_group("Q8")
    pi = evaluation_epi(S, Q8)
    pi.validate()
    assert pi.is_surjective()
    assert pi.kernel().order == S.order // Q8.order
    # identity evaluation: S -> S
    ident = evaluation_epi(S, S)
    assert np.array_equal(ident.image, np.arange(S.order))
    with pytest.raises(SpecError):
        evaluation_epi(S, pc.builtin_group("Z/2"))


# ---------------------------------------------------------------------
# the full counterexample harness
# ---------------------------------------------------------------------

def test_counterexample_harness():
    rep = counterexample_harness(k=9, p=2)
    assert rep["pairs"] == 36
    assert rep["deg2_rank"] == 36 and rep["deg2_rank_full"]
    assert rep["tau12_outside_perturbed_span"]
    assert rep["conjugation_invariant_deg2"]
    assert rep["common_commutator_completions"] == 0
    assert rep["explored_prefixes"] > 0
    # the search is not vacuous: two values with a common commutator exist
    assert rep["control_k2_completions"] > 0
    ind = rep["induced_instance"]
    assert ind["standin_order"] == 32 and ind["kernel_order"] == 4
    tr = ind["transfer_report"]
    assert tr["side_a_transfer"] is False
    assert tr["side_b_kernel_condition"] is False
    assert tr["status"] == "PASS"
    assert rep["verdict"] == "transfer equality fails"
    assert rep["elapsed_seconds"] < 300


def dfs_commutator_search(k, U):
    """Reference: the common-commutator search as a recursive depth-first
    search, one commutator [v, u] = v^-1 u^-1 v u read off U's table at a
    time.  A node counts as explored when it is tried; a prefix is pruned
    as soon as two of its values commute or give a commutator other than
    the first.  Returns (completions, explored)."""
    explored = completions = 0
    assignment = []

    def rec(depth, target):
        nonlocal explored, completions
        if depth == k:
            completions += 1
            return
        for u in range(U.order):
            explored += 1
            t = target
            ok = True
            for v in assignment:
                c = int(U.mult[U.mult[U.inv[v], U.inv[u]], U.mult[v, u]])
                if c == 0 or (t is not None and c != t):
                    ok = False
                    break
                t = c
            if ok:
                assignment.append(u)
                rec(depth + 1, t)
                assignment.pop()

    rec(0, None)
    return completions, explored


@pytest.mark.parametrize("p,ks", [(2, [2, 3, 4, 5, 9]), (3, [2, 3, 4, 5, 9]),
                                  (5, [1, 2, 3])])
def test_commutator_level_search_matches_dfs(p, ks):
    """The level search gives the depth-first search's completions and
    explored count: each level adds the prefixes the DFS tries there."""
    U = build_unitriangular(2, p)
    for k in ks:
        assert _distinct_commutator_search(k, U) == dfs_commutator_search(
            k, U), (p, k)


def test_commutator_search_counts_at_p_5():
    """Step 3's counts at p = 5, beyond the reach of the depth-first
    reference: no completion at k = 9, and the control at k = 2.  The CLI
    pins hold those at p = 2 and 3."""
    U = build_unitriangular(2, 5)
    assert _distinct_commutator_search(9, U) == (0, 9015750)
    assert _distinct_commutator_search(2, U) == (12000, 15750)


def test_counterexample_induced_instance_must_fail_both_sides(monkeypatch):
    """The induced Q8 instance must give transfer False, kernel condition
    False and PASS; any other report is an OracleDisagreement."""
    monkeypatch.setattr(magnus, "transfer_check", lambda Q, N, fam: {
        "side_a_transfer": True, "side_b_kernel_condition": True,
        "status": "PASS"})
    with pytest.raises(OracleDisagreement, match="induced instance"):
        counterexample_harness(k=2)


# (k, p, kind, n) and the order of every stand-in of order at most 2187
STANDIN_ORDERS = {
    (1, 2, "zassenhaus", 4): 8, (2, 2, "zassenhaus", 2): 32,
    (2, 2, "zassenhaus", 3): 128, (3, 2, "zassenhaus", 2): 512,
    (2, 3, "zassenhaus", 2): 27, (2, 3, "zassenhaus", 3): 2187,
    (3, 3, "zassenhaus", 2): 729, (2, 5, "zassenhaus", 2): 125,
    (1, 3, "lower-central", 3): 27, (2, 2, "lower-central", 2): 32,
    (2, 2, "lower-central", 3): 1024, (3, 2, "lower-central", 2): 512,
    (2, 3, "lower-central", 2): 243,
}


def test_standin_orders_match_the_closed_form():
    """The closed form `standin_log_order` against the order of the closed
    stand-in (each build also checks it), and its Witt counts M(k, j),
    read off the lower-central form, against `lyndon_words`."""
    for (k, p, kind, n), order in STANDIN_ORDERS.items():
        S = free_nilpotent_standin(k, p, kind, n)
        assert S.order == order == p ** magnus.standin_log_order(k, p, kind,
                                                                 n)
    for k in (2, 3):
        for j in range(1, 6):
            # lower-central counts M(k, i) n - i + 1 times, so the second
            # difference in n is M(k, n)
            e = [magnus.standin_log_order(k, 2, "lower-central", n)
                 for n in (j - 2, j - 1, j)]
            assert e[2] - 2 * e[1] + e[0] == len(lyndon_words(k, j))


def test_standin_order_is_checked_before_and_after_the_closure(monkeypatch):
    """A stand-in over the cap raises ClosureCapExceeded before anything
    is closed; a closure of another order than the closed form raises
    OracleDisagreement."""
    with monkeypatch.context() as m:
        m.setattr(magnus, "generate_group", None)
        m.setattr(magnus, "omega_family", None)
        for spec in ((3, 2, "lower-central", 3), (2, 2, "zassenhaus", 5),
                     (2, 3, "lower-central", 3)):
            with pytest.raises(ClosureCapExceeded):
                free_nilpotent_standin(*spec)
        with pytest.raises(SpecError):
            free_nilpotent_standin(2, 4, "zassenhaus", 2)
    monkeypatch.setattr(magnus, "standin_log_order", lambda *a: 4)
    for kind in ("zassenhaus", "lower-central"):
        with pytest.raises(OracleDisagreement):
            free_nilpotent_standin(2, 2, kind, 2)
