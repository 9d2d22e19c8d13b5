import numpy as np
import pytest

import pcohom as pc
from pcohom.catalog import catalog_instances
from pcohom.core import _elementary_abelian_mod, _least_id_generators
from pcohom.errors import NotElementaryAbelian, SubgroupChainBroken
from pcohom.filtrations import (FiltrationChain, _check_chain,
                                is_elementary_abelian, lower_p_central,
                                zassenhaus)


def commutator(G, a, b):
    """[a, b] = a^-1 b^-1 a b, read off G's table."""
    return int(G.mult[G.mult[G.inv[a], G.inv[b]], G.mult[a, b]])


def brute_lower_p_central(G, p, upto):
    """Independent recomputation straight from the definition, using only
    raw id arithmetic (no vectorized helpers)."""
    terms = [set(range(G.order))]
    while len(terms) < upto and len(terms[-1]) > 1:
        cur = terms[-1]
        seed = set()
        for a in cur:
            seed.add(G.power(a, p))
            for g in range(G.order):
                seed.add(commutator(G, g, a))
        # naive closure
        members = {0}
        frontier = {0}
        seed |= {0}
        while frontier:
            new = set()
            for x in frontier:
                for s in seed:
                    y = G.mul(x, s)
                    if y not in members:
                        members.add(y)
                        new.add(y)
            frontier = new
        terms.append(members)
    return [sorted(t) for t in terms]


def test_lower_p_central_matches_bruteforce():
    for nm, p in [("D4", 2), ("Q8", 2), ("Z/8", 2), ("Heis:3", 3),
                  ("Mp3:3", 3), ("Z/4xZ/2", 2)]:
        G = pc.builtin_group(nm)
        chain = lower_p_central(G, p, 6)
        brute = brute_lower_p_central(G, p, 6)
        assert len(chain.terms) == len(brute)
        for t, b in zip(chain.terms, brute):
            assert sorted(int(x) for x in t.members) == b


def test_known_chain_orders():
    # cyclic Z/p^k: lower p-central terms are the subgroups of index p^i
    G = pc.builtin_group("Z/16")
    assert lower_p_central(G, 2, 8).orders() == [16, 8, 4, 2, 1]
    # for Zassenhaus the power recursion jumps: (Z/16)_(n) = (Z/16)^(2^ceil(log2 n))
    assert zassenhaus(G, 2, 8).orders() == [16, 8, 4, 4, 2, 2, 2, 2]

    Q8 = pc.builtin_group("Q8")
    assert lower_p_central(Q8, 2, 5).orders() == [8, 2, 1]
    assert zassenhaus(Q8, 2, 5).orders() == [8, 2, 1]

    H = pc.builtin_group("Heis:3")
    assert lower_p_central(H, 3, 5).orders() == [27, 3, 1]
    assert zassenhaus(H, 3, 5).orders() == [27, 3, 1]

    U = pc.builtin_group("U:3:2")
    assert lower_p_central(U, 2, 6).orders() == [64, 8, 2, 1]
    assert zassenhaus(U, 2, 6).orders() == [64, 8, 2, 1]

    # the two filtrations genuinely differ at level 3 on Meta:3
    M = pc.builtin_group("Meta:3")
    assert lower_p_central(M, 3, 6).orders() == [81, 9, 1]
    assert zassenhaus(M, 3, 6).orders() == [81, 9, 9, 1]


def test_lower_central_inside_zassenhaus():
    # G^(n,p) <= G_(n,p): the lower p-central term sits inside the
    # Zassenhaus term of the same index
    for nm, p in [("D4", 2), ("U:3:2", 2), ("Mp3:3", 3), ("Meta:3", 3)]:
        G = pc.builtin_group(nm)
        zc = zassenhaus(G, p, 6)
        lc = lower_p_central(G, p, 6)
        for n in range(1, 7):
            assert lc.term(n) <= zc.term(n)


def test_chain_quotients_elementary_abelian():
    for nm, p in [("U:2:4", 2), ("Meta:3", 3)]:
        G = pc.builtin_group(nm)
        for chain in (lower_p_central(G, p, 6), zassenhaus(G, p, 6)):
            for a, b in zip(chain.terms, chain.terms[1:]):
                assert b <= a and a.is_normal() and b.is_normal()
        # the checks inside the constructors already assert elementary
        # abelian quotients; re-assert the top quotient here explicitly
        Q, _ = pc.quotient_group(G, lower_p_central(G, p, 6).term(2))
        assert is_elementary_abelian(Q, p)


def test_term_past_stabilization_is_trivial():
    G = pc.builtin_group("Q8")
    chain = lower_p_central(G, 2, 4)
    assert chain.term(10).order == 1
    assert chain.term(1).order == 8


def test_is_elementary_abelian():
    assert is_elementary_abelian(pc.builtin_group("E:2:3"), 2)
    assert is_elementary_abelian(pc.builtin_group("E:3:2"), 3)
    assert not is_elementary_abelian(pc.builtin_group("Z/4"), 2)
    assert not is_elementary_abelian(pc.builtin_group("D4"), 2)
    assert not is_elementary_abelian(pc.builtin_group("E:3:2"), 2)


def test_zassenhaus_pth_power_rule():
    # x in G_(n) implies x^p in G_(pn)
    G = pc.builtin_group("U:3:2")
    chain = zassenhaus(G, 2, 6)
    for n in range(1, 4):
        for x in chain.term(n).members:
            assert G.power(int(x), 2) in chain.term(2 * n)


def test_commutator_rule_both_chains():
    G = pc.builtin_group("U:3:2")
    zc = zassenhaus(G, 2, 6)
    lc = lower_p_central(G, 2, 6)
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = int(rng.choice(zc.term(i).members))
        b = int(rng.choice(zc.term(j).members))
        assert commutator(G, a, b) in zc.term(i + j)
        a = int(rng.choice(lc.term(i).members))
        g = int(rng.integers(G.order))
        assert commutator(G, g, a) in lc.term(i + 1)


# ---------------------------------------------------------------------
# the chain check by generators against the quotient-table check
# ---------------------------------------------------------------------

def table_elementary_abelian(G, a, b, p):
    """Reference: _check_chain before the generator test.  Materialize a
    as a group (unless it is G), b inside it, and test the quotient
    table."""
    K, embed = ((G, np.arange(G.order)) if a.order == G.order
                else pc.subgroup_as_group(G, a))
    inner = pc.Subgroup(K, [i for i in range(K.order) if int(embed[i]) in b],
                        check=False)
    Q, _ = pc.quotient_group(K, inner)
    return is_elementary_abelian(Q, p)


def generator_elementary_abelian(G, a, b, p):
    return _elementary_abelian_mod(
        G, _least_id_generators(G, a, G.trivial_subgroup()), b, p)


def test_generator_check_matches_table_check_on_catalog():
    """Every catalog group: on each pair b <= a of terms 1-4 of its lower
    p-central and Zassenhaus chains, at p and at one other prime, the
    generator test (lemma at _check_chain) agrees with the quotient
    table.  Successive terms pass at p; pairs further apart and the other
    prime give quotients that are not abelian or not of exponent p."""
    seen = set()
    verdicts = {True: 0, False: 0}
    for name, G, p in catalog_instances():
        other = 3 if p == 2 else 2
        for chain in (lower_p_central(G, p, 4), zassenhaus(G, p, 4)):
            terms = chain.terms + [G.trivial_subgroup()]
            for i, a in enumerate(terms):
                for b in terms[i + 1:]:
                    for q in (p, other):
                        key = (G.key, a.members.tobytes(),
                               b.members.tobytes(), q)
                        if key in seen:
                            continue
                        seen.add(key)
                        want = table_elementary_abelian(G, a, b, q)
                        assert generator_elementary_abelian(G, a, b, q) \
                            == want, (name, a.order, b.order, q)
                        verdicts[want] += 1
    assert verdicts == {True: 158, False: 154}


# ---------------------------------------------------------------------
# memoized greedy generators against the unmemoized loop
# ---------------------------------------------------------------------

def loop_least_id_generators(G, members, seed=()):
    """Reference: _least_id_generators before the memo, seeded by a list
    of ids and re-running the BFS from the seed."""
    gens = [int(s) for s in seed]
    reached = np.zeros(G.order, dtype=bool)
    reached[pc.core._bfs(G.mult, gens)[0]] = True
    left = members[~reached[members]]
    while left.size:
        gens.append(int(left[0]))
        reached[pc.core._bfs(G.mult, gens)[0]] = True
        left = left[~reached[left]]
    return gens[len(seed):]


def test_memoized_generators_match_loop_on_catalog():
    """Every catalog group of order <= 64, every pair b <= a of
    consecutive terms of its lower p-central and Zassenhaus chains (the
    trivial group closing each): the memoized picks of a, unseeded and
    seeded with b, are the loop's, and the memo hands out one read-only
    intp array."""
    pairs = 0
    for name, G, p in catalog_instances():
        if G.order > 64:
            continue
        one = G.trivial_subgroup()
        for chain in (lower_p_central(G, p, 4), zassenhaus(G, p, 4)):
            terms = chain.terms + [one]
            for a, b in zip(terms, terms[1:]):
                got = _least_id_generators(G, a, one)
                assert got.tolist() == loop_least_id_generators(
                    G, a.members), (name, a.order)
                seeded = _least_id_generators(G, a, b)
                assert seeded.tolist() == loop_least_id_generators(
                    G, a.members, loop_least_id_generators(G, b.members)), \
                    (name, a.order, b.order)
                assert seeded.dtype == np.intp
                assert not seeded.flags.writeable
                assert _least_id_generators(G, a, b) is seeded
                pairs += 1
    assert pairs == 212


def test_generator_check_on_u34():
    """U:3:4 (order 4096): the lower 2-central chain passes both checks,
    and the whole group over its third term is not elementary abelian."""
    G = pc.builtin_group("U:3:4")
    chain = lower_p_central(G, 2, 4)
    for a, b in zip(chain.terms, chain.terms[1:]):
        assert table_elementary_abelian(G, a, b, 2)
        assert generator_elementary_abelian(G, a, b, 2)
    assert not generator_elementary_abelian(G, chain.terms[0],
                                            chain.terms[2], 2)


def test_check_chain_raises_typed_errors():
    D4 = pc.builtin_group("D4")
    s = pc.subgroup_generated(D4, [D4.generators[1]])
    assert not s.is_normal()
    with pytest.raises(SubgroupChainBroken, match="not normal"):
        _check_chain(FiltrationChain("lower-central", 2, D4,
                                     [D4.whole(), s]))
    with pytest.raises(SubgroupChainBroken, match="not inside"):
        _check_chain(FiltrationChain("lower-central", 2, D4,
                                     [D4.trivial_subgroup(), D4.whole()]))
    Z4 = pc.builtin_group("Z/4")
    with pytest.raises(NotElementaryAbelian, match="terms 1 and 2"):
        _check_chain(FiltrationChain("zassenhaus", 2, Z4,
                                     [Z4.whole(), Z4.trivial_subgroup()]))
    H = pc.builtin_group("Heis:3")
    with pytest.raises(NotElementaryAbelian):
        _check_chain(FiltrationChain("zassenhaus", 3, H,
                                     [H.whole(), H.trivial_subgroup()]))
