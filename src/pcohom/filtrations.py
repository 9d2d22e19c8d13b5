"""Lower p-central and p-Zassenhaus filtrations by their defining recursions.

Both chains are computed exactly from the definitions:

  lower p-central:  G^(n+1) = (G^(n))^p [G, G^(n)]
  p-Zassenhaus:     G_(n) = (G_(ceil(n/p)))^p * prod_{i+j=n} [G_(i), G_(j)]

with memoized terms and stabilization once a term becomes trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .core import (FiniteGroup, Subgroup, _elementary_abelian_mod,
                   _least_id_generators, _powers, commutator_subgroup,
                   exponent, is_abelian, join_subgroups, memo,
                   power_commutator_subgroup, subgroup_generated)
from .errors import NotElementaryAbelian, SubgroupChainBroken


@dataclass
class FiltrationChain:
    kind: str                 # "lower-central" | "zassenhaus"
    p: int
    group: FiniteGroup
    terms: list               # terms[i] is the (i+1)-st term; terms[0] = G

    def term(self, n: int) -> Subgroup:
        """1-indexed term; terms past the computed chain are the last one
        (which is trivial when the chain stabilized)."""
        if n <= len(self.terms):
            return self.terms[n - 1]
        return self.terms[-1]

    def orders(self):
        return [t.order for t in self.terms]


def is_elementary_abelian(Q: FiniteGroup, p: int) -> bool:
    return is_abelian(Q) and exponent(Q) in (1, p)


def _check_chain(chain: FiltrationChain):
    """Every term is normal and inside the term before, and each
    successive quotient a/b is an elementary abelian p-group.

    Lemma: for normal b <= a, a/b is elementary abelian iff x^p and
    [x, y] lie in b for all x, y in X = `core._least_id_generators(G,
    a.members)`.  The images of X generate a/b; commuting generators make
    it abelian, and an abelian group generated by elements of order p has
    exponent p (`core._elementary_abelian_mod`).  So the check reads
    G's table at |X| powers and |X|^2 commutators, and builds no subgroup
    or quotient table."""
    G = chain.group
    for i, t in enumerate(chain.terms):
        if not t.is_normal():
            raise SubgroupChainBroken(f"{chain.kind} term {i + 1} is not "
                                      "normal")
        if i and not t <= chain.terms[i - 1]:
            raise SubgroupChainBroken(f"{chain.kind} term {i + 1} is not "
                                      f"inside term {i}")
    for i, (a, b) in enumerate(zip(chain.terms, chain.terms[1:])):
        if not _elementary_abelian_mod(G, _least_id_generators(G, a.members),
                                       b, chain.p):
            raise NotElementaryAbelian(
                f"{chain.kind} quotient of terms {i + 1} and {i + 2} is not "
                f"elementary abelian at p = {chain.p}")


@memo
def lower_p_central(G: FiniteGroup, p: int, upto: int) -> FiltrationChain:
    terms = [G.whole()]
    while len(terms) < upto:
        cur = terms[-1]
        if cur.order == 1:
            break
        terms.append(power_commutator_subgroup(G, cur, p))
    chain = FiltrationChain("lower-central", p, G, terms)
    _check_chain(chain)
    return chain


@memo
def zassenhaus(G: FiniteGroup, p: int, upto: int) -> FiltrationChain:
    terms: dict[int, Subgroup] = {1: G.whole()}

    def term(n: int) -> Subgroup:
        if n not in terms:
            powers = _powers(G, term(ceil(n / p)).members, p)
            pieces = [subgroup_generated(G, powers)]
            # [A, B] = [B, A], so each unordered pair i + j = n once
            for i in range(1, n // 2 + 1):
                pieces.append(commutator_subgroup(G, term(i), term(n - i)))
            terms[n] = join_subgroups(G, pieces)
        return terms[n]

    chain_terms = [term(1)]
    for n in range(2, upto + 1):
        if chain_terms[-1].order == 1:
            break
        chain_terms.append(term(n))
    chain = FiltrationChain("zassenhaus", p, G, chain_terms)
    _check_chain(chain)
    return chain
