"""Free-group machinery: truncated Magnus series, Lyndon words and their
basic commutators, finite nilpotent stand-ins for free groups, and the
degree-2 independence harness that drives the transfer counterexample.

Free words are lists of nonzero signed integers: ``3`` is the third
generator, ``-3`` its inverse.  Series live in the free associative algebra
over F_p truncated beyond a fixed total degree; monomials are tuples of
1-based letters.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import gf
from .core import (FiniteGroup, GroupHom, generate_group,
                   hom_from_generator_images)
from .errors import SpecError, WordTooShort
from .unitriangular import build_unitriangular, omega_family


# ---------------------------------------------------------------------
# Truncated power series over F_p
# ---------------------------------------------------------------------

class TruncatedSeries:
    """Unit of F_p<<x_1..x_k>> / (degree > deg), constant term 1.

    Supports the element protocol of ``generate_group`` so the closure of
    {1 + x_i} can be tabulated directly.
    """

    __slots__ = ("coeffs", "p", "deg", "k", "_hash")

    def __init__(self, coeffs, p, deg, k):
        self.p, self.deg, self.k = int(p), int(deg), int(k)
        clean = {w: c % p for w, c in coeffs.items()
                 if len(w) <= deg and c % p}
        assert clean.get((), 0) == 1, "series must have constant term 1"
        self.coeffs = clean
        self._hash = hash(("series", p, deg, k,
                           tuple(sorted(clean.items()))))

    def __mul__(self, other):
        if (not isinstance(other, TruncatedSeries) or other.p != self.p
                or other.deg != self.deg or other.k != self.k):
            return NotImplemented
        out: dict = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                if len(w1) + len(w2) <= self.deg:
                    w = w1 + w2
                    out[w] = (out.get(w, 0) + c1 * c2) % self.p
        return TruncatedSeries(out, self.p, self.deg, self.k)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and self.p == other.p
                and self.deg == other.deg and self.k == other.k
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return self._hash

    def identity(self):
        return TruncatedSeries({(): 1}, self.p, self.deg, self.k)

    def signature(self):
        return ("series", self.p, self.deg, self.k)

    def component(self, degree: int) -> dict:
        return {w: c for w, c in self.coeffs.items() if len(w) == degree}

    def component_vector(self, degree: int) -> np.ndarray:
        """Coefficients of the degree-d monomials as a vector of length
        k^d, monomials in lexicographic order."""
        v = np.zeros(self.k ** degree, dtype=np.int64)
        for w, c in self.coeffs.items():
            if len(w) == degree:
                idx = 0
                for a in w:
                    idx = idx * self.k + (a - 1)
                v[idx] = c
        return v

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda t: (len(t[0]), t[0]))
        return "Series(" + " + ".join(
            f"{c}*x{''.join(map(str, w))}" if w else str(c)
            for w, c in terms) + ")"


def _generator_series(i: int, sign: int, p: int, deg: int, k: int):
    """1 + x_i, or its inverse 1 - x_i + x_i^2 - ... (truncated)."""
    if sign > 0:
        return TruncatedSeries({(): 1, (i,): 1}, p, deg, k)
    coeffs = {}
    for d in range(deg + 1):
        coeffs[(i,) * d] = (-1) ** d
    return TruncatedSeries(coeffs, p, deg, k)


def magnus_image(word, k: int, p: int, deg: int) -> TruncatedSeries:
    """Image of a free word under x_i -> 1 + x_i in the truncated algebra."""
    out = TruncatedSeries({(): 1}, p, deg, k)
    for a in word:
        if a == 0 or abs(a) > k:
            raise ValueError(f"letter {a} outside 1..{k}")
        out = out * _generator_series(abs(a), 1 if a > 0 else -1, p, deg, k)
    return out


# ---------------------------------------------------------------------
# Lyndon words and basic commutators
# ---------------------------------------------------------------------

def lyndon_words(k: int, n: int) -> list:
    """Lyndon words of length exactly n over {0..k-1}: words strictly
    smaller than every proper suffix."""
    if n < 1:
        raise WordTooShort("length must be >= 1")
    out = []
    for w in itertools.product(range(k), repeat=n):
        if all(w < w[i:] for i in range(1, n)):
            out.append(w)
    return out


def _inv_word(word):
    return [-a for a in reversed(word)]


def tau(w) -> list:
    """Right-nested iterated commutator [a_1, [a_2, ... [a_{n-1}, a_n]...]]
    of the letters of w, as a free word on 1-based letters, with the
    convention [a, b] = a^-1 b^-1 a b."""
    w = tuple(w)
    if len(w) == 0:
        raise WordTooShort("need at least one letter")
    if len(w) == 1:
        return [w[0] + 1]
    a, b = [w[0] + 1], tau(w[1:])
    return _inv_word(a) + _inv_word(b) + a + b


# ---------------------------------------------------------------------
# Zassenhaus-term membership for free groups, by two criteria
# ---------------------------------------------------------------------

def _evaluate_word_all_tuples(word, k: int, U: FiniteGroup) -> np.ndarray:
    """Value of the word at every k-tuple of elements of U, as a flat array
    of element ids of length |U|^k."""
    m = U.order
    grid = [a.ravel() for a in np.meshgrid(*[np.arange(m, dtype=np.int32)] * k,
                                           indexing="ij")]
    vals = np.zeros(m ** k, dtype=np.int32)
    for a in word:
        g = grid[abs(a) - 1]
        if a < 0:
            g = U.inv[g]
        vals = U.mult[vals, g]
    return vals


def zassenhaus_membership(word, k: int, p: int, n: int) -> dict:
    """Is the word in the n-th term of the p-Zassenhaus filtration of the
    free group on k generators?  Decided by two independent criteria:

    * series: the Magnus expansion of word - 1 has no terms of degree < n;
    * tables: the word evaluates to the identity at every k-tuple of
      elements of the unitriangular group of degree n-1 over F_p.

    Disagreement between the two is a hard failure.
    """
    assert n >= 2, "every word lies in the first term"
    s = magnus_image(word, k, p, n - 1)
    series_member = all(len(w) == 0 for w in s.coeffs)
    U = build_unitriangular(n - 1, p)
    vals = _evaluate_word_all_tuples(word, k, U)
    table_member = not np.any(vals)
    assert series_member == table_member, \
        "series and table membership criteria disagree"
    return {"member": series_member, "series": series_member,
            "tables": table_member, "tuples_checked": int(U.order ** k)}


# ---------------------------------------------------------------------
# Finite nilpotent stand-ins for free groups
# ---------------------------------------------------------------------

def free_nilpotent_standin(k: int, p: int, kind: str, n: int,
                           cap=8192) -> FiniteGroup:
    """The quotient of the free group on k generators by the (n+1)-st term
    of the chosen filtration, built from faithful concrete images.

    kind "zassenhaus": closure of {1 + x_i} in the algebra truncated beyond
    degree n (the truncation kernel is exactly the (n+1)-st Zassenhaus term).

    kind "lower-central": image of the diagonal map into the product of the
    groups of the lower-central witness family over *all* generator-image
    tuples (the kernel of that map is the (n+1)-st lower p-central term).
    """
    name = f"standin:{kind}:{k}:{p}:{n}"
    if kind == "zassenhaus":
        gens = [_generator_series(i + 1, 1, p, n, k) for i in range(k)]
        return generate_group(gens, cap=cap, name=name)
    if kind == "lower-central":
        from .elements import IdVector
        fam = omega_family("lower-central", n, p)
        tables = []
        segments = []
        for ext in fam.extensions:
            E = ext.E
            count = E.order ** k
            tables.append((E.mult, count))
            grid = [a.ravel() for a in
                    np.meshgrid(*[np.arange(E.order, dtype=np.int32)] * k,
                                indexing="ij")]
            segments.append(grid)
        gens = []
        for i in range(k):
            ids = np.concatenate([seg[i] for seg in segments])
            gens.append(IdVector(tables, ids))
        return generate_group(gens, cap=cap, name=name)
    raise SpecError(f"unknown stand-in kind {kind!r}")


def evaluation_epi(S: FiniteGroup, H: FiniteGroup) -> GroupHom:
    """The homomorphism S -> H sending the i-th generator of S to the i-th
    generator of H, computed by evaluating BFS words.  Valid only when H
    satisfies the relations of S; the returned hom is fully verified."""
    assert len(S.generators) <= len(H.generators)
    return hom_from_generator_images(S, H, H.generators[:len(S.generators)])


# ---------------------------------------------------------------------
# The degree-2 independence harness
# ---------------------------------------------------------------------

def _pair_commutator_words(k: int):
    """tau words of the degree-2 Lyndon words (i, j), i < j (1-based)."""
    return {(i, j): tau((i - 1, j - 1))
            for i in range(1, k + 1) for j in range(i + 1, k + 1)}


def _deg2_matrix(words, k: int, p: int):
    return np.stack([magnus_image(w, k, p, 2).component_vector(2)
                     for w in words])


def _distinct_commutator_search(k: int, U: FiniteGroup):
    """Depth-first search for f: {1..k} -> U whose values pairwise share a
    common nontrivial commutator.  Prunes a prefix as soon as two assigned
    values commute or produce a different commutator.  Returns
    (completions, explored_prefixes)."""
    explored = 0
    completions = 0
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
                c = U.commutator(v, u)
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


def counterexample_harness(k: int = 9, p: int = 2, seed: int = 20260823,
                           conjugate_trials: int = 100) -> dict:
    """The finite verification tower behind the failure of the transfer
    equality for the 2-Zassenhaus family at n = 2.

    Steps (all exact, over F_2 by default):

    1. The degree-2 Magnus components of the k(k-1)/2 pair commutators
       tau_ij are linearly independent.
    2. The component of tau_12 is not in the span of the sums
       tau_12 + tau_ij over the remaining pairs, and degree-2 components
       are invariant under conjugation (checked on random conjugates),
       so no product of conjugates of the other tau_ij can produce tau_12
       modulo degree-3 terms.
    3. No assignment {1..k} -> U_2(F_p) gives all pairs a common
       nontrivial commutator (exhaustive pruned search); the control case
       k = 2 does admit assignments, so the search is not vacuous.
    4. The induced finite transfer instance: the order-32 Zassenhaus
       stand-in Q of the free group on 2 generators maps onto the
       quaternion group, the kernel sits inside Tbar(Q), and the transfer
       equality and the kernel generating condition both come out false.
    """
    t0 = time.time()
    rng = np.random.default_rng(seed)
    pairs = _pair_commutator_words(k)
    pair_list = sorted(pairs)
    words = [pairs[ij] for ij in pair_list]
    n_pairs = len(pair_list)

    # (1) rank of the degree-2 components
    M = _deg2_matrix(words, k, p)
    rank = gf.rank(M, p)
    rank_full = rank == n_pairs

    # (2) non-membership of tau_12's component in the perturbed span
    t12 = M[0]
    others = (M[0] + M[1:]) % p
    not_in_span = not gf.in_row_space(others, t12, p)

    # degree-2 components survive conjugation (the defect is degree >= 3)
    conj_ok = 0
    for _ in range(conjugate_trials):
        ij = pair_list[int(rng.integers(n_pairs))]
        g = [int(a) * int(s) for a, s in
             zip(rng.integers(1, k + 1, size=4), rng.choice([-1, 1], size=4))]
        w = g + pairs[ij] + _inv_word(g)
        v = magnus_image(w, k, p, 2).component_vector(2)
        base = magnus_image(pairs[ij], k, p, 2).component_vector(2)
        if np.array_equal(v, base):
            conj_ok += 1
    conjugation_invariant = conj_ok == conjugate_trials

    # (3) exhaustive pruned search for a common-commutator assignment
    U = build_unitriangular(2, p)
    completions, explored = _distinct_commutator_search(k, U)
    control_completions, control_explored = _distinct_commutator_search(2, U)

    # (4) the induced finite transfer instance
    fam = omega_family("zassenhaus", 2, p)
    induced = None
    if p == 2:
        from .core import builtin_group
        from .pairings import transfer_check
        Q = free_nilpotent_standin(2, 2, "zassenhaus", 2)
        Q8 = builtin_group("Q8")
        pi = evaluation_epi(Q, Q8)
        assert pi.is_surjective()
        N = pi.kernel()
        report = transfer_check(Q, N, fam)
        induced = {
            "standin_order": Q.order,
            "kernel_order": N.order,
            "transfer_report": report,
        }
        assert report["side_a_transfer"] is False
        assert report["side_b_kernel_condition"] is False
        assert report["status"] == "PASS"

    verdict = (rank_full and not_in_span and conjugation_invariant
               and completions == 0 and control_completions > 0)
    return {
        "k": k, "p": p,
        "pairs": n_pairs,
        "deg2_rank": rank,
        "deg2_rank_full": rank_full,
        "tau12_outside_perturbed_span": not_in_span,
        "conjugation_invariant_deg2": conjugation_invariant,
        "conjugate_trials": conjugate_trials,
        "common_commutator_completions": completions,
        "explored_prefixes": explored,
        "control_k2_completions": control_completions,
        "control_k2_explored": control_explored,
        "induced_instance": induced,
        "verdict": "transfer equality fails" if verdict else "inconclusive",
        "elapsed_seconds": round(time.time() - t0, 3),
    }
