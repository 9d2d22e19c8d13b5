"""Free-group machinery: truncated Magnus series, Lyndon words and their
basic commutators, finite nilpotent stand-ins for free groups, and the
degree-2 independence harness that drives the transfer counterexample.

Free words are lists of nonzero signed integers: ``3`` is the third
generator, ``-3`` its inverse.  Series live in the free associative algebra
over F_p truncated beyond a fixed total degree, each as one int64 row of
coefficients over the monomials, by degree and then lexicographically.
One step, right multiplication by 1 + x_i (`_series_step`), builds both
the Magnus image of a word (`magnus_image`) and the Zassenhaus stand-in
(`free_nilpotent_standin`).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import gf
from .core import (DEFAULT_CAP, FiniteGroup, GroupHom, builtin_group,
                   commutators, generate_group, hom_from_generator_images,
                   spec_prime)
from .errors import (ClosureCapExceeded, OracleDisagreement, SpecError,
                     WordTooShort)
from .homsearch import _CHUNK, _extend
from .pairings import transfer_check
from .unitriangular import build_unitriangular, omega_family


# ---------------------------------------------------------------------
# Truncated power series over F_p, as coefficient rows
# ---------------------------------------------------------------------

def _series_step(k: int, p: int, deg: int):
    """(one, step) for F_p<<x_1..x_k>> / (degree > deg): the row of the
    series 1, and the step that builds every other row from it.

    A series is its int64 row of coefficients over the size monomials of
    degree <= deg, by degree and then lexicographically, so the degree-d
    part of a row is row[1 + k + ... + k^(d-1):][:k^d].  step(X, i) is
    X * (1 + x_{i+1}) for a row, or each row of a matrix, X: it adds the
    coefficient of every w of degree < deg to that of w x_{i+1}.

    Index lemma: the m = size - k^deg monomials of degree < deg are the
    first m positions.  If w has degree d and lexicographic index t,
    w x_{i+1} sits at k t + i past 1 + k (1 + k + ... + k^(d-1)), the
    start of degree d + 1; that is at 1 + k j + i for w at position j.
    As size = 1 + k m, those targets are the slice [1 + i::k], m long."""
    size = sum(k ** d for d in range(deg + 1))
    m = size - k ** deg

    def step(X, i):
        Y = X.copy()
        Y[..., 1 + i::k] += X[..., :m]
        return Y % p

    return np.eye(1, size, dtype=np.int64)[0], step


def magnus_image(word, k: int, p: int, deg: int) -> np.ndarray:
    """Coefficient row (`_series_step`'s basis) of the image of a free word
    under x_i -> 1 + x_i in the algebra truncated beyond degree deg.

    Lemma: a letter -i multiplies by (1 + x_i)^-1 = sum over j <= deg of
    (-x_i)^j, as the truncation kills x_i^(deg+1); and X x_i is
    step(X, i - 1) - X.  No step writes position 0, so every row built
    from 1 has constant term 1."""
    X, step = _series_step(k, p, deg)
    for a in word:
        if a == 0 or abs(a) > k:
            raise SpecError(f"letter {a} outside 1..{k}")
        if a > 0:
            X = step(X, a - 1)
            continue
        term = total = X
        for _ in range(deg):
            term = term - step(term, -a - 1)          # term * (-x_i)
            total = total + term
        X = total % p
    return X


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

def _tuple_grid(m: int, k: int) -> list:
    """Every k-tuple of ids 0..m-1, in lexicographic order, as k flat
    arrays of length m^k: entry t of array i is slot i of tuple t."""
    return [a.ravel() for a in np.meshgrid(
        *[np.arange(m, dtype=np.int32)] * k, indexing="ij")]


def _evaluate_word_all_tuples(word, k: int, U: FiniteGroup) -> np.ndarray:
    """Value of the word at every k-tuple of elements of U, as a flat array
    of element ids of length |U|^k."""
    grid = _tuple_grid(U.order, k)
    vals = np.zeros(U.order ** k, dtype=np.int32)
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

    Disagreement between the two raises `OracleDisagreement`.
    """
    if n < 2:
        raise SpecError(f"n = {n}: every word lies in the first term")
    series_member = not magnus_image(word, k, p, n - 1)[1:].any()
    U = build_unitriangular(n - 1, p)
    vals = _evaluate_word_all_tuples(word, k, U)
    table_member = not np.any(vals)
    if series_member != table_member:
        raise OracleDisagreement(
            f"Zassenhaus membership of {word} in term {n}: series criterion "
            f"{series_member}, table criterion {table_member}")
    return {"member": series_member, "series": series_member,
            "tables": table_member, "tuples_checked": int(U.order ** k)}


# ---------------------------------------------------------------------
# Finite nilpotent stand-ins for free groups
# ---------------------------------------------------------------------

def standin_log_order(k: int, p: int, kind: str, n: int) -> int:
    """log_p of the order of the free group on k generators modulo the
    (n+1)-st term of the chosen filtration, in closed form.  With M(k, j)
    Witt's count of the Lyndon words of length j on k letters (from
    k^j = sum over d | j of d M(k, d)), the i-th factor of the lower
    p-central series has rank sum_{j <= i} M(k, j), and that of the
    Zassenhaus series sum_{j p^h = i} M(k, j) (Jennings).  So M(k, j)
    counts n - j + 1 times for "lower-central", and once for each h >= 0
    with j p^h <= n for "zassenhaus"."""
    M = {}
    for j in range(1, n + 1):
        M[j] = (k ** j - sum(d * M[d] for d in M if j % d == 0)) // j
    if kind == "lower-central":
        return sum(M[j] * (n - j + 1) for j in M)
    return sum(M[j] for j in M for h in range(n) if j * p ** h <= n)


def free_nilpotent_standin(k: int, p: int, kind: str, n: int) -> FiniteGroup:
    """The quotient of the free group on k generators by the (n+1)-st term
    of the chosen filtration, built from faithful concrete images.

    kind "zassenhaus": closure of {1 + x_i} in the algebra truncated beyond
    degree n (the truncation kernel is exactly the (n+1)-st Zassenhaus
    term).  A series is its coefficient row, and a generator multiplies
    it on the right by one `_series_step`, as in `magnus_image`.

    kind "lower-central": image of the diagonal map into the product of the
    groups of the lower-central witness family over *all* generator-image
    tuples (the kernel of that map is the (n+1)-st lower p-central term).
    An element is its row of ids, one slot per extension group E and
    tuple, and a product looks each slot up in its E's table.

    The order is known in closed form (`standin_log_order`): above
    DEFAULT_CAP it raises ClosureCapExceeded before anything is built, and
    a closure of another order raises OracleDisagreement."""
    name = f"standin:{kind}:{k}:{p}:{n}"
    if kind not in ("zassenhaus", "lower-central"):
        raise SpecError(f"unknown stand-in kind {kind!r}")
    e = standin_log_order(k, spec_prime(p), kind, n)
    if p ** e > DEFAULT_CAP:
        raise ClosureCapExceeded(f"{name} has order {p}^{e}, above the "
                                 f"cap {DEFAULT_CAP}")
    if kind == "zassenhaus":
        one, step = _series_step(k, p, n)
        S = generate_group(one, [step(one, i) for i in range(k)], step,
                           name=name)
    else:
        Es = [ext.E for ext in omega_family("lower-central", n, p).extensions]
        slots = [E.order ** k for E in Es]
        gens = np.concatenate([np.stack(_tuple_grid(E.order, k))
                               for E in Es], axis=1)
        # slot t reads mult.ravel()[x * |E| + y] of its E, in one flat gather
        flat = np.concatenate([E.mult.ravel() for E in Es])
        base = np.repeat(np.cumsum([0] + [E.order ** 2 for E in Es[:-1]]),
                         slots)
        size = np.repeat([E.order for E in Es], slots)
        S = generate_group(np.zeros_like(gens[0]), gens,
                           lambda X, j: flat[base + X * size + gens[j]],
                           name=name)
    if S.order != p ** e:
        raise OracleDisagreement(f"{name} closed to order {S.order}, not "
                                 f"{p}^{e}")
    return S


def evaluation_epi(S: FiniteGroup, H: FiniteGroup) -> GroupHom:
    """The homomorphism S -> H sending the i-th generator of S to the i-th
    generator of H, computed by evaluating BFS words.  Valid only when H
    satisfies the relations of S; the returned hom is fully verified.
    When S and H have equal generator counts, the image contains every
    generator of H, so the hom is onto."""
    if len(S.generators) > len(H.generators):
        raise SpecError(f"{S.name} has more generators than {H.name}")
    return hom_from_generator_images(S, H, H.generators[:len(S.generators)])


# ---------------------------------------------------------------------
# The degree-2 independence harness
# ---------------------------------------------------------------------

def _pair_commutator_words(k: int):
    """tau words of the degree-2 Lyndon words (i, j), i < j (1-based)."""
    return {(i, j): tau((i - 1, j - 1))
            for i in range(1, k + 1) for j in range(i + 1, k + 1)}


def _deg2_component(word, k: int, p: int) -> np.ndarray:
    """The degree-2 coefficients of the word's Magnus image, x_a x_b at
    (a-1) k + (b-1): the last k^2 entries of its row at degree 2."""
    return magnus_image(word, k, p, 2)[-k * k:]


def _distinct_commutator_search(k: int, U: FiniteGroup):
    """The assignments f: {1..k} -> U whose values pairwise share a common
    nontrivial commutator, searched level by level: level d extends every
    surviving row (f(1), ..., f(d)) by every u in U (`homsearch._extend`)
    and keeps it iff the new commutators [f(i), u] are all nonzero and all
    equal to the row's target [f(1), f(2)], the first commutator, fixed at
    depth 2.  Each level adds rows x |U| to explored, the count of a
    depth-first search's nodes, and extends and filters blocks of at most
    _CHUNK rows.  Returns (completions, explored_prefixes)."""
    everyone = np.arange(U.order, dtype=np.int32)
    comm = commutators(U, everyone, everyone)
    block = max(1, _CHUNK // U.order)
    P, explored = everyone[:, None], U.order
    for _ in range(1, k):
        if not len(P):
            break
        explored += len(P) * U.order
        kept = []
        for lo in range(0, len(P), block):
            X = _extend(P[lo:lo + block], everyone)
            t = comm[X[:, 0], X[:, 1]]
            new = comm[X[:, :-1], X[:, -1:]]
            kept.append(X[(t != 0) & (new == t[:, None]).all(axis=1)])
        P = np.concatenate(kept)
    return len(P), explored


# the random conjugates of step 2 of `counterexample_harness`
CONJUGATE_TRIALS = 100
CONJUGATE_SEED = 20260823


def counterexample_harness(k: int = 9, p: int = 2) -> dict:
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
       nontrivial commutator (`_distinct_commutator_search`, exhaustive
       and level by level: a row is dropped at the level where two of its
       values commute or give a commutator other than its first); the
       control case k = 2 does admit assignments, so the search is not
       vacuous.
    4. The induced finite transfer instance: the order-32 Zassenhaus
       stand-in Q of the free group on 2 generators maps onto the
       quaternion group, the kernel sits inside Tbar(Q), and the transfer
       equality and the kernel generating condition both come out false.
    """
    if k < 2:
        raise SpecError(f"the counterexample needs k >= 2 generators, got {k}")
    t0 = time.time()
    rng = np.random.default_rng(CONJUGATE_SEED)
    pairs = _pair_commutator_words(k)
    words = [pairs[ij] for ij in sorted(pairs)]
    n_pairs = len(words)

    # (1) rank of the degree-2 components
    M = np.stack([_deg2_component(w, k, p) for w in words])
    rank = gf.rank(M, p)
    rank_full = rank == n_pairs

    # (2) non-membership of tau_12's component in the perturbed span
    t12 = M[0]
    others = (M[0] + M[1:]) % p
    not_in_span = not gf.Span(M.shape[1], p, others).contains(t12)

    # degree-2 components survive conjugation (the defect is degree >= 3)
    conj_ok = 0
    for _ in range(CONJUGATE_TRIALS):
        t = int(rng.integers(n_pairs))
        g = [int(a) * int(s) for a, s in
             zip(rng.integers(1, k + 1, size=4), rng.choice([-1, 1], size=4))]
        w = g + words[t] + _inv_word(g)
        if np.array_equal(_deg2_component(w, k, p), M[t]):
            conj_ok += 1
    conjugation_invariant = conj_ok == CONJUGATE_TRIALS

    # (3) exhaustive level search for a common-commutator assignment
    U = build_unitriangular(2, p)
    completions, explored = _distinct_commutator_search(k, U)
    control_completions, control_explored = _distinct_commutator_search(2, U)

    # (4) the induced finite transfer instance
    fam = omega_family("zassenhaus", 2, p)
    induced = None
    if p == 2:
        Q = free_nilpotent_standin(2, 2, "zassenhaus", 2)
        # onto Q8: both groups have two generators (`evaluation_epi`)
        N = evaluation_epi(Q, builtin_group("Q8")).kernel()
        report = transfer_check(Q, N, fam)
        induced = {
            "standin_order": Q.order,
            "kernel_order": N.order,
            "transfer_report": report,
        }
        got = (report["side_a_transfer"], report["side_b_kernel_condition"],
               report["status"])
        if got != (False, False, "PASS"):
            raise OracleDisagreement(
                f"the induced instance gives (side a, side b, status) = "
                f"{got}, not (False, False, 'PASS')")

    verdict = (rank_full and not_in_span and conjugation_invariant
               and completions == 0 and control_completions > 0)
    return {
        "k": k, "p": p,
        "pairs": n_pairs,
        "deg2_rank": rank,
        "deg2_rank_full": rank_full,
        "tau12_outside_perturbed_span": not_in_span,
        "conjugation_invariant_deg2": conjugation_invariant,
        "conjugate_trials": CONJUGATE_TRIALS,
        "common_commutator_completions": completions,
        "explored_prefixes": explored,
        "control_k2_completions": control_completions,
        "control_k2_explored": control_explored,
        "induced_instance": induced,
        "verdict": "transfer equality fails" if verdict else "inconclusive",
        "elapsed_seconds": round(time.time() - t0, 3),
    }
