"""Finite groups as dense multiplication tables, plus the subgroup calculus.

A group is built by breadth-first closure from concrete generators
(permutations, matrices mod m, residues, ...).  Element id 0 is always the
identity and ids follow BFS discovery order, so every derived structure
(words, cosets, reports) is deterministic.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .elements import MatMod, Perm, Residue, TupleElem, perm_from_cycles
from .errors import (ClosureCapExceeded, EmptyList, MixedElementKinds,
                     MixedParents, NonNormalArguments, NotNormal, SpecError)

DEFAULT_CAP = 8192

# exhaustive associativity check up to this order; random sampling above
ASSOC_FULL_CHECK_MAX = 512


@dataclass
class FiniteGroup:
    order: int
    mult: np.ndarray          # order x order element ids
    inv: np.ndarray           # order element ids
    generators: list          # element ids (distinct, non-identity)
    words: list               # per-element tuple of generator indices
    mult_gen: np.ndarray      # order x ngens: g * generators[i]
    pred: np.ndarray          # order x 2: (predecessor id, generator index)
    elements: list | None = None   # concrete elements, if built from them
    name: str = ""
    key: str = ""
    identity: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.key:
            h = hashlib.sha1()
            h.update(np.asarray(self.mult, dtype=np.int32).tobytes())
            h.update(np.asarray(self.generators, dtype=np.int32).tobytes())
            self.key = h.hexdigest()

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.key == other.key

    def __repr__(self):
        return f"FiniteGroup({self.name or 'anon'}, order={self.order})"

    # -- element arithmetic on ids ------------------------------------
    def mul(self, a, b):
        return int(self.mult[a, b])

    def inverse(self, a):
        return int(self.inv[a])

    def conj(self, g, a):
        """g^-1 * a * g"""
        return int(self.mult[self.mult[self.inv[g], a], g])

    def commutator(self, a, b):
        """[a,b] = a^-1 b^-1 a b"""
        return int(self.mult[self.mult[self.inv[a], self.inv[b]], self.mult[a, b]])

    def power(self, a, m):
        m = int(m) % element_order(self, a)
        r, base = 0, int(a)
        while m:
            if m & 1:
                r = int(self.mult[r, base])
            base = int(self.mult[base, base])
            m >>= 1
        return r

    def whole(self):
        return Subgroup(self, np.arange(self.order, dtype=np.int32))

    def trivial_subgroup(self):
        return Subgroup(self, np.zeros(1, dtype=np.int32))


_MISS = object()


def _memo_key(a):
    if isinstance(a, FiniteGroup):
        return a.key
    if isinstance(a, Subgroup):
        return a.members.tobytes()
    if isinstance(a, (int, np.integer)):
        return int(a)
    label = getattr(a, "label", None)     # an OmegaFamily
    if isinstance(label, str):
        return label
    raise TypeError(f"memo cannot key a {type(a).__name__}")


def memo(fn):
    """Cache fn(G, *args) in G._cache.

    The key is fn's name plus the positional arguments: groups by .key,
    subgroups by member bytes, families by .label and ints as they are.
    Keyword-only arguments (the search budget) bound the work done, never
    the value returned, so they are passed on but not keyed; every other
    argument must be passed positionally."""
    name = fn.__name__
    unkeyed = {q.name for q in inspect.signature(fn).parameters.values()
               if q.kind is q.KEYWORD_ONLY}

    @functools.wraps(fn)
    def cached(G, *args, **kwargs):
        if not kwargs.keys() <= unkeyed:
            raise TypeError(f"{name}: pass {sorted(kwargs.keys() - unkeyed)} "
                            "positionally")
        key = (name, *map(_memo_key, args))
        value = G._cache.get(key, _MISS)
        if value is _MISS:
            value = G._cache[key] = fn(G, *args, **kwargs)
        return value

    return cached


def _verify_tables(G: FiniteGroup, rng_seed=0):
    n = G.order
    mult, inv = G.mult, G.inv
    ar = np.arange(n)
    assert np.array_equal(mult[0], ar) and np.array_equal(mult[:, 0], ar)
    assert np.array_equal(mult[ar, inv], np.zeros(n, dtype=mult.dtype))
    if n <= ASSOC_FULL_CHECK_MAX:
        for a in range(n):
            left = mult[mult[a], :]          # (b,c) -> (a*b)*c
            right = mult[a][mult]            # (b,c) -> a*(b*c)
            if not np.array_equal(left, right):
                raise AssertionError("associativity check failed")
    else:
        rng = np.random.default_rng(rng_seed)
        k = min(10 * n * n, 1_000_000)
        a = rng.integers(0, n, size=k)
        b = rng.integers(0, n, size=k)
        c = rng.integers(0, n, size=k)
        if not np.array_equal(mult[mult[a, b], c], mult[a, mult[b, c]]):
            raise AssertionError("associativity check failed (sampled)")


def generate_group(gens, cap=DEFAULT_CAP, name="") -> FiniteGroup:
    """Closure of concrete generators under composition, as a FiniteGroup."""
    gens = list(gens)
    if gens:
        sig = gens[0].signature()
        for g in gens[1:]:
            if g.signature() != sig:
                raise MixedElementKinds(f"{g.signature()} vs {sig}")
        ident = gens[0].identity()
        gens = [g for i, g in enumerate(gens)
                if g != ident and g not in gens[:i]]
    else:
        ident = None

    if not gens:
        mult = np.zeros((1, 1), dtype=np.int32)
        G = FiniteGroup(1, mult, np.zeros(1, dtype=np.int32), [], [()],
                        np.zeros((1, 0), dtype=np.int32),
                        np.full((1, 2), -1, dtype=np.int32),
                        elements=[ident] if ident is not None else None,
                        name=name)
        _verify_tables(G)
        return G

    ngens = len(gens)
    elems = [ident]
    index = {ident: 0}
    mult_gen_rows = []
    pred = [(-1, -1)]
    i = 0
    while i < len(elems):
        e = elems[i]
        row = np.empty(ngens, dtype=np.int32)
        for gi, g in enumerate(gens):
            f = e * g
            j = index.get(f)
            if j is None:
                j = len(elems)
                if j >= cap:
                    raise ClosureCapExceeded(f"closure exceeds cap {cap}")
                index[f] = j
                elems.append(f)
                pred.append((i, gi))
            row[gi] = j
        mult_gen_rows.append(row)
        i += 1

    n = len(elems)
    mult_gen = np.stack(mult_gen_rows)
    pred = np.asarray(pred, dtype=np.int32)
    words = [()] * n
    for x in range(1, n):
        words[x] = words[pred[x, 0]] + (int(pred[x, 1]),)

    mult = np.empty((n, n), dtype=np.int32)
    mult[:, 0] = np.arange(n)
    for x in range(1, n):
        mult[:, x] = mult_gen[mult[:, pred[x, 0]], pred[x, 1]]

    inv = np.empty(n, dtype=np.int32)
    rows, cols = np.nonzero(mult == 0)
    inv[rows] = cols

    gen_ids = [int(mult_gen[0, gi]) for gi in range(ngens)]
    G = FiniteGroup(n, mult, inv, gen_ids, words, mult_gen, pred,
                    elements=elems, name=name)
    _verify_tables(G)
    return G


def group_from_table(table, gen_positions, name="") -> tuple:
    """Relabel a raw group table (identity at index 0) into BFS-canonical
    form from the given generator positions.  Returns (group, relabel) where
    relabel maps old indices to new ids."""
    table = np.asarray(table, dtype=np.int32)
    n = table.shape[0]
    gen_positions = [int(g) for g in gen_positions if g != 0]
    seen = [g for i, g in enumerate(gen_positions) if g not in gen_positions[:i]]
    gen_positions = seen
    ngens = len(gen_positions)

    relabel = np.full(n, -1, dtype=np.int32)
    relabel[0] = 0
    old_of = [0]
    pred = [(-1, -1)]
    i = 0
    while i < len(old_of):
        x = old_of[i]
        for gi, s in enumerate(gen_positions):
            y = int(table[x, s])
            if relabel[y] < 0:
                relabel[y] = len(old_of)
                old_of.append(y)
                pred.append((i, gi))
        i += 1
    if len(old_of) != n:
        raise ValueError("given positions do not generate the table group")

    old_of = np.asarray(old_of, dtype=np.int32)
    mult = relabel[table[np.ix_(old_of, old_of)]]
    mult_gen = relabel[table[np.ix_(old_of, np.asarray(gen_positions, dtype=np.int32))]] \
        if ngens else np.zeros((n, 0), dtype=np.int32)
    pred = np.asarray(pred, dtype=np.int32)
    words = [()] * n
    for x in range(1, n):
        words[x] = words[pred[x, 0]] + (int(pred[x, 1]),)
    inv = np.empty(n, dtype=np.int32)
    rows, cols = np.nonzero(mult == 0)
    inv[rows] = cols
    gen_ids = [int(mult_gen[0, gi]) for gi in range(ngens)]
    G = FiniteGroup(n, mult.astype(np.int32), inv, gen_ids, words,
                    mult_gen.astype(np.int32), pred, elements=None, name=name)
    _verify_tables(G)
    return G, relabel


# ---------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------

class Subgroup:
    """Sorted element-id set inside a parent group, verified closed."""

    def __init__(self, parent: FiniteGroup, members, check=True):
        self.parent = parent
        m = np.unique(np.asarray(members, dtype=np.int32))
        self.members = m
        self._set = frozenset(int(x) for x in m)
        if check:
            if 0 not in self._set:
                raise ValueError("subgroup must contain the identity")
            if parent.order % len(m) != 0:
                raise ValueError("Lagrange violation: not a subgroup")
            sub = parent.mult[np.ix_(m, m)]
            if not set(np.unique(sub)) <= self._set:
                raise ValueError("set not closed under multiplication")

    @property
    def order(self):
        return len(self.members)

    def __contains__(self, g):
        return int(g) in self._set

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.parent.key == other.parent.key
                and np.array_equal(self.members, other.members))

    def __le__(self, other):
        return self._set <= other._set

    def __hash__(self):
        return hash((self.parent.key, self.members.tobytes()))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name or 'anon'})"

    def is_normal(self):
        return _is_normal(self.parent, self)


@memo
def _is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    p = G.mult[:, H.members]                    # g * m
    conj = G.mult[p, G.inv[:, None]]            # g * m * g^-1
    return set(np.unique(conj)) <= H._set


def _closure_ids(table, seed):
    """Sorted ids of the subgroup generated by seed in a group table."""
    seed = np.unique(np.asarray(list(seed) + [0], dtype=np.int32))
    members = {0}
    frontier = np.asarray([0], dtype=np.int32)
    while frontier.size:
        prod = np.unique(table[np.ix_(frontier, seed)])
        new = np.asarray([x for x in prod if int(x) not in members], dtype=np.int32)
        members.update(int(x) for x in new)
        frontier = new
    return np.asarray(sorted(members), dtype=np.int32)


def subgroup_generated(G: FiniteGroup, seed) -> Subgroup:
    return Subgroup(G, _closure_ids(G.mult, seed), check=False)


def normal_closure(G: FiniteGroup, seed) -> Subgroup:
    seed = set(int(x) for x in seed) | {0}
    while True:
        members = _closure_ids(G.mult, seed)
        p = G.mult[:, members]
        conj = G.mult[p, G.inv[:, None]]
        allc = set(int(x) for x in np.unique(conj))
        if allc <= set(int(x) for x in members):
            return Subgroup(G, members, check=False)
        seed = allc


def commutator_subgroup(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    if not (A.is_normal() or B.is_normal()):
        raise NonNormalArguments("commutator needs at least one normal argument")
    a, b = A.members, B.members
    x = G.mult[np.ix_(G.inv[a], G.inv[b])]
    y = G.mult[np.ix_(a, b)]
    comms = np.unique(G.mult[x, y])
    return subgroup_generated(G, comms)


def power_commutator_subgroup(G: FiniteGroup, A: Subgroup, m: int) -> Subgroup:
    """Subgroup generated by {a^m : a in A} and [g,a] for g in G, a in A."""
    if not A.is_normal():
        raise NonNormalArguments("power-commutator needs a normal argument")
    a = A.members
    g = np.arange(G.order, dtype=np.int32)
    x = G.mult[np.ix_(G.inv[g], G.inv[a])]
    y = G.mult[np.ix_(g, a)]
    comms = np.unique(G.mult[x, y])
    return subgroup_generated(G, np.concatenate([_powers(G, a, m), comms]))


def _powers(G: FiniteGroup, a, m: int) -> np.ndarray:
    """a^m for every id in the array a, by square-and-multiply."""
    powers = np.zeros(len(a), dtype=np.int32)
    base = np.asarray(a, dtype=np.int32)
    e = int(m)
    while e:
        if e & 1:
            powers = G.mult[powers, base]
        base = G.mult[base, base]
        e >>= 1
    return powers


def intersect_subgroups(subs) -> Subgroup:
    subs = list(subs)
    if not subs:
        raise EmptyList("need at least one subgroup")
    parent = subs[0].parent
    for s in subs[1:]:
        if s.parent.key != parent.key:
            raise MixedParents("subgroups from different parents")
    members = subs[0].members
    for s in subs[1:]:
        members = np.intersect1d(members, s.members)
    return Subgroup(parent, members, check=False)


def join_subgroups(G: FiniteGroup, subs) -> Subgroup:
    seed = np.unique(np.concatenate([s.members for s in subs]))
    return subgroup_generated(G, seed)


def subgroup_as_group(G: FiniteGroup, H: Subgroup):
    """Materialize a subgroup as its own FiniteGroup.

    Returns (K, embed) where embed[k-id] = parent element id."""
    m = H.members
    idx = np.full(G.order, -1, dtype=np.int32)
    idx[m] = np.arange(len(m))
    table = idx[G.mult[np.ix_(m, m)]]
    # greedy minimal generating positions
    gens = []
    closure = {0}
    for pos in range(1, len(m)):
        if pos not in closure:
            gens.append(pos)
            closure = set(int(x) for x in _closure_ids(table, gens))
            if len(closure) == len(m):
                break
    K, relabel = group_from_table(table, gens, name=f"{G.name}|sub{len(m)}")
    embed = np.empty(len(m), dtype=np.int32)
    embed[relabel] = m
    return K, embed


# ---------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------

@dataclass
class GroupHom:
    domain: FiniteGroup
    codomain: FiniteGroup
    image: np.ndarray
    verified: bool = False

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.int32)
        if not self.verified:
            self.validate()
            self.verified = True

    def validate(self):
        f = self.image
        if f[0] != 0:
            raise ValueError("hom must send identity to identity")
        lhs = f[self.domain.mult]
        rhs = self.codomain.mult[np.ix_(f, f)]
        if not np.array_equal(lhs, rhs):
            raise ValueError("map is not multiplicative")

    def __call__(self, g):
        return int(self.image[g])

    def kernel(self) -> Subgroup:
        return Subgroup(self.domain,
                        np.nonzero(self.image == 0)[0].astype(np.int32),
                        check=False)

    def image_subgroup(self) -> Subgroup:
        return Subgroup(self.codomain, np.unique(self.image), check=False)

    def is_surjective(self):
        return len(np.unique(self.image)) == self.codomain.order

    def is_injective(self):
        return len(np.unique(self.image)) == self.domain.order

    def then(self, other: "GroupHom") -> "GroupHom":
        """self followed by other."""
        return GroupHom(self.domain, other.codomain, other.image[self.image],
                        verified=True)

    def preimage(self, S: Subgroup) -> Subgroup:
        mask = np.isin(self.image, S.members)
        return Subgroup(self.domain, np.nonzero(mask)[0].astype(np.int32),
                        check=False)

    def push(self, S: Subgroup) -> Subgroup:
        return Subgroup(self.codomain, np.unique(self.image[S.members]),
                        check=False)

    def section(self) -> np.ndarray:
        """The BFS-minimal set-section of a surjection: each codomain id
        maps to the least domain id sent to it."""
        xs, first = np.unique(self.image, return_index=True)
        t = np.zeros(self.codomain.order, dtype=np.int64)
        t[xs] = first
        return t


def word_images(pred, U: FiniteGroup, C: np.ndarray) -> np.ndarray:
    """Evaluate BFS words under rows of generator images.

    pred[t] = (position of the predecessor, generator index) for each
    position t > 0 of a BFS, and C is an m x k matrix whose rows give
    images in U of the generators.  Returns the m x len(pred) matrix of
    images of the word reaching each position."""
    C = np.asarray(C, dtype=np.int32)
    img = np.zeros((C.shape[0], len(pred)), dtype=np.int32)
    for t in range(1, len(pred)):
        pe, pg = pred[t]
        img[:, t] = U.mult[img[:, pe], C[:, pg]]
    return img


def hom_from_generator_images(G: FiniteGroup, U: FiniteGroup,
                              images) -> GroupHom:
    """The homomorphism G -> U with the given generator images, evaluated
    along G's BFS words and fully verified."""
    return GroupHom(G, U, word_images(G.pred, U, [images])[0])


def quotient_group(G: FiniteGroup, N: Subgroup):
    """G/N with BFS-canonical ids.  Returns (Q, projection hom)."""
    if not N.is_normal():
        raise NotNormal("quotient by a non-normal subgroup")
    cos = G.mult[:, N.members]
    rep = cos.min(axis=1).astype(np.int32)           # g -> min id in gN
    reps = np.unique(rep)
    pos = np.full(G.order, -1, dtype=np.int32)
    pos[reps] = np.arange(len(reps))
    table = pos[rep[G.mult[np.ix_(reps, reps)]]]
    gen_pos = [int(pos[rep[g]]) for g in G.generators]
    Q, relabel = group_from_table(table, gen_pos,
                                  name=f"{G.name}/N{N.order}" if G.name else "")
    proj = GroupHom(G, Q, relabel[pos[rep]], verified=True)
    assert proj.kernel() == N
    return Q, proj


# ---------------------------------------------------------------------
# Misc structure helpers
# ---------------------------------------------------------------------

@memo
def _element_orders(G: FiniteGroup) -> np.ndarray:
    orders = np.zeros(G.order, dtype=np.int64)
    cur = np.arange(G.order, dtype=np.int32)
    k = 1
    remaining = G.order
    while remaining:
        done = (cur == 0) & (orders == 0)
        orders[done] = k
        remaining -= int(done.sum())
        cur = G.mult[cur, np.arange(G.order)]
        k += 1
    return orders


def element_order(G: FiniteGroup, g) -> int:
    return int(_element_orders(G)[g])


def exponent(G: FiniteGroup) -> int:
    return int(lcm(*[int(x) for x in _element_orders(G)]))


def is_abelian(G: FiniteGroup) -> bool:
    return np.array_equal(G.mult, G.mult.T)


def center(G: FiniteGroup) -> Subgroup:
    mask = np.ones(G.order, dtype=bool)
    for s in G.generators:
        mask &= G.mult[:, s] == G.mult[s, :]
    return Subgroup(G, np.nonzero(mask)[0].astype(np.int32), check=False)


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    return commutator_subgroup(G, G.whole(), G.whole())


def signature(G: FiniteGroup):
    """Isomorphism-invariant fingerprint: order, exponent, element-order
    multiset, center order and derived-subgroup order."""
    orders = tuple(sorted(int(x) for x in _element_orders(G)))
    return (G.order, exponent(G), orders, center(G).order, derived_subgroup(G).order)


@memo
def element_index(G: FiniteGroup) -> dict:
    """Lookup table from concrete element to its id."""
    if G.elements is None:
        raise ValueError("group has no concrete elements")
    return {e: i for i, e in enumerate(G.elements)}


# ---------------------------------------------------------------------
# Builtins and JSON input
# ---------------------------------------------------------------------

def group_from_json(doc) -> FiniteGroup:
    if isinstance(doc, str):
        doc = json.loads(doc)
    kind = doc["kind"]
    if kind == "permutation":
        d = int(doc["degree"])
        gens = [Perm(g) for g in doc["generators"]]
        if any(len(g.map) != d for g in gens):
            raise ValueError("degree mismatch")
    elif kind == "matrix":
        m = int(doc["modulus"])
        gens = [MatMod(g, m) for g in doc["generators"]]
    elif kind == "residue":
        m = int(doc["modulus"])
        gens = [Residue(g, m) for g in doc["generators"]]
    else:
        raise ValueError(f"unknown element kind {kind!r}")
    return generate_group(gens, name=doc.get("name", ""))


def spec_ints(spec: str, fields, count: int) -> list:
    """The fields cut from spec, as exactly `count` positive integers."""
    if len(fields) != count or not all(f.isdigit() and int(f) > 0
                                       for f in fields):
        raise SpecError(f"malformed spec {spec!r}: expected {count} "
                        "positive integer field(s)")
    return [int(f) for f in fields]


def builtin_group(name: str) -> FiniteGroup:
    """Resolve a builtin group name: D4, Q8, Z/n, E:p:k, Mp3:p, U:n:m,
    Heis:p, Meta:p, and 'x'-joined direct products of these."""
    from . import unitriangular as ut  # deferred: unitriangular imports core

    if "x" in name:
        factors = [builtin_group(part) for part in name.split("x")]
        gens = []
        for i, F in enumerate(factors):
            if F.elements is None:
                raise SpecError(f"factor {F.name} has no concrete elements")
            for g in F.generators:
                parts = [Fj.elements[g if j == i else 0]
                         for j, Fj in enumerate(factors)]
                gens.append(TupleElem(parts))
        return generate_group(gens, name=name)

    if name == "D4":
        return generate_group([perm_from_cycles(4, [(0, 1, 2, 3)]),
                               perm_from_cycles(4, [(1, 3)])], name="D4")
    if name == "Q8":
        i = MatMod([[0, -1], [1, 0]], 3)
        j = MatMod([[1, 1], [1, -1]], 3)
        return generate_group([i, j], name="Q8")
    fields = name.split(":")[1:]
    if name.startswith("Z/"):
        (n,) = spec_ints(name, [name[2:]], 1)
        return generate_group([Residue(1, n)], name=name)
    if name.startswith("E:"):
        p, k = spec_ints(name, fields, 2)
        gens = [TupleElem([Residue(1 if j == i else 0, p) for j in range(k)])
                for i in range(k)]
        return generate_group(gens, name=name)
    if name.startswith("Mp3:"):
        return ut.build_mp3(*spec_ints(name, fields, 1)).E
    if name.startswith("U:"):
        return ut.build_unitriangular(*spec_ints(name, fields, 2))
    if name.startswith("Heis:"):
        return ut.build_unitriangular(2, *spec_ints(name, fields, 1))
    if name.startswith("Meta:"):
        # order p^4 semidirect product <t> x| <s>, both Z/p^2, s t s^-1 = t^(1+p)
        (p,) = spec_ints(name, fields, 1)
        q = p * p
        pts = [(c, d) for d in range(q) for c in range(q)]
        pos = {pt: i for i, pt in enumerate(pts)}
        t = Perm([pos[((c + 1) % q, d)] for (c, d) in pts])
        s = Perm([pos[((c * (1 + p)) % q, (d + 1) % q)] for (c, d) in pts])
        return generate_group([t, s], name=name)
    raise SpecError(f"unknown builtin group {name!r}")
