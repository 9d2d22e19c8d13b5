"""Finite groups as dense multiplication tables, plus the subgroup calculus.

A group is its tables, and it is built one of two ways.  `generate_group`
closes concrete generators, each a row of ints (a permutation's images,
a matrix's entries mod m, a residue, a row of ids, a series'
coefficients), one BFS level at a time: a batched product of a level's
rows by each generator, numbered through a dict on row bytes.  It keeps
only the tables it reads off them: `group_from_json`, the stand-ins and
every builtin but the products are built so.  `group_from_table`
relabels a table that already exists: quotients, subgroups and
`direct_product`, which reads a product's table off its factors' tables
(every `A x B x ...` and `E:p:k` builtin).
Element id 0 is always the identity and ids follow BFS discovery order, so
every derived structure (BFS words, cosets, reports) is deterministic.  A
subgroup is its sorted member ids.

Once a table exists, `_bfs` is the one table BFS: it relabels quotient and
subgroup tables (`group_from_table`), gives the hom search its partial
BFS (`homsearch._partial_bfs`) and closes every subgroup
(`subgroup_generated`, `subgroup_as_group`, `normal_closure`).  It runs a
level at a time.  Lemma (level order is queue order): a queue BFS handles
all of level L before any id of level L+1, and within L it finds new ids
in (parent position, column) order, the first occurrence winning; so
keeping each unseen id of a level's parent-major successor block at its
first occurrence numbers the ids as the queue does.  `generate_group`
numbers elements in the same order, a level at a time, before any table
exists.  `bfs_levels` is the one walk along BFS predecessors, a level at
a time: it fills the table and the inverses of every group
(`generate_group`, `_table_group`), evaluates BFS words (`word_images`)
and expands cochains in `cohomology`.

Each c > 0 is d*s for its BFS predecessor d < c and a generator s, so a
law shown on every edge e -> e*s holds on all of G by induction on the BFS
word: the one check behind every table (`_verify_tables`), hom and
character (`_respects_generator_edges`) and cocycle, run by each constructor.
The hom search runs the same check inside its word walk: `word_images`,
given an edge schedule, checks each scheduled edge at the level where it
closes and drops the rows that fail there, while the tree edges hold by
construction.  `closing_edges` schedules every edge off the BFS tree;
`relator_edges` keeps the few of them that the others follow from, by
the deduction step of coset enumeration (each kept edge is a relator,
and its loop at every position, with all edges but one known, makes the
last one known), and the search checks only those.  Its lemmas show the
rows left after each level are the same either way.

`memo` is the one cache, and it is kept per table, not per object.
`_table_group` looks each verified group's key (a sha1 of mult and
generators) and pred up in a weak registry of caches and gives the group
the live cache found there, or registers a fresh one.  A cache stays
registered while any group holds it, so every group built with the key
and pred of a live twin shares that twin's cache: a quotient equal to a
group already built (G/1, the elementary abelian G/Tbar of many groups)
recomputes no T-bundle, hom search or H^2.  The objects stay distinct,
so renaming one renames no other.  The lemma is at `memo`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import weakref
from dataclasses import dataclass, field
from math import lcm, prod

import numpy as np

from .errors import (ClosureCapExceeded, EdgeCheckFailed, EmptyList,
                     KernelMismatch, MixedParents, NonNormalArguments,
                     NotASubgroup, NotNormal, SpecError, UnkeyedArgument)

DEFAULT_CAP = 8192
# The dtype of stored element-id matrices (the full hom sets of
# `homsearch.enumerate_homs` and the rows built from them).  Lemma: every
# id is below DEFAULT_CAP = 8192 <= 2^15 (closure and `direct_product`
# stop there, quotients and subgroups are smaller), so int16 holds it.
# Table products x * |U| + y need 32 bits: `_table_product` takes them
# in int32.
ID_DTYPE = np.int16


@dataclass
class FiniteGroup:
    order: int
    mult: np.ndarray          # order x order element ids
    inv: np.ndarray           # order element ids
    generators: list          # element ids (distinct, non-identity)
    mult_gen: np.ndarray      # order x ngens: g * generators[i]
    pred: np.ndarray          # order x 2: (predecessor id, generator index)
    name: str = ""
    key: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.key:
            h = hashlib.sha1()
            # hashed in place: a tobytes() copy would be one more table
            h.update(np.ascontiguousarray(self.mult, dtype=np.int32))
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

    def power(self, a, m):
        return int(_powers(self, [a], int(m) % element_order(self, a))[0])

    def whole(self):
        # every id of a verified group is in it: nothing to check
        return Subgroup(self, np.arange(self.order, dtype=np.int32),
                        check=False)

    def trivial_subgroup(self):
        # {identity} is a subgroup of every group: nothing to check
        return Subgroup(self, np.zeros(1, dtype=np.int32), check=False)


_MISS = object()


def _memo_key(a):
    if isinstance(a, FiniteGroup):
        return a.key
    if isinstance(a, Subgroup):
        return a.members.tobytes()
    if isinstance(a, GroupHom):
        return a.codomain.key, a.image.tobytes()
    if isinstance(a, (int, np.integer)):
        return int(a)
    label = getattr(a, "label", None)     # an OmegaFamily
    if isinstance(label, str):
        return label
    raise UnkeyedArgument(f"memo cannot key a {type(a).__name__}")


def memo(fn):
    """Cache fn(G, *args) in G._cache.

    The key is fn's name plus the positional arguments: groups by .key,
    subgroups by member bytes, homs by codomain key and image bytes (their
    domain is G), families by .label and ints as they are.  Keyword-only
    arguments (the search budget) follow in signature order, with their
    defaults bound, so a call that omits the budget and one that passes
    its default share an entry, and a value found under one budget is
    never returned under another.  Every other argument must be passed
    positionally.

    Twins share one cache: `_table_group` hands each new group the live
    cache registered under the same key (mult and generators) and the same
    pred, so G/1, or one elementary abelian G/Tbar reached from many
    groups, is worked on once.

    Lemma: sharing returns what a cold cache would.  Every memoized value
    is a function of (mult, generators, pred) and of its keyed arguments
    only, compared as the program compares them: groups by key, subgroups
    by parent key and members (`Subgroup.__eq__`, `MixedParents`).  pred
    is not in the key, and `cohomology._tree_coboundaries` caches W, built
    along it, and `cohomology._kept_loops` the loops of G's own BFS, so
    the registry is keyed on it too.  A value may hold the twin
    that built it (a quotient map's domain, a subgroup's parent); reports
    read names from the caller's group only.
    `dataclasses.replace(G, _cache={})` bypasses `_table_group` and stays
    cold.  The registry holds its caches weakly: it keeps no group or cache
    alive, and an entry goes when the last group holding its cache dies."""
    name = fn.__name__
    params = inspect.signature(fn).parameters.values()
    defaults = {q.name: q.default for q in params if q.kind is q.KEYWORD_ONLY}

    @functools.wraps(fn)
    def cached(G, *args, **kwargs):
        if not kwargs.keys() <= defaults.keys():
            raise UnkeyedArgument(
                f"{name}: pass {sorted(kwargs.keys() - defaults.keys())} "
                "positionally")
        key = (name, *map(_memo_key, args),
               *(_memo_key(kwargs.get(k, d)) for k, d in defaults.items()))
        value = G._cache.get(key, _MISS)
        if value is _MISS:
            value = G._cache[key] = fn(G, *args, **kwargs)
        return value

    return cached


# the size, in entries, of the temporaries of the chunked passes over a
# whole table (`_verify_tables`, `group_from_table`)
_CHUNK_ENTRIES = 1 << 16


def _verify_tables(G: FiniteGroup):
    """Check that G's tables define a group: 0 is a two-sided identity, inv
    gives right inverses, mult_gen is mult at the generator columns, each
    c > 0 is mult_gen[d, i] for (d, i) = pred[c] with 0 <= d < c and d
    nondecreasing in c (ids in BFS queue order, the property `bfs_levels`
    walks by), and (a*b)*s = a*(b*s) for all a, b and every generator s.

    Lemma: then mult is associative.  Induct on c along pred; c = 0 holds
    by the identity.  For c = d*s with (a*b)*d = a*(b*d):
    (a*b)*c = ((a*b)*d)*s = (a*(b*d))*s = a*((b*d)*s) = a*(b*c), by the
    edge identity three times.  Chunks of rows a keep the temporaries near
    _CHUNK_ENTRIES = 2^16 entries, so the check adds no spike to the
    memory of a build even at order 4096."""
    n = G.order
    mult, inv = G.mult, G.inv
    ar = np.arange(n)
    if not (np.array_equal(mult[0], ar) and np.array_equal(mult[:, 0], ar)):
        raise EdgeCheckFailed("0 is not a two-sided identity")
    if not np.array_equal(mult[ar, inv], np.zeros(n, dtype=mult.dtype)):
        raise EdgeCheckFailed("inv does not give right inverses")
    if not np.array_equal(G.mult_gen, mult[:, G.generators]):
        raise EdgeCheckFailed("mult_gen is not mult at the generators")
    d, i = G.pred[1:, 0], G.pred[1:, 1]
    if not (((0 <= d) & (d < ar[1:])).all() and (np.diff(d) >= 0).all()
            and np.array_equal(G.mult_gen[d, i], ar[1:])):
        raise EdgeCheckFailed("broken BFS predecessors")
    step = max(1, _CHUNK_ENTRIES // (n * max(len(G.generators), 1)))
    for lo in range(0, n, step):
        rows = mult[lo:lo + step]
        # np.take: rows[:, mult_gen] would loop over the few rows innermost
        if not np.array_equal(G.mult_gen[rows],
                              np.take(rows, G.mult_gen, axis=1)):
            raise EdgeCheckFailed("associativity check failed")


def generate_group(ident, gens, step, name="") -> FiniteGroup:
    """Closure of concrete generators under composition, as a FiniteGroup
    of at most DEFAULT_CAP elements.  An element is a row of ints: ident
    is the identity's row, gens a (k, w) array of generator rows, and
    step(X, j) returns the rows X * gens[j] of a batch X of rows.  A
    generator equal to the identity or to an earlier one is dropped, and
    step is called with indices into gens.  The rows live only inside the
    closure (`_close`): the group keeps its tables, filled from mult_gen
    along pred a BFS level at a time, and element i is the BFS word of id
    i evaluated in the generators."""
    mult_gen, pred = _close(ident, gens, step)
    n = len(pred)
    mult = np.empty((n, n), dtype=np.int32)
    mult[:, 0] = np.arange(n)
    for lo, hi, d, s in bfs_levels(pred):
        mult[:, lo:hi] = mult_gen[mult[:, d], s]
    return _table_group(mult, mult_gen, pred, name)


def _close(ident, gens, step):
    """The closure of `generate_group`, as (mult_gen, pred).

    It runs one BFS level at a time.  A level's products are formed
    parent-major, (parent, generator), in chunks of about _CHUNK_ENTRIES
    entries, and a dict on row bytes numbers each unseen row at its first
    occurrence: the queue order (lemma in the module docstring), so ids,
    mult_gen and pred are those of a queue BFS over the same generators.
    ClosureCapExceeded is raised once the closure has more than
    DEFAULT_CAP elements, checked after each chunk."""
    ident = np.asarray(ident)
    w = ident.size
    gens = np.asarray(gens, dtype=ident.dtype).reshape(-1, w)
    keys = [ident.tobytes()] + [g.tobytes() for g in gens]
    cols = [j for j in range(len(gens)) if keys[j + 1] not in keys[:j + 1]]
    k, row = len(cols), np.dtype((np.void, ident.itemsize * w))
    block = max(1, _CHUNK_ENTRIES // max(1, k * w))
    index = {keys[0]: 0}
    # steps[t] = k * (parent id) + column of each id found, by chunk
    level, mult_gen, steps = ident[None], [], []
    while len(level):
        start, found = len(index) - len(level), []     # id of level[0]
        for lo in range(0, len(level), block):
            X = level[lo:lo + block]
            Y = np.empty((len(X), k, w), dtype=ident.dtype)
            for c, j in enumerate(cols):
                Y[:, c] = step(X, j)
            Y = Y.reshape(len(X) * k, w)
            n0 = len(index)
            ids = np.array([index.setdefault(r, len(index))
                            for r in Y.view(row).ravel().tolist()],
                           dtype=np.int32)
            if len(index) > DEFAULT_CAP:
                raise ClosureCapExceeded(f"closure exceeds cap {DEFAULT_CAP}")
            fresh = np.flatnonzero(ids >= n0)
            if len(fresh) > len(index) - n0:    # a new row found twice
                fresh = fresh[np.unique(ids[fresh], return_index=True)[1]]
            mult_gen.append(ids.reshape(len(X), k))
            steps.append((start + lo) * k + fresh)
            found.append(Y[fresh])
        level = np.concatenate(found)

    pred = np.full((len(index), 2), -1, dtype=np.int32)
    pred[1:, 0], pred[1:, 1] = np.divmod(np.concatenate(steps), max(k, 1))
    return np.concatenate(mult_gen), pred


def _residue_group(values, m, name="") -> FiniteGroup:
    """The closure of residues mod m under addition.  The sum of two
    residues is taken in int64, so m above 2^62 is refused (SpecError)."""
    if m > 2 ** 62:
        raise SpecError(f"modulus {m} is too large for int64 sums")
    r = np.asarray(values, dtype=np.int64).reshape(-1, 1) % m
    return generate_group([0], r, lambda X, j: (X + r[j]) % m, name)


def _perm_group(perms, name="") -> FiniteGroup:
    """The closure of permutations of 0..d-1, the rows of perms, under
    (a*b)(i) = a(b(i))."""
    P = np.asarray(perms, dtype=np.int64)
    return generate_group(np.arange(P.shape[-1]), P, lambda X, j: X[:, P[j]],
                          name)


def _matrix_group(mats, m, name="") -> FiniteGroup:
    """The closure of square n x n matrices mod m, as rows of their
    entries.  A product's entry, a sum of n products of entries below m,
    is taken in int64, so an m with n (m - 1)^2 >= 2^63 is refused
    (SpecError)."""
    M = np.asarray(mats, dtype=np.int64)
    n = M.shape[-1]
    if n * (m - 1) ** 2 >= 2 ** 63:
        raise SpecError(f"modulus {m} is too large for int64 products")
    M %= m
    return generate_group(
        np.eye(n, dtype=np.int64).ravel(), M.reshape(len(M), n * n),
        lambda X, j: (X.reshape(-1, n, n) @ M[j] % m).reshape(len(X), -1),
        name)


class _Cache(dict):
    """A memo cache; unlike a plain dict it can be held weakly."""
    __slots__ = ("__weakref__",)


# the live memo cache of each (key, pred bytes): an entry goes when the
# last group holding its cache dies
_TWINS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _table_group(mult, mult_gen, pred, name) -> FiniteGroup:
    """The group of BFS-canonical tables, its inverses and generator ids
    read off them; every FiniteGroup is built and verified here.  A group
    with the key and pred of a live group shares that group's memo cache
    (`memo`).

    The inverses come from one row scan per generator and one walk along
    pred: for c = d*s, c^-1 = s^-1 d^-1.  `_verify_tables` then checks
    them on every id, as it would any inverse array."""
    n = len(mult)
    gens = mult_gen[0]
    # argmax of a row with no 0 is 0, which `_verify_tables` rejects
    gen_inv = np.argmax(mult[gens] == 0, axis=1)
    inv = np.zeros(n, dtype=np.int32)
    for lo, hi, d, s in bfs_levels(pred):
        inv[lo:hi] = mult[gen_inv[s], inv[d]]
    G = FiniteGroup(n, mult, inv, [int(s) for s in gens], mult_gen, pred,
                    name=name)
    _verify_tables(G)
    twin_key = G.key, np.asarray(pred, dtype=np.int32).tobytes()
    cache = _TWINS.get(twin_key)
    if cache is None:
        cache = _TWINS[twin_key] = _Cache()
    G._cache = cache
    return G


def _bfs(table, cols):
    """Breadth-first search of a successor table from id 0: from x it
    steps to table[x, c] for each c in cols, in order.

    Returns (order, pred): the reached ids in discovery order, and
    pred[t] = (position in order of the parent, index into cols) of
    order[t], with pred[0] = (-1, -1).  Each level gathers its rows of
    table[:, cols] parent-major and keeps every unseen id at its first
    occurrence, which is the queue order (lemma in the module docstring);
    so each parent precedes its child and pred[:, 0] is nondecreasing,
    the property `bfs_levels` walks by.

    Lemma: a level's unseen successors repeat only across columns.  Every
    column `_bfs` is given is a permutation of ids (a group table's, a
    `mult_gen`'s, the conjugations of `normal_closure`), so one column
    maps the distinct ids of a level to distinct ids, and a search along
    one column needs no first-occurrence pass."""
    cols = np.asarray(cols, dtype=np.intp)
    k = cols.size
    succ_of = table[:, cols]        # gathered once: a level reads its rows
    seen = np.zeros(len(table), dtype=bool)
    seen[0] = True
    level = np.zeros(1, dtype=np.int32)
    # steps[t] = k * (parent position) + column of each id found, by level
    order, steps = [level], [np.zeros(0, dtype=np.intp)]
    start = 0                       # position of level[0] in order
    while level.size and k:
        succ = succ_of[level].ravel()
        fresh = np.flatnonzero(~seen[succ])
        if k > 1:
            first = np.unique(succ[fresh], return_index=True)[1]
            fresh = fresh[np.sort(first)]
        steps.append(start * k + fresh)
        start += level.size
        level = succ[fresh]
        seen[level] = True
        order.append(level)
    order = np.concatenate(order)
    pred = np.full((len(order), 2), -1, dtype=np.int32)
    pred[1:, 0], pred[1:, 1] = np.divmod(np.concatenate(steps), k)
    return order, pred


def bfs_levels(pred):
    """The one walk along BFS predecessors: yields (lo, hi, d, s) for each
    BFS level, the positions lo..hi-1 in order, where position c is reached
    from its parent d[c - lo] by the generator s[c - lo], and every d < lo.
    A caller fills positions lo..hi-1 from d in one batched step.

    It needs pred[0] = (-1, -1) and, for c > 0, pred[c] = (d, s) with
    0 <= d < c and pred[:, 0] nondecreasing: `_verify_tables` checks this
    for every group, and `_bfs` and `generate_group` give it by numbering
    positions in BFS queue order.

    Lemma: the batches partition 1..len(pred)-1 in order and every d < lo.
    With pred[:, 0] nondecreasing, the positions whose parents are < lo
    form a prefix 0..hi-1, found by one searchsorted; pred[lo, 0] < lo, so
    hi > lo.  Each batch is one level: the positions whose parents lie in
    the level before."""
    d, s = np.asarray(pred, dtype=np.intp).T.copy()
    lo = 1
    while lo < len(d):
        hi = int(np.searchsorted(d, lo))
        if hi <= lo:
            raise EdgeCheckFailed("broken BFS predecessors")
        yield lo, hi, d[lo:hi], s[lo:hi]
        lo = hi


def group_from_table(table, gen_positions, name="") -> tuple:
    """Relabel a raw group table (identity at index 0) into BFS-canonical
    form from the given generator positions.  Returns (group, relabel) where
    relabel maps old indices to new ids: the inverse of the BFS order.

    The new table is mult[a, b] = relabel[table[old_of[a], old_of[b]]],
    filled a chunk of rows at a time, each of about _CHUNK_ENTRIES entries,
    so only the input, the output and one chunk are alive at once."""
    table = np.asarray(table, dtype=np.int32)
    n = table.shape[0]
    gen_positions = list(dict.fromkeys(int(g) for g in gen_positions if g))
    old_of, pred = _bfs(table, gen_positions)
    if len(old_of) != n:
        raise SpecError("given positions do not generate the table group")
    relabel = np.empty(n, dtype=np.int32)
    relabel[old_of] = np.arange(n)
    mult = np.empty((n, n), dtype=np.int32)
    step = max(1, _CHUNK_ENTRIES // n)
    for lo in range(0, n, step):
        np.take(relabel, table[np.ix_(old_of[lo:lo + step], old_of)],
                out=mult[lo:lo + step])
    G = _table_group(mult, mult[:, relabel[gen_positions]], pred, name)
    return G, relabel


def direct_product(factors, name="") -> FiniteGroup:
    """The direct product of the factor groups, built from their tables.

    Element (a_1, ..., a_k) sits at the mixed-radix index sum a_i * w_i,
    w_i the product of the later factors' orders, so the table is the sum
    over i of w_i * mult_i[a_i, b_i]: one broadcast add of each factor's
    table into a view of the product's table that splits each index into
    (earlier digits, a_i, later digits).  The generators are each factor's
    generators, factor by factor, with the identity in the other slots.
    A product of more than DEFAULT_CAP elements raises before any table
    is allocated.

    Lemma: this is the group `generate_group` closes from those generators
    as concrete tuples, with the same mult, generators, key and pred.
    `group_from_table` numbers ids by `_bfs`, which runs in queue order
    (module docstring), as the closure does, from the same generator
    list."""
    n = prod(F.order for F in factors)
    if n > DEFAULT_CAP:
        raise ClosureCapExceeded(f"product of order {n} exceeds cap "
                                 f"{DEFAULT_CAP}")
    table = np.zeros((n, n), dtype=np.int32)
    above, gens = 1, []
    for F in factors:
        w = n // (above * F.order)
        block = table.reshape(above, F.order, w, above, F.order, w)
        block += (F.mult * w)[None, :, None, None, :, None]
        gens += [s * w for s in F.generators]
        above *= F.order
    return group_from_table(table, gens, name)[0]


# ---------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------

def _member_mask(members, ids):
    """Which of the ids lie in the nonempty sorted id array members: one
    searchsorted, so no set of the members is built."""
    at = np.minimum(np.searchsorted(members, ids), members.size - 1)
    return members[at] == ids


class Subgroup:
    """Sorted element-id array inside a parent group, verified closed."""

    def __init__(self, parent: FiniteGroup, members, check=True):
        self.parent = parent
        m = np.unique(np.asarray(members, dtype=np.int32))
        self.members = m
        if check:
            if 0 not in self:
                raise NotASubgroup("subgroup must contain the identity")
            if parent.order % len(m) != 0:
                raise NotASubgroup("Lagrange violation: not a subgroup")
            sub = parent.mult[np.ix_(m, m)]
            if not _member_mask(m, sub).all():
                raise NotASubgroup("set not closed under multiplication")

    @property
    def order(self):
        return len(self.members)

    def __contains__(self, g):
        at = np.searchsorted(self.members, int(g))
        return at < self.order and self.members[at] == int(g)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.parent.key == other.parent.key
                and np.array_equal(self.members, other.members))

    def __le__(self, other):
        if self.parent.key != other.parent.key:
            raise MixedParents("subgroups from different parents")
        return bool(_member_mask(other.members, self.members).all())

    def __hash__(self):
        return hash((self.parent.key, self.members.tobytes()))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name or 'anon'})"

    def is_normal(self):
        return _is_normal(self.parent, self)


@memo
def _is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    """Is s^-1 H s inside H for every generator s?

    Lemma: that suffices.  H is finite, so s^-1 H s <= H means
    s^-1 H s = H, and every g is a positive word in the generators (an
    inverse is a power), so g^-1 H g = H by induction on the word."""
    gens = np.asarray(G.generators, dtype=np.intp)
    conj = conjugates(G, gens[:, None], H.members)
    return bool(_member_mask(H.members, conj).all())


def subgroup_generated(G: FiniteGroup, seed) -> Subgroup:
    """The ids reached by `_bfs` from 1 under x -> x*s for s in seed: a
    finite set with 1 closed under right multiplication by the seed."""
    seed = np.unique(np.asarray(seed, dtype=np.int32))
    return Subgroup(G, _bfs(G.mult, seed)[0], check=False)


def normal_closure(G: FiniteGroup, seed) -> Subgroup:
    """The smallest normal subgroup containing seed: one `_bfs` whose
    columns are x -> x*s for each s in seed, then x -> g^-1 x g for each
    generator g.

    Lemma: the set X reached from 1 is the normal closure N.  Every step
    maps N into N, so X <= N.  X is closed under conjugation by each
    generator, hence by every element h, and by h^-1 too, since h^-1 is a
    power of h.  So for x in X, x * (h^-1 s h) = h^-1 ((h x h^-1) * s) h
    is in X: X holds 1 and is closed under right multiplication by every
    conjugate of the seed, so it contains the subgroup they generate, N."""
    gens = np.asarray(G.generators, dtype=np.intp)
    conj = conjugates(G, gens, np.arange(G.order)[:, None])
    seed = np.unique(np.asarray(seed, dtype=np.int32))
    table = np.concatenate([G.mult[:, seed], conj], axis=1)
    return Subgroup(G, _bfs(table, range(table.shape[1]))[0], check=False)


def conjugates(G: FiniteGroup, g, x) -> np.ndarray:
    """The ids of g^-1 x g, for ids or id arrays g and x broadcast
    together: the one conjugation formula of the package."""
    return G.mult[G.mult[G.inv[g], x], g]


def commutators(G: FiniteGroup, x, y) -> np.ndarray:
    """The |x| x |y| ids of [x_i, y_j] = x_i^-1 y_j^-1 x_i y_j, for the id
    lists x and y: the one commutator convention of the package."""
    x, y = np.asarray(x, dtype=np.intp), np.asarray(y, dtype=np.intp)
    return G.mult[G.mult[np.ix_(G.inv[x], G.inv[y])], G.mult[np.ix_(x, y)]]


def commutator_subgroup(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    """[A, B] for normal A and B: the normal closure of the commutators
    [x, b] with x in X, the greedy generators of A (`_least_id_generators`),
    and b in B.

    Lemma: [A, B] is the normal closure of [X, B] in <A, B> (Robinson,
    5.1.7), which lies in its normal closure in G; and that lies in
    [A, B], which is normal in G when A and B are."""
    if not (A.is_normal() and B.is_normal()):
        raise NonNormalArguments("commutator needs normal arguments")
    x = _least_id_generators(G, A, G.trivial_subgroup())
    return normal_closure(G, commutators(G, x, B.members).ravel())


def power_commutator_subgroup(G: FiniteGroup, A: Subgroup, m: int) -> Subgroup:
    """Subgroup generated by {a^m : a in A} and [g,a] for g in G, a in A.

    Lemma: the commutators [s, a] with s a generator suffice.  Let D be
    generated by the a^m and the [s, a]; D <= A, as A is normal.  From
    [gt, a] = [g, a]^t [t, a] and w^t = w [t, w]^-1, with w = [g, a] in D
    and t a generator, [gt, a] is in D whenever [g, a] is, so every
    [g, a] is in D by induction on the positive word of g."""
    if not A.is_normal():
        raise NonNormalArguments("power-commutator needs a normal argument")
    a = A.members
    comms = np.unique(commutators(G, G.generators, a))
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


@memo
def _least_id_generators(G: FiniteGroup, H: Subgroup, D: Subgroup):
    """Greedy generators of H modulo D: each pick is the least member of H
    outside the subgroup generated by D's own greedy generators (the seed)
    and the earlier picks.  Only the picks are returned, as a read-only
    intp array, since the memo hands one array to every caller.  With the
    trivial D they generate H; with D normal inside H, they generate H
    modulo D.

    The seed generates D (they are D's greedy generators), so the members
    reached before the first pick are D's own."""
    seed = (_least_id_generators(G, D, G.trivial_subgroup()).tolist()
            if D.order > 1 else [])
    picks = []
    reached = np.zeros(G.order, dtype=bool)
    reached[D.members] = True
    left = H.members[~reached[H.members]]
    while left.size:
        picks.append(int(left[0]))
        reached[_bfs(G.mult, seed + picks)[0]] = True
        left = left[~reached[left]]
    picks = np.array(picks, dtype=np.intp)
    picks.flags.writeable = False
    return picks


def _elementary_abelian_mod(G: FiniteGroup, x, b: Subgroup, p: int) -> bool:
    """Do x^p and [x, y] lie in b for all x, y in the id list x?

    Lemma: for normal b <= a and x generating a modulo b, this holds iff
    a/b is elementary abelian.  The images of x generate a/b; generators
    that commute make it abelian, and an abelian group generated by
    elements of order dividing p has exponent p.  Conversely, in an
    elementary abelian a/b every x^p and every [x, y] is trivial."""
    x = np.asarray(x, dtype=np.intp)
    inb = np.zeros(G.order, dtype=bool)
    inb[b.members] = True
    return bool(inb[_powers(G, x, p)].all()
                and inb[commutators(G, x, x)].all())


def subgroup_as_group(G: FiniteGroup, H: Subgroup):
    """Materialize a subgroup as its own FiniteGroup.

    Returns (K, embed) where embed[k-id] = parent element id."""
    m = H.members
    idx = np.full(G.order, -1, dtype=np.int32)
    idx[m] = np.arange(len(m))
    table = idx[G.mult[np.ix_(m, m)]]
    gens = idx[_least_id_generators(G, H, G.trivial_subgroup())]
    K, relabel = group_from_table(table, gens, name=f"{G.name}|sub{len(m)}")
    embed = np.empty(len(m), dtype=np.int32)
    embed[relabel] = m
    return K, embed


# ---------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------

def _table_product(U: FiniteGroup):
    """U's product as a vectorized function of two id arrays, read from
    the flat table: mul(x, y) = mult.ravel()[x * |U| + y].

    The flat index fits in int32: every group has |U| <= DEFAULT_CAP = 8192
    elements (closure and `direct_product` stop there, quotients and
    subgroups are smaller), and 8192^2 = 2^26 < 2^31.  So x * |U| is taken
    in int32 whatever x is: under NumPy 2 promotion an id array narrower
    than that (`ID_DTYPE` rows) times |U| would keep its dtype and wrap,
    and an int32 x * |U| + y is int32 for every y narrower than int64."""
    flat, n = U.mult.ravel(), U.order
    # not flat.take: take first copies the int32 index into a whole intp
    # array, which the buffered fancy index never holds
    return lambda x, y: flat[np.multiply(x, n, dtype=np.int32) + y]


def _respects_generator_edges(tgt: np.ndarray, F: np.ndarray,
                              mul) -> np.ndarray:
    """Which rows of F are homs: the boolean mask over rows.

    tgt[e, s] is the position of e*s in a BFS of a group H (position 0 is
    the identity, s runs over H's generators, so tgt[0, s] is the position
    of generator s); for G's own BFS, tgt is G.mult_gen.  Each row f of F
    gives an image per position in a target with vectorized product mul and
    identity 0.  A row passes when f[0] = 0 and
    f[tgt[e, s]] = mul(f[e], f[tgt[0, s]]) on every edge (e, s):
    O(|H| * ngens) per row, one pass over every edge, BFS tree edges
    included, as F need not come from `word_images`.

    Lemma: then f(a*c) = f(a) f(c) for all a, c in H.  Induct on c along
    H's BFS words; c = 1 holds by f(1) = 0.  For c = d*s:
    f(a*c) = f((a*d)*s) = f(a*d) f(s) = f(a) f(d) f(s) = f(a) f(c), by the
    edge identity twice and associativity in the target."""
    t = tgt.ravel()
    e, s = np.divmod(np.arange(t.size), tgt.shape[1])
    return (F[:, 0] == 0) & (F[:, t] == mul(F[:, e], F[:, tgt[0, s]])).all(
        axis=1)


def closing_edges(pred, tgt):
    """The edge schedule of a BFS for `word_images`: its non-tree edges,
    each at the level where it closes.

    pred is the BFS's predecessor array and tgt[e, s] the position of e*s
    (as at `_respects_generator_edges`).  An edge (e, s) is a tree edge
    when pred[c] = (e, s) for some c > 0.  Each other edge is listed by
    the positions (t, e, g) = (tgt[e, s], e, tgt[0, s]) of its check
    img[t] = img[e] img[g], sorted by its closing position
    max(e, t, g), the last of the three that a level fills.  Returns
    (t, e, g, bounds): the edges closing in level k of `bfs_levels(pred)`
    are the slice bounds[k]:bounds[k + 1].  Every closing position is at
    least 1 (tgt[0, s] > 0), and the levels partition 1..len(pred)-1, so
    each non-tree edge is in exactly one slice."""
    tree = np.zeros(tgt.shape, dtype=bool)
    tree[pred[1:, 0], pred[1:, 1]] = True
    e, s = np.nonzero(~tree)
    t, g = tgt[e, s], tgt[0, s]
    close = np.maximum(np.maximum(e, t), g)
    order = np.argsort(close, kind="stable")
    starts = [lo for lo, *_ in bfs_levels(pred)] + [len(pred)]
    bounds = np.searchsorted(close[order], starts).tolist()
    return t[order], e[order], g[order], bounds


def _grown(buf, need, axis=0):
    """buf, or a copy zero-padded along axis to at least twice its length
    there, when need exceeds that length."""
    have = buf.shape[axis]
    if need <= have:
        return buf
    shape = list(buf.shape)
    shape[axis] = max(need, 2 * have)
    out = np.zeros(shape, buf.dtype)
    out[(slice(None),) * axis + (slice(have),)] = buf
    return out


def _walk(step, back, word, X):
    """Trace the signed word from the positions X, a letter s for a step
    along generator s and ~s for a step back: (E, Y), E[c, v] the id
    p k + s of the edge (p, s) of the c-th letter from X[v], its generator
    column for k = len(step) generators, and Y the positions reached."""
    edges = []
    for c in word:
        if c >= 0:
            edges.append(X * len(step) + c)
            X = step[c][X]
        else:
            X = back[~c][X]
            edges.append(X * len(step) + ~c)
    return np.array(edges), X


# A loop's tally in `relator_edges`: 2^32 per unknown occurrence plus the
# sum of their edge ids, so a tally in [2^32, 2^33) names its one unknown.
# Lemma: the id sum stays below 2^32.  On a BFS of depth D with k
# generators S, take g_i at depth i on one shortest path; the sets g_i S
# for i = 0, 3, 6, ... are disjoint (their depths lie in i - 1..i + 1),
# so (D / 3) k <= n.  A loop has at most 2D + 1 occurrences, each id is
# below k n, and (2D + 1) k n <= 7 n^2 < 2^29 for n <= DEFAULT_CAP = 2^13.
_TALLY = 1 << 32


def relator_edges(pred, tgt, schedule):
    """A deduction-closed basis of the edge schedule `closing_edges(pred,
    tgt)`, and the record of its deductions: (basis, record), basis the
    sub-schedule, in the same (t, e, g, bounds) form, of the edges
    `word_images` must check.  The record is the second reader's: on the
    BFS of G itself, `cohomology._relator_forms` replays it to solve Z^2.

    A non-tree edge (x, s) to y = tgt[x, s] gives the relator
    r = w(x) s w(y)^-1 of the group H the BFS spans, w(c) the BFS word of
    position c.  The edges are taken in closing order, and one is kept
    only if the edges kept so far do not deduce it:
    - Loops.  r = 1 in H, so from every position v the signed word r
      traces a closed loop of edges, the left translate by v of r's loop
      at 0.  A kept edge adds these loops, traced along tgt from every v
      at once (`_walk`); the tree paths w(x), w(y) are read off the levels
      of one `bfs_levels` walk.  When r = u^q with the word u shorter, the
      loops from v and from v.u are one cycle, so only one loop per orbit of
      v -> v.u is traced: n p occurrences in all, for a u of p letters,
      however long r is (a^1024 in Z/1024 x Z/2).
    - Deduction.  An edge is known when it is a tree edge, kept or
      deduced.  When every occurrence on a loop but one is known, that one
      is deduced.  Each loop keeps a tally of its unknown occurrences
      (`_TALLY`), and each edge the loops it lies on, so a round of
      deductions only touches the loops of the edges it makes known.
    - Record.  record = (kept, words, starts, rounds), ints only, not the
      traced loops, and independent of any prime.  kept[i] is the id
      p k + s of the i-th kept edge (p, s), words[i] its relator as a list
      of signed letters (both as at `_walk`) and starts[i] the positions
      its loops are traced from.  Each entry of rounds is one deduction
      round, in order: (edges, loops), the ids of the edges it deduced
      (one deduced by two loops is listed twice) and, for each, the loop
      that deduced it, numbered from 1 over the loops of the kept edges in
      order.

    Lemma (a), soundness: a row C of generator images whose word walk
    passes the kept edges passes every edge.  Let img be its images and
    d(p, s) = img[p] C[s] img[tgt[p, s]]^-1 the defect of an edge; tree
    edges have d = 1.  Along a path p_0, ..., p_m with steps s_1..s_m,
    img[p_0] C[s_1]...C[s_m] = d_1 ... d_m img[p_m], by telescoping (a
    step back along s contributes d^-1).  On a kept edge's loop at 0
    every edge but the kept one is a tree edge, so C(r) = 1; then around
    every loop the defect product is 1, and when all defects but one are
    1 that one is 1.  By induction on the deductions, every deduced edge
    passes.

    Lemma (b), same level: the rows a walk with the basis keeps after each
    BFS level are those the walk with every edge keeps.  An edge dropped
    is deduced from edges kept before it, which close no later.  A row
    that passes the kept edges closing by level k passes, by lemma (a) on
    its full image row (whose first k levels are what the walk has
    filled), every edge they deduce: all edges closing by level k.  So F,
    meet, `explored` and every output of the hom search stay the same."""
    t, e, g, bounds = schedule
    n, k = tgt.shape
    if len(t) < 2:                  # the first edge is never deduced
        # one non-tree edge of n k - (n - 1) means k = 1: the BFS is the
        # cycle 0 -> 1 -> ... -> n - 1 -> 0, the relator s^n and 0 its
        # one orbit start
        return schedule, ([n - 1] * len(t), [[0] * n] * len(t),
                          [np.zeros(1, dtype=np.intp)] * len(t), [])
    ar = np.arange(n)
    depth = np.zeros(n, dtype=np.intp)
    levels = []                     # (lo, parents, letters) per level
    for lo, hi, d, s in bfs_levels(pred):
        depth[lo:hi] = len(levels) + 1
        levels.append((lo, d.tolist(), s.tolist()))
    depth = depth.tolist()

    def path(c):
        """The letters of the tree path from 0 to c: the BFS word w(c)."""
        letters = []
        while c:
            lo, d, s = levels[depth[c] - 1]
            letters.append(s[c - lo])
            c = d[c - lo]
        return letters[::-1]

    step = np.ascontiguousarray(tgt.T, dtype=np.intp)   # step[s][p] = p.s
    back = np.empty_like(step)                          # back[s][p.s] = p
    back[np.arange(k)[:, None], step] = ar
    gen_of = np.empty(n, dtype=np.intp)
    gen_of[tgt[0]] = np.arange(k)
    ids = e * k + gen_of[g]          # edge (p, s) has id p * k + s
    known = np.zeros(k * n, dtype=bool)
    known[pred[1:, 0] * k + pred[1:, 1]] = True
    tally = np.zeros(4 * n + 1, dtype=np.int64)
    on = np.zeros((k * n, 4 * k), dtype=np.intp)         # edge, slot
    loops, slots = 1, 0
    kept = []
    record = kept_ids, words, starts, rounds = [], [], [], []
    i = -1
    while True:
        left = np.flatnonzero(~known[ids[i + 1:]])
        if not left.size:
            break
        i += 1 + int(left[0])
        kept.append(i)
        K = int(ids[i])
        x, s0 = divmod(K, k)
        word = path(x) + [s0] + [~s for s in path(int(tgt[x, s0]))[::-1]]
        L = len(word)
        p = next(d for d in range(1, L + 1)
                 if L % d == 0 and word[d:] + word[:d] == word)
        start = ar
        if p < L:                   # the least position of each orbit
            u, low = _walk(step, back, word[:p], ar)[1], ar
            for _ in range((L // p).bit_length()):
                low, u = np.minimum(low, low[u]), u[u]
            start = np.flatnonzero(low == ar)
        m = len(start)
        E = _walk(step, back, word, start)[0]   # E[c, v]: loop v's c-th edge
        kept_ids.append(K)
        words.append(word)
        starts.append(start)
        seen = [0] * k
        slot = []
        for c in word[:p]:          # a slot per occurrence of a letter in u
            s = c if c >= 0 else ~c
            slot.append(seen[s])
            seen[s] += 1
        known[K] = True
        tally = _grown(tally, loops + m)
        on = _grown(on, slots + max(seen), axis=1)
        tally[loops:loops + m] = ((E + _TALLY) * ~known[E]).sum(axis=0)
        hit = on[K, :slots]
        np.subtract.at(tally, hit, _TALLY + K)
        # the copies of u in r meet disjoint edges, so they share slots
        on[E, slots + np.array(slot * (L // p))[:, None]] = (
            loops + np.arange(m))
        hit = np.concatenate([hit, loops + np.arange(m)])
        loops += m
        slots += max(seen)
        while True:
            tally[0] = 0            # loop 0 sinks the unused slots of `on`
            tallies = tally[hit]
            one = tallies >> 32 == 1
            deduced = tallies[one] - _TALLY
            if not deduced.size:
                break
            rounds.append((deduced, hit[one]))
            fresh = np.zeros(k * n, dtype=bool)
            fresh[deduced] = True
            new = np.flatnonzero(fresh)
            known[new] = True
            hit = on[new, :slots].ravel()
            np.subtract.at(tally, hit, np.repeat(new + _TALLY, slots))
    kept = np.array(kept, dtype=np.intp)
    return ((t[kept], e[kept], g[kept],
             np.searchsorted(kept, bounds).tolist()), record)


@dataclass(eq=False)
class GroupHom:
    """A homomorphism by its image array; every construction validates.
    Two homs are equal when their domain keys, codomain keys and images
    are, and hash alike then, as subgroups do (`Subgroup.__eq__`)."""
    domain: FiniteGroup
    codomain: FiniteGroup
    image: np.ndarray

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.int32)
        self.validate()

    def __eq__(self, other):
        return (isinstance(other, GroupHom)
                and self.domain.key == other.domain.key
                and self.codomain.key == other.codomain.key
                and np.array_equal(self.image, other.image))

    def __hash__(self):
        return hash((self.domain.key, self.codomain.key,
                     self.image.tobytes()))

    def validate(self):
        f = self.image
        if f.shape != (self.domain.order,) or not (
                (0 <= f) & (f < self.codomain.order)).all():
            raise EdgeCheckFailed("image must list one codomain id per "
                                  "element")
        if not _respects_generator_edges(self.domain.mult_gen, f[None, :],
                                         _table_product(self.codomain))[0]:
            raise EdgeCheckFailed("map is not multiplicative")

    def __call__(self, g):
        return int(self.image[g])

    def kernel(self) -> Subgroup:
        return Subgroup(self.domain,
                        np.nonzero(self.image == 0)[0].astype(np.int32),
                        check=False)

    def is_surjective(self):
        return len(np.unique(self.image)) == self.codomain.order

    def is_injective(self):
        return len(np.unique(self.image)) == self.domain.order

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


def word_images(pred, U: FiniteGroup, C: np.ndarray,
                edges=None) -> np.ndarray:
    """Evaluate BFS words under rows of generator images.

    pred[t] = (position of the predecessor, generator index) for each
    position t > 0 of a BFS, and C is an m x k matrix whose rows give
    images in U of the generators.  Returns the matrix of images of the
    word reaching each position, one row per row of C and one column per
    position, stored column by column (each position's images are
    contiguous), filled a BFS level at a time (`bfs_levels`).

    With `edges`, the schedule `closing_edges` of this BFS or its
    deduction-closed basis `relator_edges`, the walk also keeps only the
    rows that are homs on the subgroup H the BFS spans: after each level
    is filled, the scheduled edges that close there are checked on the
    rows left, and the rows that fail one are dropped at once.  Only the
    image rows of the rows of C that pass are returned, in order.

    Lemma: a row returned is a hom on H (the edge lemma at
    `_respects_generator_edges`).  Its position 0 is the identity.  A tree
    edge pred[c] = (d, s) holds by construction: img[c] = img[d] C[s], and
    C[s] is the image at the position of generator s, since each
    generator is distinct and not 1, so level 1 reaches it from 0 by s.
    Every scheduled edge closes at exactly one level, where all three of
    its positions are filled, and is checked there.  Under `closing_edges`
    that is every other edge; under its basis, the edges left out pass
    whenever the kept ones do (lemma (a) at `relator_edges`), and the rows
    left after each level are the same (lemma (b) there)."""
    C = np.asarray(C, dtype=np.int32)
    mul = _table_product(U)
    img = np.zeros((len(pred), C.shape[0]), dtype=np.int32)
    for k, (lo, hi, d, s) in enumerate(bfs_levels(pred)):
        img[lo:hi] = mul(img[d], C[:, s].T)
        if edges is None:
            continue
        t, e, g, bounds = edges
        a, b = bounds[k], bounds[k + 1]
        if a == b:                          # no edge closes at this level
            continue
        ok = (img[t[a:b]] == mul(img[e[a:b]], img[g[a:b]])).all(axis=0)
        if not ok.all():
            C = C[ok]
            kept = np.zeros((len(pred), len(C)), dtype=np.int32)
            kept[:hi] = img[:hi, ok]
            img = kept
    return img.T


def hom_from_generator_images(G: FiniteGroup, U: FiniteGroup,
                              images) -> GroupHom:
    """The homomorphism G -> U with the given generator images, evaluated
    along G's BFS words and fully verified."""
    return GroupHom(G, U, word_images(G.pred, U, [images])[0])


def quotient_group(G: FiniteGroup, N: Subgroup):
    """G/N with BFS-canonical ids.  Returns (Q, projection hom).

    Lemma: proj(g) = 1 iff the least id of gN is 0, iff g^-1 lies in N;
    so ker proj = N^-1, which is N iff N is closed under inverses.  Only
    N's normality is checked here, so a members set that is not a
    subgroup fails the edge check of proj or raises
    `errors.KernelMismatch`."""
    if N.parent.key != G.key:
        raise MixedParents("quotient by a subgroup of another group")
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
    proj = GroupHom(G, Q, relabel[pos[rep]])
    if proj.kernel() != N:
        raise KernelMismatch(f"ker proj has order {proj.kernel().order}, "
                             f"N has order {N.order}")
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


# ---------------------------------------------------------------------
# Builtins and JSON input
# ---------------------------------------------------------------------

def _json_ints(doc, field):
    """doc[field] as an int64 array, or SpecError."""
    try:
        return np.asarray(doc[field], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise SpecError(f"{field!r} is missing or not an array of integers "
                        "of one shape") from None


def group_from_json(doc) -> FiniteGroup:
    """The closure of the generators of a JSON document, or of its text:
    {"kind": "permutation", "degree": d, "generators": [[images], ...]},
    {"kind": "matrix", "modulus": m, "generators": [[[row], ...], ...]}
    or {"kind": "residue", "modulus": m, "generators": [r, ...]}, with an
    optional "name".  A malformed document raises SpecError."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise SpecError(f"not a JSON document: {e}") from None
    if not isinstance(doc, dict):
        raise SpecError("a group document must be a JSON object")
    kind, name = doc.get("kind"), doc.get("name", "")
    if kind not in ("permutation", "matrix", "residue"):
        raise SpecError(f"unknown element kind {kind!r}")
    field = "degree" if kind == "permutation" else "modulus"
    size = _json_ints(doc, field)
    if size.ndim or size < 1:
        raise SpecError(f"{field} must be a positive integer")
    n = int(size)
    gens = _json_ints(doc, "generators")
    if kind == "residue":
        if gens.ndim != 1:
            raise SpecError("a residue is one integer")
        return _residue_group(gens, n, name)
    if kind == "matrix":
        M = gens.reshape(0, 1, 1) if gens.size == 0 else gens
        if M.ndim != 3 or M.shape[1] != M.shape[2]:
            raise SpecError("matrix must be square")
        return _matrix_group(M, n, name)
    P = gens.reshape(-1, n) if gens.size == 0 else gens
    if P.ndim != 2 or P.shape[1] != n:
        raise SpecError("degree mismatch")
    if not (np.sort(P, axis=1) == np.arange(n)).all():
        raise SpecError("not a permutation of 0..d-1")
    return _perm_group(P, name)


def spec_ints(spec: str, fields, count: int) -> list:
    """The fields cut from spec, as exactly `count` positive integers."""
    if len(fields) != count or not all(f.isdigit() and int(f) > 0
                                       for f in fields):
        raise SpecError(f"malformed spec {spec!r}: expected {count} "
                        "positive integer field(s)")
    return [int(f) for f in fields]


def spec_prime(text) -> int:
    """text as a prime p; gf inverts mod p by Fermat, so every --p and
    every family prime must be prime."""
    p = int(text) if str(text).isdigit() else 0
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise SpecError(f"p = {text!r} is not a prime")
    return p


def spec_positive(text) -> int:
    """text as a positive integer: the argparse type of every count flag."""
    return spec_ints(text, [text], 1)[0]


def builtin_group(name: str) -> FiniteGroup:
    """Resolve a builtin group name: D4, Q8, Z/n, E:p:k, Mp3:p, U:n:m,
    Heis:p, Meta:p, and 'x'-joined direct products of these."""
    from . import unitriangular as ut  # deferred: unitriangular imports core

    if "x" in name:
        return direct_product([builtin_group(part)
                               for part in name.split("x")], name)

    if name == "D4":
        return _perm_group([[1, 2, 3, 0], [0, 3, 2, 1]], name)
    if name == "Q8":
        return _matrix_group([[[0, -1], [1, 0]], [[1, 1], [1, -1]]], 3, name)
    fields = name.split(":")[1:]
    if name.startswith("Z/"):
        (n,) = spec_ints(name, [name[2:]], 1)
        return _residue_group([1], n, name)
    if name.startswith("E:"):
        p, k = spec_ints(name, fields, 2)
        return direct_product([builtin_group(f"Z/{p}")] * k, name)
    if name.startswith("Mp3:"):
        return ut.build_mp3(*spec_ints(name, fields, 1)).E
    if name.startswith("U:"):
        return ut.build_unitriangular(*spec_ints(name, fields, 2))
    if name.startswith("Heis:"):
        return ut.build_unitriangular(2, *spec_ints(name, fields, 1))
    if name.startswith("Meta:"):
        # order p^4 semidirect product <t> x| <s>, both Z/p^2, s t s^-1 =
        # t^(1+p), as permutations of the points c + q d of (Z/q)^2
        (p,) = spec_ints(name, fields, 1)
        q = p * p
        c, d = np.arange(q * q) % q, np.arange(q * q) // q
        return _perm_group([(c + 1) % q + q * d,
                            c * (1 + p) % q + q * ((d + 1) % q)], name)
    raise SpecError(f"unknown builtin group {name!r}")
