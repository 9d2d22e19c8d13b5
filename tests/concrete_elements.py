"""Concrete elements of table-held groups, rebuilt in the tests, and the
object closure that the level-batched `core.generate_group` replaced.

A FiniteGroup keeps only its tables.  Element i of a group closed by
`generate_group` is the BFS word of id i, read off pred, evaluated in the
concrete generators; `unitriangular_matrices` evaluates those words one
position at a time, with no `core.bfs_levels`, so it serves as the
reference for code that reads matrix entries off the tables.

`closure` is the reference for `core.generate_group`: a queue BFS over
Python element objects (`Perm`, `MatMod`, `Residue`, `IdVector`,
`Series`, `TupleElem`), each hashed one product at a time.
`reference_generators` gives the objects each builtin, family extension
and stand-in was closed from, so a test can rebuild a group both ways.
`Series`, a dict from monomials to coefficients, is also the reference
for `magnus.magnus_image`, whose coefficient rows `tests/test_magnus.py`
compares with products of its generators.
"""

import numpy as np

from pcohom.core import (DEFAULT_CAP, _table_group, bfs_levels,
                         element_order)
from pcohom.errors import ClosureCapExceeded
from pcohom.magnus import _tuple_grid
from pcohom.unitriangular import omega_family


# ---------------------------------------------------------------------
# element objects: composition (*), hashing and equality, the identity
# of their own kind and a signature that two composable elements share
# ---------------------------------------------------------------------

class Perm:
    """Permutation of {0..d-1}; (a*b)(i) = a(b(i))."""

    __slots__ = ("map", "_hash")

    def __init__(self, mapping):
        self.map = tuple(int(x) for x in mapping)
        self._hash = hash(("perm", self.map))

    def __mul__(self, other):
        return Perm(tuple(self.map[j] for j in other.map))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.map == other.map

    def __hash__(self):
        return self._hash

    def identity(self):
        return Perm(range(len(self.map)))

    def signature(self):
        return ("perm", len(self.map))


def perm_from_cycles(d, cycles):
    """Permutation of {0..d-1} from a list of cycles."""
    m = list(range(d))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            m[a] = cyc[(i + 1) % len(cyc)]
    return Perm(m)


class MatMod:
    """Square matrix over Z/m."""

    __slots__ = ("entries", "modulus", "_hash")

    def __init__(self, entries, modulus):
        a = np.asarray(entries, dtype=np.int64) % modulus
        self.entries = a
        self.modulus = int(modulus)
        self._hash = hash(("mat", self.modulus, a.tobytes()))

    def __mul__(self, other):
        return MatMod(self.entries @ other.entries, self.modulus)

    def __eq__(self, other):
        return (isinstance(other, MatMod) and self.modulus == other.modulus
                and np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return self._hash

    def identity(self):
        return MatMod(np.eye(self.entries.shape[0], dtype=np.int64),
                      self.modulus)

    def signature(self):
        return ("mat", self.modulus, self.entries.shape[0])


class Residue:
    """Residue in Z/m under addition."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        self.modulus = int(modulus)
        self.value = int(value) % self.modulus

    def __mul__(self, other):
        return Residue(self.value + other.value, self.modulus)

    def __eq__(self, other):
        return (isinstance(other, Residue) and self.modulus == other.modulus
                and self.value == other.value)

    def __hash__(self):
        return hash(("res", self.modulus, self.value))

    def identity(self):
        return Residue(0, self.modulus)

    def signature(self):
        return ("res", self.modulus)


class IdVector:
    """Element given by ids in a fixed list of (table, slot count) pairs:
    segment i composes inside table tables[i][0]."""

    __slots__ = ("tables", "ids", "_hash")

    def __init__(self, tables, ids):
        self.tables = tables
        self.ids = np.asarray(ids, dtype=np.int32)
        self._hash = hash(("idvec", self.ids.tobytes()))

    def __mul__(self, other):
        out = np.empty_like(self.ids)
        pos = 0
        for tab, count in self.tables:
            seg = slice(pos, pos + count)
            out[seg] = tab[self.ids[seg], other.ids[seg]]
            pos += count
        return IdVector(self.tables, out)

    def __eq__(self, other):
        return (isinstance(other, IdVector) and other.tables is self.tables
                and np.array_equal(self.ids, other.ids))

    def __hash__(self):
        return self._hash

    def identity(self):
        return IdVector(self.tables, np.zeros_like(self.ids))

    def signature(self):
        return ("idvec", id(self.tables), len(self.ids))


class Series:
    """Unit of F_p<<x_1..x_k>> / (degree > deg) as a dict from monomials
    (tuples of 1-based letters) to nonzero coefficients."""

    __slots__ = ("coeffs", "p", "deg", "k", "_hash")

    def __init__(self, coeffs, p, deg, k):
        self.p, self.deg, self.k = p, deg, k
        self.coeffs = {w: c % p for w, c in coeffs.items()
                       if len(w) <= deg and c % p}
        self._hash = hash(("series", p, deg, k,
                           tuple(sorted(self.coeffs.items()))))

    def __mul__(self, other):
        out: dict = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                if len(w1) + len(w2) <= self.deg:
                    w = w1 + w2
                    out[w] = (out.get(w, 0) + c1 * c2) % self.p
        return Series(out, self.p, self.deg, self.k)

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def identity(self):
        return Series({(): 1}, self.p, self.deg, self.k)

    def signature(self):
        return ("series", self.p, self.deg, self.k)


class TupleElem:
    """The direct-product element: componentwise composition."""

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __mul__(self, other):
        return TupleElem(a * b for a, b in zip(self.parts, other.parts))

    def __eq__(self, other):
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def identity(self):
        return TupleElem(x.identity() for x in self.parts)

    def signature(self):
        return tuple(x.signature() for x in self.parts)


# ---------------------------------------------------------------------
# the object closure
# ---------------------------------------------------------------------

def closure(gens, name=""):
    """Reference: `generate_group` as a queue BFS over element objects,
    one hashed product at a time (`object_close`), then the table fill
    along pred."""
    mult_gen, pred = object_close(gens)
    n = len(pred)
    mult = np.empty((n, n), dtype=np.int32)
    mult[:, 0] = np.arange(n)
    for lo, hi, d, s in bfs_levels(pred):
        mult[:, lo:hi] = mult_gen[mult[:, d], s]
    return _table_group(mult, mult_gen, pred, name)


def object_close(gens):
    """Reference: `core._close` as a queue BFS over element objects, as
    (mult_gen, pred).  Generators equal to the identity or to an earlier
    generator are dropped; mixed kinds raise ValueError."""
    gens = list(gens)
    if gens:
        sig = gens[0].signature()
        if any(g.signature() != sig for g in gens):
            raise ValueError("mixed element kinds")
        ident = gens[0].identity()
        gens = [g for i, g in enumerate(gens)
                if g != ident and g not in gens[:i]]
    else:
        ident = None
    elems, index = [ident], {ident: 0}
    mult_gen, pred = [], [(-1, -1)]
    i = 0
    while i < len(elems):
        row = []
        for gi, g in enumerate(gens):
            f = elems[i] * g
            j = index.get(f)
            if j is None:
                j = len(elems)
                if j >= DEFAULT_CAP:
                    raise ClosureCapExceeded(f"closure exceeds cap "
                                             f"{DEFAULT_CAP}")
                index[f] = j
                elems.append(f)
                pred.append((i, gi))
            row.append(j)
        mult_gen.append(row)
        i += 1
    mult_gen = np.asarray(mult_gen, dtype=np.int32).reshape(len(elems),
                                                            len(gens))
    return mult_gen, np.asarray(pred, dtype=np.int32)


def superdiagonal(n, m):
    """The generators 1 + E_{i,i+1} of U_n(Z/m), i = 0..n-1."""
    gens = []
    for i in range(n):
        a = np.eye(n + 1, dtype=np.int64)
        a[i, i + 1] = 1
        gens.append(MatMod(a, m))
    return gens


def product_generators(factor_gens):
    """Each factor's generators in turn, with the identity in the other
    slots: the generators of a direct product of the factors."""
    ident = [g[0].identity() for g in factor_gens]
    return [TupleElem(ident[:i] + [g] + ident[i + 1:])
            for i, gens in enumerate(factor_gens) for g in gens]


def reference_generators(spec):
    """The element objects that the group of spec was closed from before
    the level-batched closure: a builtin name (the extension groups of
    the families are U:n:m and Mp3:p, their kernels Z/p) or
    "standin:<kind>:<k>:<p>:<n>"."""
    fields = spec.split(":")
    if spec.startswith("standin:"):
        kind, k, p, n = fields[1], *map(int, fields[2:])
        if kind == "zassenhaus":
            return [Series({(): 1, (i,): 1}, p, n, k)
                    for i in range(1, k + 1)]
        exts = omega_family("lower-central", n, p).extensions
        tables = [(ext.E.mult, ext.E.order ** k) for ext in exts]
        grids = [_tuple_grid(ext.E.order, k) for ext in exts]
        return [IdVector(tables, np.concatenate([g[i] for g in grids]))
                for i in range(k)]
    if "x" in spec:
        return product_generators([reference_generators(part)
                                   for part in spec.split("x")])
    if spec == "D4":
        return [perm_from_cycles(4, [(0, 1, 2, 3)]),
                perm_from_cycles(4, [(1, 3)])]
    if spec == "Q8":
        return [MatMod([[0, -1], [1, 0]], 3), MatMod([[1, 1], [1, -1]], 3)]
    if spec.startswith("Z/"):
        return [Residue(1, int(spec[2:]))]
    if spec.startswith("U:"):
        return superdiagonal(*map(int, fields[1:]))
    p = int(fields[1])
    if spec.startswith("E:"):
        return product_generators([[Residue(1, p)]] * int(fields[2]))
    if spec.startswith("Heis:"):
        return superdiagonal(2, p)
    q = p * p
    if spec.startswith("Mp3:"):
        return [Perm([(x + 1) % q for x in range(q)]),
                Perm([((1 - p) * x) % q for x in range(q)])]
    if spec.startswith("Meta:"):
        pts = [(c, d) for d in range(q) for c in range(q)]
        pos = {pt: i for i, pt in enumerate(pts)}
        return [Perm([pos[((c + 1) % q, d)] for (c, d) in pts]),
                Perm([pos[((c * (1 + p)) % q, (d + 1) % q)]
                      for (c, d) in pts])]
    raise ValueError(f"no reference generators for {spec!r}")


def unitriangular_matrices(E):
    """E = U_n(Z/m), built from the superdiagonal generators 1 + E_{i,i+1}
    in order, as an (|E|, n+1, n+1) array: the matrix of every id, by
    MatMod products along E's BFS words, mats[c] = mats[d] * gens[s] for
    pred[c] = (d, s).  n is the number of generators and m the order of
    the first, 1 + E_01.  The matrices are checked to be distinct."""
    n, m = len(E.generators), element_order(E, E.generators[0])
    gens = superdiagonal(n, m)
    mats = [MatMod(np.eye(n + 1, dtype=np.int64), m)]
    for d, s in E.pred[1:]:
        mats.append(mats[d] * gens[s])
    if len(set(mats)) != E.order:
        raise ValueError("the BFS words do not give distinct matrices")
    return np.stack([x.entries for x in mats])
