"""Concrete element representations fed into the table-closure machinery.

Each kind supports composition (``*``), hashing/equality, and production of
the identity of its own kind, which is all that ``generate_group`` needs.
"""

from __future__ import annotations

import numpy as np

from .errors import SpecError


class Perm:
    """Permutation of {0..d-1}; (a*b)(i) = a(b(i))."""

    __slots__ = ("map", "_hash")

    def __init__(self, mapping):
        self.map = tuple(int(x) for x in mapping)
        d = len(self.map)
        if sorted(self.map) != list(range(d)):
            raise SpecError("not a permutation of 0..d-1")
        self._hash = hash(("perm", self.map))

    def __mul__(self, other):
        if not isinstance(other, Perm) or len(other.map) != len(self.map):
            return NotImplemented
        return Perm(tuple(self.map[j] for j in other.map))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.map == other.map

    def __hash__(self):
        return self._hash

    def identity(self):
        return Perm(range(len(self.map)))

    def signature(self):
        return ("perm", len(self.map))

    def __repr__(self):
        return f"Perm({self.map})"


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
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SpecError("matrix must be square")
        self.entries = a
        self.entries.setflags(write=False)
        self.modulus = int(modulus)
        self._hash = hash(("mat", self.modulus, a.tobytes()))

    def __mul__(self, other):
        if (not isinstance(other, MatMod) or other.modulus != self.modulus
                or other.entries.shape != self.entries.shape):
            return NotImplemented
        return MatMod(self.entries @ other.entries, self.modulus)

    def __eq__(self, other):
        return (isinstance(other, MatMod) and self.modulus == other.modulus
                and np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return self._hash

    def identity(self):
        return MatMod(np.eye(self.entries.shape[0], dtype=np.int64), self.modulus)

    def signature(self):
        return ("mat", self.modulus, self.entries.shape[0])

    def __repr__(self):
        return f"MatMod({self.entries.tolist()}, mod {self.modulus})"


class Residue:
    """Residue in Z/m under addition."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        self.modulus = int(modulus)
        self.value = int(value) % self.modulus

    def __mul__(self, other):
        if not isinstance(other, Residue) or other.modulus != self.modulus:
            return NotImplemented
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

    def __repr__(self):
        return f"Residue({self.value} mod {self.modulus})"


class IdVector:
    """Element given by ids in a fixed list of multiplication tables.

    Used for images of a generator tuple under many homomorphisms at once
    (segment i composes inside table ``tables[i]``).  All instances sharing
    the same ``tables`` object are composable.
    """

    __slots__ = ("tables", "ids", "_hash")

    def __init__(self, tables, ids):
        self.tables = tables  # list of (mult-table ndarray) shared by reference
        self.ids = np.asarray(ids, dtype=np.int32)
        self.ids.setflags(write=False)
        self._hash = hash(("idvec", self.ids.tobytes()))

    def __mul__(self, other):
        if not isinstance(other, IdVector) or other.tables is not self.tables:
            return NotImplemented
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

    def __repr__(self):
        return f"IdVector({len(self.ids)} slots)"
