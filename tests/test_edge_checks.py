"""The generator-edge checks against the full checks they stand for.

Tables, homomorphisms and characters are each verified on generator
edges only (see the lemmas in `core._verify_tables` and
`core._respects_generator_edges`), and 2-cocycles, held as generator
columns, at the generators (`cohomology._column_violations`, with its
lemma).  The references below check the
definitions directly: O(n^3) associativity, O(|G|^2) multiplicativity
and the O(n^3) cocycle identity, the last on the table expanded from the
columns, beside the table check of `cocycle_tables`.  On valid objects
and on objects with one corrupted entry, the edge check must accept
exactly when its reference does.  The hom search, which checks each
edge inside its word walk at the level where the edge closes, is compared
with a search step that checks every forced product of every prefix.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import pcohom as pc
from pcohom import gf, homsearch
from pcohom.cohomology import (Cochain1, Cocycle2, _column_violations,
                               bockstein, classifying_cocycle, cup, h1,
                               h2_space, pullback)
from pcohom.core import (ID_DTYPE, _respects_generator_edges, _table_product,
                         _verify_tables)
from pcohom.errors import PcohomError
from pcohom.homsearch import _partial_bfs, enumerate_homs, lift_hom
from pcohom.pairings import cached_quotient, liftable_pullback_space
from cocycle_tables import (constraint_violations, expand,
                            generator_columns, table_accepts)
from test_cohomology import full_cocycle_constraints

ROOT = Path(__file__).resolve().parents[1]

GROUPS = ["Z/1", "Z/2", "Z/9", "D4", "Q8", "E:2:3", "Heis:3", "Z/4xZ/2",
          "Meta:3"]


# ---------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------

def full_group_table(mult, inv):
    n = len(mult)
    ar = np.arange(n)
    if not (np.array_equal(mult[0], ar) and np.array_equal(mult[:, 0], ar)
            and not mult[ar, inv].any()):
        return False
    return all(np.array_equal(mult[mult[a], :], mult[a][mult])
               for a in range(n))


def full_hom(G, U, f):
    return f[0] == 0 and np.array_equal(f[G.mult], U.mult[np.ix_(f, f)])


def full_character(G, v, p):
    return v[0] == 0 and np.array_equal(v[G.mult],
                                        (v[:, None] + v[None, :]) % p)


def full_cocycle(G, v, p):
    """Normalized, and f(g,h) + f(gh,k) = f(h,k) + f(g,hk) for all g, h, k."""
    if v[0].any() or v[:, 0].any():
        return False
    for g in range(G.order):
        lhs = v[g][:, None] + v[G.mult[g]]         # (h, k)
        rhs = v + v[g][G.mult]
        if ((lhs - rhs) % p).any():
            return False
    return True


def full_filter_prefixes(G, U, P, j):
    """The search step with a full check: evaluate the BFS words of the
    first j generators on each prefix row with U's table, then keep the
    rows where img[e] * C[s] == img[e * s] for every position e and every
    s < j."""
    _, pred, tgt = _partial_bfs(G, j)
    keep_P, keep_img = [], []
    for lo in range(0, P.shape[0], 8192):
        C = P[lo:lo + 8192]
        img = np.zeros((C.shape[0], len(pred)), dtype=np.int32)
        for t in range(1, len(pred)):
            pe, pg = pred[t]
            img[:, t] = U.mult[img[:, pe], C[:, pg]]
        lhs = U.mult[img[:, :, None], C[:, None, :]]
        ok = (lhs == img[:, tgt]).all(axis=(1, 2))
        keep_P.append(C[ok])
        keep_img.append(img[ok])
    return np.concatenate(keep_P), np.concatenate(keep_img)


def accepts(make, *args):
    try:
        make(*args)
    except PcohomError:
        return False
    return True


def corruptions(rng, shape, high, count, low_index=0):
    """`count` (index, new value) pairs, each changing one entry of an
    array of the given shape, with values below `high`; every index
    coordinate is at least low_index."""
    for _ in range(count):
        idx = tuple(int(rng.integers(low_index, s)) for s in shape)
        yield idx, int(rng.integers(1, high))


# ---------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------

@pytest.mark.parametrize("name", GROUPS)
def test_table_check_agrees_with_full_associativity(name):
    G = pc.builtin_group(name)
    _verify_tables(G)
    assert full_group_table(G.mult, G.inv)
    if G.order == 1:
        return
    rng = np.random.default_rng(20260824)
    for (a, b), shift in corruptions(rng, G.mult.shape, G.order, 30):
        bad = G.mult.copy()
        bad[a, b] = (bad[a, b] + shift) % G.order
        H = dataclasses.replace(G, mult=bad, _cache={})
        assert accepts(_verify_tables, H) == full_group_table(bad, G.inv), \
            (name, a, b)


def test_table_check_is_exhaustive_above_512_elements():
    G = pc.builtin_group("U:3:3")
    assert G.order == 729
    _verify_tables(G)
    rng = np.random.default_rng(7)
    for (a, b), shift in corruptions(rng, G.mult.shape, G.order, 5, 1):
        bad = G.mult.copy()
        bad[a, b] = (bad[a, b] + shift) % G.order
        assert not accepts(_verify_tables,
                           dataclasses.replace(G, mult=bad, _cache={}))


def test_table_check_rejects_inconsistent_bfs_data():
    G = pc.builtin_group("D4")
    mult_gen = G.mult_gen.copy()
    mult_gen[3, 0] = mult_gen[3, 1]
    assert not accepts(_verify_tables,
                       dataclasses.replace(G, mult_gen=mult_gen, _cache={}))
    pred = G.pred.copy()
    pred[5, 0] = 5                       # a predecessor that is not earlier
    assert not accepts(_verify_tables,
                       dataclasses.replace(G, pred=pred, _cache={}))
    pred = G.pred.copy()
    pred[5, 1] = 1 - pred[5, 1]          # the other generator
    assert not accepts(_verify_tables,
                       dataclasses.replace(G, pred=pred, _cache={}))
    pred = G.pred.copy()
    assert G.mult_gen[5, 1] == 6
    pred[6] = (5, 1)                     # a true edge, out of BFS order
    assert not accepts(_verify_tables,
                       dataclasses.replace(G, pred=pred, _cache={}))


# ---------------------------------------------------------------------
# homomorphisms and characters
# ---------------------------------------------------------------------

HOM_PAIRS = [("Z/2", "E:2:2"), ("Z/8", "Z/4"), ("E:2:2", "D4"),
             ("Q8", "D4"), ("D4", "Q8"), ("Heis:3", "E:3:2"),
             ("Meta:3", "Heis:3")]


@pytest.mark.parametrize("gname,uname", HOM_PAIRS)
def test_hom_check_agrees_with_full_multiplicativity(gname, uname):
    G, U = pc.builtin_group(gname), pc.builtin_group(uname)
    homs = enumerate_homs(G, U).homs
    assert homs
    rng = np.random.default_rng(11)
    for rho in homs:
        assert full_hom(G, U, rho.image)
        ((e,), shift), = corruptions(rng, (G.order,), U.order, 1)
        bad = rho.image.copy()
        bad[e] = (bad[e] + shift) % U.order
        assert accepts(pc.GroupHom, G, U, bad) == full_hom(G, U, bad), \
            (gname, uname, e)
    for _ in range(10):
        f = rng.integers(0, U.order, size=G.order)
        f[0] = 0
        assert accepts(pc.GroupHom, G, U, f) == full_hom(G, U, f)
    # the batch check on a matrix of the valid rows and seeded single-entry
    # corruptions of them
    F = np.concatenate([homs.images] * 3)
    for row, ((e,), shift) in zip(F[len(homs):], corruptions(
            rng, (G.order,), U.order, 2 * len(homs))):
        row[e] = (row[e] + shift) % U.order
    mask = _respects_generator_edges(G.mult_gen, F, _table_product(U))
    assert mask.tolist() == [bool(full_hom(G, U, f)) for f in F]


def test_single_entry_change_can_stay_a_hom():
    # Z/2 -> (Z/2)^2: every image of the generator gives a hom, so the
    # corruptions are accepted by both checks
    G, U = pc.builtin_group("Z/2"), pc.builtin_group("E:2:2")
    for x in range(U.order):
        f = np.array([0, x])
        assert accepts(pc.GroupHom, G, U, f) and full_hom(G, U, f)


def test_hom_check_rejects_malformed_images():
    G, U = pc.builtin_group("Z/4"), pc.builtin_group("Z/2")
    for f in ([0, 1, 0], [0, 1, 0, 1, 0], [0, -1, 0, 1], [0, 1, 2, 1]):
        assert not accepts(pc.GroupHom, G, U, np.array(f))
    # on the trivial group there are no edges; only f(1) = 1 is checked
    T = pc.builtin_group("Z/1")
    assert accepts(pc.GroupHom, T, U, np.array([0]))
    assert not accepts(pc.GroupHom, T, U, np.array([1]))


@pytest.mark.parametrize("name,p", [("Z/9", 3), ("D4", 2), ("E:2:3", 2),
                                    ("Heis:3", 3), ("Meta:3", 3)])
def test_character_check_agrees_with_full_additivity(name, p):
    G = pc.builtin_group(name)
    rng = np.random.default_rng(3)
    for ch in h1(G, p):
        assert full_character(G, ch.values, p)
        for (e,), shift in corruptions(rng, (G.order,), p, 5):
            bad = ch.values.copy()
            bad[e] = (bad[e] + shift) % p
            assert accepts(Cochain1, G, bad, p) == full_character(G, bad, p)


# ---------------------------------------------------------------------
# 2-cocycles
# ---------------------------------------------------------------------

def _cocycles(G, p):
    """Valid cocycles on G: the H^2 basis representatives, cups and
    Bocksteins."""
    chars = h1(G, p)
    space = h2_space(G, p)
    return ([space.rep(e) for e in np.eye(space.dim, dtype=np.int64)]
            + [cup(a, b) for a in chars for b in chars]
            + [bockstein(a) for a in chars])


def columns_accepted(G, u, p):
    """The table reference for a Cocycle2 vector u: n * ngens entries, and
    the table expanded from them accepted by the table check, with u as
    its generator columns.  The last fails iff u is not normalized, as
    each generator is its own BFS tree edge from 1.  The table check
    agrees with the full cocycle identity on every expansion."""
    if np.shape(u) != (G.order * len(G.generators),):
        return False
    f = expand(G, u, p)
    assert table_accepts(G, f, p) == full_cocycle(G, f, p)
    return (table_accepts(G, f, p)
            and np.array_equal(generator_columns(G, f), u))


@pytest.mark.parametrize("name,p", [("Z/2", 2), ("Z/4", 2), ("D4", 2),
                                    ("Q8", 2), ("E:3:2", 3), ("Heis:3", 3)])
def test_cocycle_check_agrees_with_full_identity(name, p):
    """Cocycle2 accepts a column vector exactly when the table reference
    accepts its expansion (`columns_accepted`): on the columns of valid
    cocycles, on copies with one entry changed off the normalization
    entries u(1, s) and then anywhere, on copies with u(1, s_0) changed,
    and on copies one entry short or one entry long."""
    G = pc.builtin_group(name)
    ngens = len(G.generators)
    rng = np.random.default_rng(5)
    for c in _cocycles(G, p):
        u = c.columns
        assert columns_accepted(G, u, p)
        bads = []
        for low in (ngens, 0):
            ((i,), shift), = corruptions(rng, u.shape, p, 1, low)
            bad = u.copy()
            bad[i] = (bad[i] + shift) % p
            bads.append(bad)
        unnormalized = u.copy()
        unnormalized[0] = (u[0] + 1) % p
        for bad in bads + [unnormalized, u[:-1], np.append(u, 0)]:
            assert accepts(Cocycle2, G, bad, p) == \
                columns_accepted(G, bad, p), (name, bad)
        assert not columns_accepted(G, unnormalized, p)


@pytest.mark.parametrize("name,p", [("Z/2", 2), ("Z/4", 2), ("D4", 2),
                                    ("Q8", 2), ("E:3:2", 3), ("Heis:3", 3)])
def test_column_check_agrees_with_expanded_table_check(name, p):
    """The batched check at the generators (`_column_violations`) flags
    exactly the rows that the normalization or the table check flags,
    `cocycle_tables.constraint_violations` on the expanded table, over the
    generator columns of valid cocycles, of copies with one entry changed,
    and of the solutions of the constraint rows with those at one
    generator g, or at one generator s, left out.  Each generator is its
    own BFS tree edge from 1, so a normalized row's expanded table has that
    row as its generator columns."""
    G = pc.builtin_group(name)
    n, ngens = G.order, len(G.generators)
    rng = np.random.default_rng(5)
    valid = np.stack([c.columns for c in _cocycles(G, p)])
    rows = [valid]
    A = full_cocycle_constraints(G, p)
    at = np.arange(ngens * ngens * n).reshape(ngens, ngens, n)   # (s, g, h)
    for drop in [at[:, j] for j in range(ngens)] + list(at):
        keep = np.setdiff1d(np.arange(len(A)), ngens + drop.ravel())
        rows.append(gf.nullspace(A[keep], p))
    for low in (ngens, 0):         # off the normalization entries, then on
        bad = np.repeat(valid, 4, axis=0)
        for row, ((i,), shift) in zip(bad, corruptions(
                rng, (valid.shape[1],), p, len(bad), low)):
            row[i] = (row[i] + shift) % p
        rows.append(bad)
    U = np.concatenate(rows)
    want = []
    for u in U:
        f = expand(G, u, p)
        normalized = not u[:ngens].any()
        if normalized:
            assert np.array_equal(generator_columns(G, f), u)
        want.append(not normalized or len(constraint_violations(G, f, p)) > 0)
    assert _column_violations(G, U, p).tolist() == want, name
    assert not any(want[:len(valid)]) and any(want)


def test_trusted_outputs_pass_the_full_checks():
    """Every hom of a few searches, and every pullback of the classifying
    classes along them, satisfies the full definitions."""
    for gname, uname in HOM_PAIRS:
        G, U = pc.builtin_group(gname), pc.builtin_group(uname)
        for rho in enumerate_homs(G, U).homs:
            assert full_hom(G, U, rho.image), (gname, uname)
    for name, kind, n, p in [("Q8", "zassenhaus", 2, 2),
                             ("Heis:3", "mixed", None, 3)]:
        G = pc.builtin_group(name)
        fam = pc.omega_family(kind, n, p)
        N = pc.t_bundle(G, fam).Tbar
        lp = liftable_pullback_space(G, N, fam)
        Q = lp.space.group
        for i in range(len(lp.coords)):
            assert full_cocycle(Q, expand(Q, lp.cocycle(i).columns, p), p)
        for ext in fam.extensions:
            alpha = classifying_cocycle(ext)
            assert full_cocycle(ext.Gbar, expand(ext.Gbar, alpha.columns, p),
                                p)
            for rho in enumerate_homs(Q, ext.Gbar).homs:
                assert full_hom(Q, ext.Gbar, rho.image)
                assert full_cocycle(
                    Q, expand(Q, pullback(alpha, rho).columns, p), p)


# ---------------------------------------------------------------------
# the hom search against the search step with the full check
# ---------------------------------------------------------------------

def _u729():
    return next(ext.E for ext in pc.omega_family("zassenhaus", 3, 3).extensions
                if ext.E.order == 729)


@pytest.mark.parametrize("gname,uname", HOM_PAIRS + [("E:2:3", "U:3:2"),
                                                     ("E:3:2", "U729"),
                                                     ("Meta:3", "U:2:9"),
                                                     ("U:3:2", "U:3:2")])
def test_hom_search_matches_full_check_search(gname, uname, monkeypatch):
    G = pc.builtin_group(gname)
    U = _u729() if uname == "U729" else pc.builtin_group(uname)
    new = enumerate_homs(dataclasses.replace(G, _cache={}), U)
    monkeypatch.setattr(homsearch, "_filter_prefixes", full_filter_prefixes)
    ref = enumerate_homs(dataclasses.replace(G, _cache={}), U)
    assert new.images.dtype == ref.images.dtype == ID_DTYPE
    assert np.array_equal(new.images, ref.images)
    assert new.explored_prefixes == ref.explored_prefixes
    assert len(new) > 0


def test_table_product_widens_16_bit_ids():
    """Under NumPy 2 promotion an int16 row times |U| = 729 stays int16 and
    wraps (728 * 729 + 5 reads 6429); `_table_product` takes x * |U| in
    int32, so the ID_DTYPE rows of a hom set into an order-729 codomain
    multiply as their int32 copies do, as arrays and as scalars on either
    side."""
    U = _u729()
    rows = enumerate_homs(pc.builtin_group("E:3:2"), U).images
    wide = rows.astype(np.int32)
    assert rows.dtype == ID_DTYPE and U.order == 729
    assert int(rows.max()) * U.order > np.iinfo(ID_DTYPE).max
    assert (np.array([728], dtype=ID_DTYPE) * U.order + 5)[0] == 6429
    mul = _table_product(U)
    got = mul(rows, rows[::-1])
    assert got.dtype == np.int32
    assert np.array_equal(got, mul(wide, wide[::-1]))
    assert np.array_equal(got, U.mult[wide, wide[::-1]])
    x = rows[-1, -1]
    assert isinstance(x, np.int16) and int(x) * U.order > 2 ** 15
    assert np.array_equal(mul(x, rows[0]), U.mult[int(x), wide[0]])
    assert np.array_equal(mul(int(x), rows[0]), U.mult[int(x), wide[0]])
    assert np.array_equal(mul(rows[0], x), U.mult[wide[0], int(x)])


def test_lift_search_matches_full_check_search(monkeypatch):
    ext = pc.build_bar_extension(2, 2)
    Q8 = pc.builtin_group("Q8")
    Q, pi = cached_quotient(Q8, pc.center(Q8))
    rhos = enumerate_homs(Q, ext.Gbar).homs
    new = [lift_hom(ext, pi, rho) for rho in rhos]
    monkeypatch.setattr(homsearch, "_filter_prefixes", full_filter_prefixes)
    ref = [lift_hom(ext, pi, rho) for rho in rhos]
    assert [x is None for x in new] == [x is None for x in ref]
    assert any(x is not None for x in new) and any(x is None for x in new)
    for a, b in zip(new, ref):
        if a is not None:
            assert np.array_equal(a.image, b.image)


def debug_constructs(tree):
    """Line numbers of assert statements and of reads of __debug__ or
    __doc__."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name) and node.id == "__debug__"
                  or isinstance(node, ast.Attribute) and node.attr == "__doc__")


def test_no_assert_in_ratcheted_modules():
    """No module of src/pcohom has an assert statement or reads __debug__
    or __doc__, so every check in it raises a typed error.

    Lemma: python -O only strips assert statements and `if __debug__`
    blocks (-OO strips docstrings too, and src/ reads no __doc__), so
    with neither construct present src/ runs the same under -O as without
    it, and no subprocess under -O is needed to show that."""
    src = ROOT / "src" / "pcohom"
    for path in sorted(src.glob("*.py")):
        lines = debug_constructs(ast.parse(path.read_text()))
        assert not lines, f"{path.name}: assert or __debug__ at {lines}"
    probe = "assert x\nif __debug__: y\nz = f.__doc__\n"
    assert debug_constructs(ast.parse(probe)) == [1, 2, 3]


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def subscripts_pred(node):
    """Is node pred[...] or x.pred[...]?"""
    if not isinstance(node, ast.Subscript):
        return False
    v = node.value
    return (isinstance(v, ast.Name) and v.id == "pred"
            or isinstance(v, ast.Attribute) and v.attr == "pred")


def pred_walks(tree):
    """Line numbers of loops that subscript a pred array, outside a
    function named bfs_levels."""
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "bfs_levels"
            for node in ast.walk(fn)}
    return sorted({loop.lineno for loop in ast.walk(tree)
                   if isinstance(loop, LOOPS) and id(loop) not in skip
                   and any(map(subscripts_pred, ast.walk(loop)))})


def test_only_bfs_levels_walks_pred():
    """Every walk along BFS predecessors goes through core.bfs_levels: no
    other loop in src/pcohom subscripts a pred array."""
    src = ROOT / "src" / "pcohom"
    for path in sorted(src.glob("*.py")):
        lines = pred_walks(ast.parse(path.read_text()))
        assert not lines, f"{path.name} walks pred by hand at {lines}"
    assert pred_walks(ast.parse(
        "def bfs_levels(pred):\n    for x in pred: pred[x]\n")) == []
    assert pred_walks(ast.parse("for x in r:\n    G.pred[x]\n")) == [1]


# entry points that nothing in src/ refers to by name, each with its reason
CALLED_FROM_OUTSIDE = {
    "_Parser.error": "argparse calls it on a malformed command line",
    "HomSet.homs": "benchmarks/tracer.py reads it",
    "LiftablePullbacks.cocycle": "part of the result API, beside rho",
}


def unreferenced_functions(trees):
    """Qualified names of the module-level functions and class methods
    defined in trees that nothing in trees refers to.  A function is
    referred to by a name, an attribute or an import; a method only by an
    attribute, so a local variable of the same name does not hide it.
    Dunder methods, which Python calls by protocol, are left out."""
    names, attrs, defined = set(), set(), []
    for tree in trees:
        defined += [(f.name, f.name, False) for f in tree.body
                    if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{f.name}", f.name, True)
                            for f in node.body
                            if isinstance(f, ast.FunctionDef)]
    return sorted(q for q, name, method in defined
                  if name not in (attrs if method else names | attrs)
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_src_function_is_referenced_in_src():
    """No dead code: every function and method defined in src/pcohom is
    referenced in src/pcohom, apart from the entry points listed, with
    their reasons, in CALLED_FROM_OUTSIDE."""
    src = ROOT / "src" / "pcohom"
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    assert unreferenced_functions(trees) == sorted(CALLED_FROM_OUTSIDE)
    probe = ("import m\nfrom m import g\ndef f(): h(); masked = 0\n"
             "def g(): pass\ndef h(): pass\ndef dead(): pass\n"
             "class C:\n    def __init__(self): pass\n"
             "    def gone(self): pass\n    def kept(self): self.kept\n"
             "    def masked(self): pass\n")
    assert unreferenced_functions([ast.parse(probe)]) == [
        "C.gone", "C.masked", "dead", "f"]
