"""The three benchmark workloads, driven through pcohom's public calls.

Each workload has a ``setup(seed)`` (inputs built before the clock starts)
and a ``run(state, seed, runner)`` (the timed phase), which hands every
item to ``Runner.item``.  An item is one transfer check (catalog-sweep), one
kernel subgroup T^U(G) (hom-enum) or one H^2 space (h2-build).  After each
item, with tracing paused, the workload turns the result into an output
row and checks the oracles that apply to it.  Rows are compared with the
recorded outputs in ``expected.json`` by ``checks.check_rows``.

Run model: a closed loop with a single caller.  Items run one after the
other in one process, with ``jobs=1``, and the next starts only when the
previous has returned.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

import numpy as np

import pcohom.catalog as catalog
import pcohom.cohomology as cohomology
import pcohom.core as core
import pcohom.filtrations as filtrations
import pcohom.homsearch as homsearch
import pcohom.pairings as pairings
import pcohom.unitriangular as unitriangular

HOM_ENUM_MAX_ORDER = 81
# U_3(Z/5) has 5^6 = 15625 elements, above the closure cap of core, so the
# p = 5 catalog groups have no hom-enum codomains
HOM_ENUM_PRIMES = (2, 3)


class Runner:
    """Times items and collects their rows, problems and durations.
    ``check_s`` is the time spent checking outputs, which the timed phase
    leaves out."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.items: list[dict] = []
        self.check_s = 0.0

    def item(self, key: str, thunk: Callable, describe: Callable):
        t0 = perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # a failed item is counted, not fatal
            ms = (perf_counter() - t0) * 1e3
            self.items.append({"key": key, "ms": ms, "row": None,
                               "problem": f"{type(exc).__name__}: {exc}"})
            return
        t1 = perf_counter()
        if self.tracer is None:
            row, problem = describe(result)
        else:
            with self.tracer.paused():
                row, problem = describe(result)
        self.items.append({"key": key, "ms": (t1 - t0) * 1e3, "row": row,
                           "problem": problem})
        self.check_s += perf_counter() - t1


# ---------------------------------------------------------------------
# Oracles that do not go through the layer under test
# ---------------------------------------------------------------------

def element_orders(G) -> np.ndarray:
    """Order of every element, by repeated multiplication in the table."""
    ids = np.arange(G.order)
    cur = ids.copy()
    orders = np.zeros(G.order, dtype=np.int64)
    for k in range(1, G.order + 1):
        orders[(cur == 0) & (orders == 0)] = k
        cur = G.mult[cur, ids]
    return orders


def power_map(G, n: int) -> np.ndarray:
    ids = np.arange(G.order)
    cur = np.zeros(G.order, dtype=np.int64)
    for _ in range(n):
        cur = G.mult[cur, ids]
    return cur


def abelian_h2_dim(Q, p: int):
    """d(d+1)/2 for abelian Q, where p^d = |Q/Q^p|; None if Q is not
    abelian."""
    if not np.array_equal(Q.mult, Q.mult.T):
        return None
    index = Q.order // len(np.unique(power_map(Q, p)))
    d = 0
    while index > 1:
        index //= p
        d += 1
    return d * (d + 1) // 2


def cyclic_hom_count(G, U):
    """#{u in U : u^n = 1} when G is cyclic of order n, else None."""
    if element_orders(G).max() != G.order:
        return None
    return int(np.count_nonzero(power_map(U, G.order) == 0))


# ---------------------------------------------------------------------
# catalog-sweep
# ---------------------------------------------------------------------

def sweep_setup(seed):
    instances = catalog.catalog_instances()
    fams = {p: catalog.applicable_families(p)
            for p in sorted({p for _, _, p in instances})}
    return instances, fams


def sweep_grid(instances, fams, seed):
    """The transfer_sweep() grid: every catalog group x applicable family x
    {trivial, Tbar, the normal closure of one seeded element of Tbar}.
    Tbar is computed here, inside the timed phase, as transfer_sweep()
    does."""
    rng = np.random.default_rng(seed)
    tasks = []
    for name, G, p in instances:
        for fam in fams[p]:
            tbar = homsearch.t_bundle(G, fam).Tbar
            choices = {b"triv": ("trivial", G.trivial_subgroup()),
                       tbar.members.tobytes(): ("tbar", tbar)}
            inner = [int(x) for x in tbar.members if x]
            if inner:
                g = inner[int(rng.integers(len(inner)))]
                N = core.normal_closure(G, [g])
                if N <= tbar:
                    choices.setdefault(N.members.tobytes(), (f"nc({g})", N))
            for label, N in choices.values():
                tasks.append((name, G, fam, label, N))
    return tasks


def sweep_row(rep):
    """(instance, family, N_label, side_a, side_b, dims) of a transfer
    report carrying "instance" and "N_label", as transfer_sweep() sets."""
    d = rep["dims"]
    return [rep["instance"], rep["family"], rep["N_label"],
            rep["side_a_transfer"], rep["side_b_kernel_condition"],
            [d["dim_A"], d["dim_B"], d["dim_C"]]]


def sweep_run(state, seed, runner):
    instances, fams = state
    for name, G, fam, label, N in sweep_grid(instances, fams, seed):
        def describe(rep, name=name, label=label):
            rep["instance"], rep["N_label"] = name, label
            bad = None if rep["status"] == "PASS" else f"status {rep['status']}"
            return sweep_row(rep), bad
        runner.item(f"{name}|{fam.label}|{label}",
                    lambda: pairings.transfer_check(G, N, fam), describe)


# ---------------------------------------------------------------------
# hom-enum
# ---------------------------------------------------------------------

def hom_setup(seed):
    codomains = {}
    for p in HOM_ENUM_PRIMES:
        cods = {}
        for label in ("zassenhaus", "lower-central"):
            for ext in unitriangular.omega_family(label, 3, p).extensions:
                for U in (ext.E, ext.Gbar):
                    cods.setdefault(U.key, U)
        codomains[p] = list(cods.values())
    groups = {}
    for name, G, p in catalog.catalog_instances():
        if G.order <= HOM_ENUM_MAX_ORDER and p in codomains:
            groups.setdefault(G.key, (name, G, p))
    return list(groups.values()), codomains


def hom_run(state, seed, runner):
    groups, codomains = state
    for name, G, p in groups:
        for U in codomains[p]:
            def describe(T, name=name, G=G, U=U):
                count = len(homsearch.enumerate_homs(G, U))
                want = cyclic_hom_count(G, U)
                bad = None
                if want is not None and want != count:
                    bad = f"|Hom| = {count}, cyclic oracle says {want}"
                return [name, U.name, count, T.order], bad
            runner.item(f"{name}|{U.name}",
                        lambda: homsearch.t_subgroup(G, U), describe)


# ---------------------------------------------------------------------
# h2-build
# ---------------------------------------------------------------------

def nc_candidates(G):
    """Nontrivial elements whose normal closure is a proper subgroup.  In a
    p-group the normal closure of g is all of G only when G is cyclic and g
    generates it (Frattini), so only those elements are left out."""
    orders = element_orders(G)
    return [x for x in range(1, G.order) if orders[x] != G.order]


def h2_setup(seed):
    rng = np.random.default_rng(seed)
    instances = catalog.catalog_instances()
    picks = []
    for _, G, _ in instances:
        cands = nc_candidates(G)
        picks.append(cands[int(rng.integers(len(cands)))] if cands else None)
    return instances, picks


def quotient_h2(G, N, p):
    Q, _ = core.quotient_group(G, N)
    return cohomology.h2_space(Q, p)


def h2_describe(label, p):
    def describe(space):
        want = abelian_h2_dim(space.group, p)
        bad = None
        if want is not None and want != space.dim:
            bad = f"dim {space.dim}, abelian oracle says {want}"
        return [label, p, space.dim], bad
    return describe


def filtration_quotients(G, p):
    """The distinct nontrivial terms 2 and 3 of the lower p-central and
    Zassenhaus filtrations, labelled by their first occurrence."""
    lpc = filtrations.lower_p_central(G, p, 3)
    zas = filtrations.zassenhaus(G, p, 3)
    terms = {}
    for label, N in (("lpc2", lpc.term(2)), ("lpc3", lpc.term(3)),
                     ("zas2", zas.term(2)), ("zas3", zas.term(3))):
        if N.order > 1:
            terms.setdefault(N.members.tobytes(), (label, N))
    return list(terms.values())


def h2_run(state, seed, runner):
    instances, picks = state
    for (name, G, p), g in zip(instances, picks):
        runner.item(name, lambda: cohomology.h2_space(G, p),
                    h2_describe(name, p))
        for label, N in filtration_quotients(G, p):
            runner.item(f"{name}/{label}", lambda: quotient_h2(G, N, p),
                        h2_describe(f"{name}/{label}", p))
        if g is not None:
            runner.item(f"{name}/nc({g})",
                        lambda: quotient_h2(G, core.normal_closure(G, [g]), p),
                        h2_describe(f"{name}/nc({g})", p))


# name -> (setup(seed), run(state, seed, runner))
WORKLOADS = {
    "h2-build": (h2_setup, h2_run),
    "hom-enum": (hom_setup, hom_run),
    "catalog-sweep": (sweep_setup, sweep_run),
}
