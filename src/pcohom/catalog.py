"""A catalog of small p-groups and the transfer sweep over it.

The catalog mixes textbook groups (cyclic, elementary abelian, dihedral,
quaternion, modular, Heisenberg, unitriangular, direct products) with
finite nilpotent stand-ins for free groups and seeded-random quotients of
those stand-ins, so the sweep exercises both very structured and fairly
generic instances.
"""

from __future__ import annotations

import time

import numpy as np

from .core import (FiniteGroup, Subgroup, builtin_group, normal_closure,
                   quotient_group)
from .homsearch import DEFAULT_BUDGET, t_bundle
from .magnus import free_nilpotent_standin
from .pairings import transfer_check
from .unitriangular import omega_family

CATALOG_SEED = 20260823


def applicable_families(p: int):
    """The witness families exercised for groups of exponent p^k: the two
    filtration families at n = 2 always, the mixed family only at odd p."""
    fams = [omega_family("zassenhaus", 2, p),
            omega_family("lower-central", 2, p)]
    if p > 2:
        fams.append(omega_family("mixed", 1, p))
    return fams


def _random_standin_quotients(rng, cap_order=128):
    """Seeded-random quotients of free-group stand-ins by normal closures
    of elements of Tbar (for the degree-2 unitriangular family)."""
    sources = [
        ("standin:zassenhaus:2:2:2", free_nilpotent_standin(2, 2, "zassenhaus", 2), 2),
        ("standin:lower-central:2:2:2", free_nilpotent_standin(2, 2, "lower-central", 2), 2),
        ("standin:zassenhaus:3:2:2", free_nilpotent_standin(3, 2, "zassenhaus", 2), 2),
        ("standin:zassenhaus:2:3:2", free_nilpotent_standin(2, 3, "zassenhaus", 2), 3),
    ]
    out = []
    for sname, S, p in sources:
        fam = omega_family("zassenhaus", 2, p)
        tbar = t_bundle(S, fam).Tbar
        nontrivial = [int(x) for x in tbar.members if x]
        seen = set()
        picks = 0
        attempts = 0
        while picks < 3 and attempts < 40 and nontrivial:
            attempts += 1
            size = 1 + int(rng.integers(2))
            gs = sorted({nontrivial[int(rng.integers(len(nontrivial)))]
                         for _ in range(size)})
            N = normal_closure(S, gs)
            key = N.members.tobytes()
            if key in seen or N.order == S.order:
                continue
            seen.add(key)
            Q, _ = quotient_group(S, N)
            if 4 <= Q.order <= cap_order:
                Q.name = f"{sname}/nc({','.join(map(str, gs))})"
                out.append((Q.name, Q, p))
                picks += 1
    return out


def catalog_instances(cap_order=128):
    """(name, group, p) triples; at least 25 groups of order <= cap_order."""
    rng = np.random.default_rng(CATALOG_SEED)
    named2 = ["Z/2", "Z/4", "Z/8", "Z/16", "E:2:2", "E:2:3", "Z/4xZ/2",
              "Z/8xZ/2", "D4", "Q8", "D4xZ/2", "Q8xZ/2", "U:2:2", "U:3:2",
              "U:2:4"]
    named3 = ["Z/3", "Z/9", "Z/27", "E:3:2", "Z/9xZ/3", "Heis:3", "Mp3:3",
              "Meta:3", "U:2:3"]
    named5 = ["Z/5", "Z/25", "Heis:5", "Mp3:5"]
    out = []
    for names, p in ((named2, 2), (named3, 3), (named5, 5)):
        for nm in names:
            out.append((nm, builtin_group(nm), p))
    out.append(("standin:zassenhaus:2:2:2",
                free_nilpotent_standin(2, 2, "zassenhaus", 2), 2))
    out.append(("standin:lower-central:2:2:2",
                free_nilpotent_standin(2, 2, "lower-central", 2), 2))
    out.append(("standin:zassenhaus:2:3:2",
                free_nilpotent_standin(2, 3, "zassenhaus", 2), 3))
    out.extend(_random_standin_quotients(rng, cap_order=cap_order))
    out = [(nm, G, p) for nm, G, p in out if G.order <= cap_order]
    assert len(out) >= 25
    return out


def _subgroup_choices(G: FiniteGroup, tbar: Subgroup, rng):
    """Normal subgroups of G inside Tbar to quotient by: the trivial one,
    Tbar itself, and one seeded-random normal closure strictly between."""
    choices = {b"triv": ("trivial", G.trivial_subgroup())}
    choices[tbar.members.tobytes()] = ("tbar", tbar)
    inner = [int(x) for x in tbar.members if x]
    if inner:
        g = inner[int(rng.integers(len(inner)))]
        N = normal_closure(G, [g])
        if N <= tbar:
            choices.setdefault(N.members.tobytes(), (f"nc({g})", N))
    return list(choices.values())


def transfer_sweep(instances=None, *, budget=DEFAULT_BUDGET,
                   cap_order=128) -> dict:
    """Run the transfer cross-check over the catalog x families x subgroup
    choices grid and summarize agreement."""
    t0 = time.time()
    if instances is None:
        instances = catalog_instances(cap_order=cap_order)
    rng = np.random.default_rng(CATALOG_SEED + 1)

    reports = []
    for name, G, p in instances:
        for fam in applicable_families(p):
            tbar = t_bundle(G, fam, budget=budget).Tbar
            for nlabel, N in _subgroup_choices(G, tbar, rng):
                rep = transfer_check(G, N, fam, budget=budget)
                rep["instance"] = name
                rep["N_label"] = nlabel
                reports.append(rep)

    failures = [r for r in reports if r["status"] != "PASS"]
    return {
        "groups": len(instances),
        "checks": len(reports),
        "failures": len(failures),
        "failing": failures,
        "reports": reports,
        "all_pass": not failures,
        "elapsed_seconds": round(time.time() - t0, 3),
    }
