"""Regenerate benchmarks/expected.json, the recorded outputs that every
benchmark run is checked against.

    PYTHONPATH=src python3 benchmarks/record.py

Seeded inputs are drawn from finite sets, so every possible item is
recorded, not just those of a few seeds:

- catalog-sweep: every (group, family) with N = trivial, Tbar and the
  normal closure of each nontrivial element of Tbar;
- h2-build: every catalog group, its filtration quotients and its quotient
  by the normal closure of each candidate element;
- hom-enum: every item (it has no seed).

Each recorded output is checked by the same oracles as a run, and the
catalog-sweep digest is taken from transfer_sweep()'s own reports, then
compared with the digest of this grid at the default seed.  Takes about
three minutes on two cores.
"""

from __future__ import annotations

import json
import sys

import checks
import stats
import workloads as wl
from pcohom import catalog, cohomology, core, homsearch, pairings


def _refuse(bad):
    if bad:
        sys.exit("refusing to record failing outputs:\n" + "\n".join(bad))


def _values(workload, runner):
    """{key: recorded values} from a runner whose items all passed."""
    _refuse([f"{it['key']}: {it['problem']}" for it in runner.items
             if it["problem"] is not None])
    k = checks.KEY_LEN[workload]
    return {it["key"]: it["row"][k:] for it in runner.items}


def record_sweep():
    instances, fams = wl.sweep_setup(None)
    rows, required, bad = {}, [], []
    for name, G, p in instances:
        for fam in fams[p]:
            tbar = homsearch.t_bundle(G, fam).Tbar
            choices = [("trivial", G.trivial_subgroup()), ("tbar", tbar)]
            required += [f"{name}|{fam.label}|{label}" for label, _ in choices]
            for g in (int(x) for x in tbar.members if x):
                N = core.normal_closure(G, [g])
                if N.members.tobytes() != tbar.members.tobytes():
                    choices.append((f"nc({g})", N))
            reps = {}   # N members -> report, one transfer check per N
            for label, N in choices:
                key = f"{name}|{fam.label}|{label}"
                rep = reps.get(N.members.tobytes())
                if rep is None:
                    rep = pairings.transfer_check(G, N, fam)
                    reps[N.members.tobytes()] = rep
                if rep["status"] != "PASS":
                    bad.append(f"{key}: status {rep['status']}")
                rows[key] = wl.sweep_row(
                    dict(rep, instance=name, N_label=label))[3:]
    _refuse(bad)

    grid = wl.sweep_grid(*wl.sweep_setup(None), checks.DEFAULT_SEED)
    ours = stats.digest([n, f.label, lab, *rows[f"{n}|{f.label}|{lab}"]]
                        for n, _, f, lab, _ in grid)
    sweep = catalog.transfer_sweep()
    theirs = stats.digest(wl.sweep_row(r) for r in sweep["reports"])
    if ours != theirs or sweep["checks"] != len(grid):
        sys.exit(f"benchmark grid digest {ours} ({len(grid)} checks) differs "
                 f"from transfer_sweep() {theirs} ({sweep['checks']} checks)")
    return {"rows": rows, "required": required, "default_digest": theirs,
            "default_checks": sweep["checks"], "default_groups": sweep["groups"]}


def record_hom_enum():
    runner = wl.Runner()
    wl.hom_run(wl.hom_setup(None), None, runner)
    rows = _values("hom-enum", runner)
    return {"rows": rows, "required": sorted(rows),
            "default_digest": stats.digest(it["row"] for it in runner.items)}


def record_h2_build():
    instances = catalog.catalog_instances()
    runner = wl.Runner()
    required = []
    for name, G, p in instances:
        runner.item(name, lambda: cohomology.h2_space(G, p),
                    wl.h2_describe(name, p))
        required.append(name)
        for label, N in wl.filtration_quotients(G, p):
            runner.item(f"{name}/{label}", lambda: wl.quotient_h2(G, N, p),
                        wl.h2_describe(f"{name}/{label}", p))
            required.append(f"{name}/{label}")
        dims = {}   # N members -> H^2 space of G/N
        for g in wl.nc_candidates(G):
            N = core.normal_closure(G, [g])
            key = N.members.tobytes()
            if key not in dims:
                dims[key] = wl.quotient_h2(G, N, p)
            runner.item(f"{name}/nc({g})", lambda: dims[key],
                        wl.h2_describe(f"{name}/nc({g})", p))
    rows = _values("h2-build", runner)

    default = wl.Runner()
    wl.h2_run(wl.h2_setup(checks.DEFAULT_SEED), checks.DEFAULT_SEED, default)
    return {"rows": rows, "required": required,
            "default_digest": stats.digest(it["row"] for it in default.items)}


RECORDERS = {"h2-build": record_h2_build, "hom-enum": record_hom_enum,
             "catalog-sweep": record_sweep}


def main() -> int:
    if checks.DEFAULT_SEED != catalog.CATALOG_SEED + 1:
        sys.exit("checks.DEFAULT_SEED is out of step with catalog.CATALOG_SEED")
    expected = {}
    for name, fn in RECORDERS.items():
        expected[name] = fn()
        print(f"{name}: {len(expected[name]['rows'])} recorded outputs",
              flush=True)
    checks.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
