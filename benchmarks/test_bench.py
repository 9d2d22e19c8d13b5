"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import stats
import tracer as tr
import workloads as wl
from pcohom import catalog, cohomology, gf, homsearch, pairings


# -- self-time arithmetic ---------------------------------------------

def synthetic_log():
    """core.a [0,10] > (gf.b [1,4], cohomology.c [5,9] > gf.d [6,7]);
    then catalog.e [20,22] at the root."""
    log = tr.SpanLog()
    log.names = ["core.a", "gf.b", "cohomology.c", "gf.d", "catalog.e"]
    a = log.add(0, tr.ROOT, 0.0, 10.0)
    log.add(1, a, 1.0, 4.0)
    c = log.add(2, a, 5.0, 9.0)
    log.add(3, c, 6.0, 7.0)
    log.add(4, tr.ROOT, 20.0, 22.0)
    return log


def test_self_times_subtract_direct_children():
    assert synthetic_log().self_times() == [3.0, 3.0, 3.0, 1.0, 2.0]


def test_layer_summary_splits_setup_and_sums_to_root_time():
    t = tr.Tracer()
    t.log = synthetic_log()
    s = t.layer_summary(split=15.0)
    assert s["setup_self"]["core"] == 3.0
    assert s["setup_self"]["gf"] == 4.0
    assert s["setup_self"]["cohomology"] == 3.0
    assert sum(s["setup_self"].values()) == 10.0   # the root span
    assert s["self"]["catalog"] == 2.0
    assert s["calls"] == {"catalog.e": 1}
    assert s["inclusive"] == {"catalog.e": 2.0}


def test_tracer_wraps_every_binding_and_restores_them():
    orig = cohomology.h2_space
    t = tr.Tracer()
    t.install(tr.HOOKS)
    try:
        assert pairings.h2_space is cohomology.h2_space
        assert cohomology.h2_space is not orig
        G = catalog.catalog_instances()[4][1]          # E:2:2
        space = pairings.h2_space(G, 2)
        assert pairings.h2_space(G, 2) is space
        gf.rank(np.eye(3, dtype=np.int64), 2)
    finally:
        t.uninstall()
    assert cohomology.h2_space is orig and pairings.h2_space is orig
    split = t.log.start[0]
    m = tr.layer_metrics(t, split)
    assert m["cohomology.h2_calls"] == 2
    assert m["cohomology.h2_builds"] == 1
    assert m["cohomology.h2_hit_frac"] == 0.5
    assert m["gf.rref_calls"] >= 2          # h2_space's nullspaces + rank
    total = sum(m[f"{layer}.self_s"] for layer in tr.LAYERS)
    assert 0 < total <= t.log.end[len(t.log) - 1] - split
    names = {t.log.names[i] for i in t.log.name_id}
    assert "gf.rank" in names and "gf.Span.add" in names


def test_paused_tracer_records_nothing():
    t = tr.Tracer()
    t.install()
    try:
        with t.paused():
            gf.rank(np.eye(2, dtype=np.int64), 3)
    finally:
        t.uninstall()
    assert len(t.log) == 0


# -- tail percentile and digest -----------------------------------------

@pytest.mark.parametrize("n, q, beyond", [
    (221, 95.0, 11), (162, 90.0, 16), (119, 90.0, 11), (20, 50.0, 10),
    (1000, 99.0, 10), (5000, 99.5, 25), (5, 100.0, 0)])
def test_tail_keeps_ten_items_beyond(n, q, beyond):
    values = list(range(n, 0, -1))
    v, got_q, got_beyond = stats.tail(values)
    assert (got_q, got_beyond) == (q, beyond)
    assert got_beyond == sum(1 for x in values if x > v)


def test_digest_ignores_order_and_tuple_spelling():
    rows = [("Q8", 2, 2), ("D4", 2, 3)]
    assert stats.digest(rows) == stats.digest([["D4", 2, 3], ["Q8", 2, 2]])
    assert stats.digest(rows) != stats.digest([("Q8", 2, 2), ("D4", 2, 4)])
    assert stats.digest(rows) != stats.digest(rows[:1])


# -- recorded outputs ---------------------------------------------------

def test_check_rows_marks_mismatch_and_missing():
    expected = {"h2-build": {"rows": {"A": [2, 1], "B": [2, 3]},
                             "required": ["A", "B"]}}
    items = [{"key": "A", "row": ["A", 2, 1], "problem": None},
             {"key": "C", "row": ["C", 2, 1], "problem": None},
             {"key": "A", "row": ["A", 2, 2], "problem": None}]
    problems = checks.check_rows("h2-build", items, expected)
    assert [it["problem"] is None for it in items] == [True, False, False]
    assert problems and "B" in problems[0]


def test_default_seed_is_transfer_sweeps():
    assert checks.DEFAULT_SEED == catalog.CATALOG_SEED + 1
    rec = checks.load()["catalog-sweep"]
    assert (rec["default_groups"], rec["default_checks"]) == (41, 221)


# -- the sweep grid reproduces transfer_sweep()'s grid ------------------

def test_sweep_grid_matches_transfer_sweep_grid():
    instances, fams = wl.sweep_setup(None)
    grid = wl.sweep_grid(instances, fams, checks.DEFAULT_SEED)
    rng = np.random.default_rng(catalog.CATALOG_SEED + 1)
    ref = []
    for name, G, p in instances:
        for fam in catalog.applicable_families(p):
            tbar = homsearch.t_bundle(G, fam).Tbar
            for label, N in catalog._subgroup_choices(G, tbar, rng):
                ref.append((name, fam.label, label, N.members.tobytes()))
    ours = [(n, f.label, lab, N.members.tobytes()) for n, _, f, lab, N in grid]
    assert ours == ref
    assert len({n for n, *_ in ours}) == 41 and len(ours) == 221
    rows = checks.load()["catalog-sweep"]["rows"]
    assert all(f"{n}|{f}|{lab}" in rows for n, f, lab, _ in ours)


# -- inputs and oracles ---------------------------------------------------

def test_h2_inputs_depend_only_on_seed():
    assert wl.h2_setup(7)[1] == wl.h2_setup(7)[1]
    assert wl.h2_setup(7)[1] != wl.h2_setup(8)[1]


def test_oracles_on_known_groups():
    by_name = {n: G for n, G, _ in catalog.catalog_instances()}
    assert wl.abelian_h2_dim(by_name["Z/9xZ/3"], 3) == 3
    assert wl.abelian_h2_dim(by_name["E:2:3"], 2) == 6
    assert wl.abelian_h2_dim(by_name["Q8"], 2) is None
    # Hom(Z/4, Q8): the elements of order dividing 4 are all 8
    assert wl.cyclic_hom_count(by_name["Z/4"], by_name["Q8"]) == 8
    assert wl.cyclic_hom_count(by_name["Q8"], by_name["Z/4"]) is None
    assert wl.nc_candidates(by_name["Z/2"]) == []


# -- run.py refuses to run without the package ---------------------------

def test_run_fails_without_the_package(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "h2-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# -- BENCHMARK.json names exactly the metrics run.py prints ---------------

def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    fake = {"wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 1.0, "setup_s": 1.0,
            "items": [{"ms": 1.0}], "layers": tr.layer_metrics(tr.Tracer(), 0.0)}
    e2e, _ = run.end_to_end([fake], [1.0])
    layers = run.per_layer(fake, fake)
    for listed, reported in ((spec["end_to_end"], e2e),
                             (spec["per_layer"], layers)):
        assert {m["name"]: m["unit"] for m in listed} == \
            {k: unit for k, (_, unit) in reported.items()}
