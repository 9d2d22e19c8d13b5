"""Recorded outputs and the checks against them.

Imports nothing from pcohom, so run.py can check rows without loading
the package under test.  expected.json is written by record.py.
"""

from __future__ import annotations

import json
from pathlib import Path

import stats

EXPECTED = Path(__file__).resolve().with_name("expected.json")

# transfer_sweep() draws its normal closures from catalog.CATALOG_SEED + 1
DEFAULT_SEED = 20260824

# leading row fields that identify an item, per workload
KEY_LEN = {"h2-build": 1, "hom-enum": 2, "catalog-sweep": 3}
# hom-enum has no seeded input: every seed runs the same items
SEEDED = {"h2-build": True, "hom-enum": False, "catalog-sweep": True}


def load() -> dict:
    return json.loads(EXPECTED.read_text())


def check_rows(workload: str, items, expected: dict) -> list[str]:
    """Mark every item whose output differs from the recorded one; return
    run-level problems (required items missing)."""
    rec = expected[workload]
    k = KEY_LEN[workload]
    for it in items:
        if it["problem"] is not None:
            continue
        want = rec["rows"].get(it["key"])
        if want is None:
            it["problem"] = "no recorded output for this item"
        elif want != it["row"][k:]:
            it["problem"] = f"output {it['row'][k:]} != recorded {want}"
    missing = sorted(set(rec["required"]) - {it["key"] for it in items})
    if missing:
        return [f"{len(missing)} required items missing, e.g. {missing[:3]}"]
    return []


def check_digest(workload: str, seed: int, rows, expected: dict) -> list[str]:
    """At the default seed (any seed for an unseeded workload) the digest of
    all rows must equal the recorded one; for catalog-sweep that is the
    digest of transfer_sweep()'s own reports."""
    if SEEDED[workload] and seed != DEFAULT_SEED:
        return []
    got = stats.digest(rows)
    want = expected[workload]["default_digest"]
    return [] if got == want else [f"digest {got} != recorded {want}"]
