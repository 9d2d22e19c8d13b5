"""Small statistics shared by run.py and the tests."""

from __future__ import annotations

import hashlib
import json

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(sorted_values, q: float):
    """The nearest-rank q-th percentile of an ascending list and its
    1-based rank."""
    n = len(sorted_values)
    k = max(1, -(-round(q * 10) * n // 1000))   # ceil(q/100 * n), exactly
    return sorted_values[k - 1], k


def tail(values):
    """The value at the highest percentile that still has at least
    MIN_BEYOND samples above its rank.

    Returns (value, percentile, samples beyond).  With too few samples for
    any candidate the maximum is returned with percentile 100."""
    s = sorted(values)
    n = len(s)
    for q in TAIL_PERCENTILES:
        v, k = nearest_rank(s, q)
        if n - k >= MIN_BEYOND:
            return v, q, n - k
    return s[-1], 100.0, 0


def digest(rows) -> str:
    """sha256 of the sorted rows in compact JSON; row order and tuple/list
    spelling do not matter."""
    canonical = sorted(json.loads(json.dumps(list(r))) for r in rows)
    blob = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
