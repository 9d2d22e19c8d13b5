"""Run the benchmark of two trees in alternating pairs and compare them.

    python3 tools/ab.py --parent DIR --change DIR --workload W --seed N \\
        --pairs K --seconds S

Each pair runs `python3 benchmarks/run.py --workload W --seed N
--seconds S --trace 0` once from each tree, with that tree as the working
directory: odd pairs run the parent first, even pairs the change first,
so that a drift in the machine's speed falls on both sides alike.

Every run must exit 0 with a result line that says correct, and every
run of both trees must report the same digest; otherwise nothing is
written and the exit code is 1.  On success one JSON object goes to
stdout: the workload, seed, seconds and pairs, the digest,
`same_harness` (true when the two trees hold byte-identical
BENCHMARK.json files and `benchmarks/` directories, `__pycache__` aside,
so that the pairs compared the code alone; read before the first run),
and per
end-to-end metric the values of each side in pair order (`parent`,
`change`), their medians (`parent_median`, `change_median`), the number
of pairs in which the change read lower (`pairs_change_better`; every
`--trace 0` metric is better lower) and the interquartile range of the
parent's values (`parent_iqr`, inclusive quartiles).

The change's quartiles follow (`change_q1`, `change_q3`, inclusive
quartiles), then three verdicts per metric.  `bound` is the metric's
relative bound in the `end_to_end` list of the parent tree's
BENCHMARK.json (null when it has none), and `within_bound` says
change_median <= parent_median * (1 + bound) (null without a bound).
`resolved` is false when the parent's own runs spread wider than the
bound, parent_iqr > bound * parent_median, so that within_bound cannot
tell the trees apart, unless every run of the change read lower than
every run of the parent (null without a bound).  `claim_rule_met` says
that a gain could be claimed: the change read lower in at least 9 of
every 10 pairs, and its median is below the parent's by more than
parent_iqr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, args) -> tuple[dict, dict]:
    """(context, result) of one `benchmarks/run.py` run in tree."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {tree}: run exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    context, result = (json.loads(line) for line in lines[-2:])
    if not result.get("correct"):
        raise SystemExit(f"error: {tree}: run not correct: "
                         f"{context.get('problems')}")
    return context, result


def harness_files(tree: Path) -> dict:
    """Relative path -> bytes of BENCHMARK.json and of every file under
    benchmarks/ outside __pycache__ in tree."""
    paths = [tree / "BENCHMARK.json", *(tree / "benchmarks").rglob("*")]
    return {str(f.relative_to(tree)): f.read_bytes() for f in paths
            if f.is_file() and "__pycache__" not in f.parts}


def end_to_end_bounds(tree: Path) -> dict:
    """name -> bound of each `end_to_end` metric of tree's BENCHMARK.json."""
    path = tree / "BENCHMARK.json"
    spec = json.loads(path.read_text()) if path.exists() else {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def summary(parent: list, change: list, bound) -> dict:
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, _, c3 = statistics.quantiles(change, n=4, method="inclusive")
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    better = sum(c < b for b, c in zip(parent, change))
    return {
        "parent": parent, "change": change,
        "parent_median": parent_median,
        "change_median": change_median,
        "pairs_change_better": better,
        "parent_iqr": q3 - q1,
        "change_q1": c1, "change_q3": c3,
        "bound": bound,
        "within_bound": (None if bound is None
                         else change_median <= parent_median * (1 + bound)),
        "resolved": (None if bound is None
                     else q3 - q1 <= bound * parent_median
                     or max(change) < min(parent)),
        "claim_rule_met": (better >= 0.9 * len(parent)
                           and parent_median - change_median > q3 - q1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the quartiles")

    same_harness = harness_files(args.parent) == harness_files(args.change)
    values = {"parent": [], "change": []}
    digests = set()
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            context, result = run_once(getattr(args, side), args)
            digests.add(context["digest"])
            values[side].append({name: m["value"] for name, m
                                 in result["metrics"].items()})
    if len(digests) != 1:
        print(f"error: the runs gave {len(digests)} digests: "
              f"{sorted(digests)}", file=sys.stderr)
        return 1
    names = values["parent"][0].keys()
    bounds = end_to_end_bounds(args.parent)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "pairs": args.pairs,
        "digest": digests.pop(), "same_harness": same_harness,
        "metrics": {name: summary([v[name] for v in values["parent"]],
                                  [v[name] for v in values["change"]],
                                  bounds.get(name))
                    for name in names},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
