"""pcohom benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(benchmarks/child.py), so the group caches and the unitriangular cache
start cold, as they do for each CLI invocation.

--trace 0: whole passes run one after the other until at least S seconds
  of timed phase are measured; set-up-only processes are added until there
  are SETUP_SAMPLES set-up times.  Reports the end-to-end metrics.
--trace 1: an untraced and a traced pass run side by side; reports the
  per-layer metrics and the tracing overhead.

Every item is checked against expected.json and its oracles.  The last
stdout line is the result object; the line before it records the context
(versions, commit, seed, digest, tail percentile used, problems).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0          # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


class Child:
    """A child interpreter running one pass, set-up or traced pass."""

    def __init__(self, workload, seed, mode, threads):
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(threads),
                                     stdout=subprocess.PIPE, text=True)

    def result(self, deadline: float) -> dict:
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise ChildFailed("pass did not finish before the deadline")
        if self.proc.returncode != 0 or not out.strip():
            raise ChildFailed(f"child exited with code {self.proc.returncode}")
        res = json.loads(out.strip().splitlines()[-1])
        res["setup_s"] = res["setup_end"] - self.t_spawn
        return res

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_children(specs, deadline):
    """Start a child per (workload, seed, mode, threads) spec and collect
    their results; no child outlives this call."""
    children = []
    try:
        for args in specs:
            children.append(Child(*args))
        return [c.result(deadline) for c in children]
    finally:
        for c in children:
            c.stop()


def source_context() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "pcohom").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": h.hexdigest()}


def end_to_end(passes, setups) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the per-item latencies, which
    go to the context line: on a shared two-core machine their spread over
    seeds is about as large as the largest bound a metric may have."""
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median([r["wall_s"] for r in passes]), "s"),
        "cpu_s": (statistics.median([r["cpu_s"] for r in passes]), "s"),
        "peak_rss_mb": (statistics.median([r["rss_mb"] for r in passes]), "MB"),
    }
    ms = [it["ms"] for it in passes[0]["items"]]
    tail_ms, q, beyond = stats.tail(ms)
    context = {"item_p50_ms": statistics.median(ms), "item_tail_ms": tail_ms,
               "tail_percentile": q, "tail_items_beyond": beyond,
               "setup_samples": setups}
    return metrics, context


def per_layer(ref, traced) -> dict:
    metrics = {k: (v, unit_of(k)) for k, v in traced["layers"].items()}
    metrics["traced_wall_s"] = (traced["wall_s"], "s")
    metrics["traced_setup_s"] = (traced["setup_s"], "s")
    metrics["trace_overhead_frac"] = (traced["wall_s"] / ref["wall_s"] - 1.0,
                                      "ratio")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_per_prefix")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(checks.KEY_LEN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that run_children stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not (SRC / "pcohom" / "__init__.py").is_file():
        print(f"error: no pcohom package under {SRC}", file=sys.stderr)
        return 2
    expected = checks.load()
    nproc = os.cpu_count() or 1
    try:
        if args.trace:
            # side by side, so that a traced sweep ends well inside 180 s;
            # both passes share the machine alike, so the overhead ratio
            # compares like with like
            half = max(1, nproc // 2)
            passes = run_children([(args.workload, args.seed, mode, half)
                                   for mode in ("pass", "traced")], deadline)
            ref, traced = passes
            metrics = per_layer(ref, traced)
            context = {}
        else:
            passes, measured = [], 0.0
            while not passes or measured < args.seconds:
                now = time.monotonic()
                per_pass = (now - start) / max(1, len(passes))
                if passes and now + 2 * per_pass > deadline:
                    break
                (r,) = run_children([(args.workload, args.seed, "pass", nproc)],
                                    deadline)
                passes.append(r)
                measured += r["wall_s"]
            setups = [r["setup_s"] for r in passes]
            while len(setups) < SETUP_SAMPLES:
                (r,) = run_children([(args.workload, args.seed, "setup", nproc)],
                                    deadline)
                setups.append(r["setup_s"])
            metrics, context = end_to_end(passes, setups)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    items = [it for r in passes for it in r["items"]]
    problems = []
    for r in passes:
        problems += checks.check_rows(args.workload, r["items"], expected)
        problems += checks.check_digest(args.workload, args.seed,
                                       [it["row"] for it in r["items"]
                                        if it["row"] is not None], expected)
    failed = [it for it in items if it["problem"] is not None]
    context.update({
        "workload": args.workload, "seed": args.seed,
        "seed_used": checks.SEEDED[args.workload], "passes": len(passes),
        "items": len(items), "fail_frac": len(failed) / max(1, len(items)),
        "digest": stats.digest(it["row"] for it in passes[0]["items"]
                               if it["row"] is not None),
        "nproc": nproc, "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        **source_context(),
        "problems": problems + [f"{it['key']}: {it['problem']}"
                                for it in failed[:20]],
    })
    print(json.dumps(context))
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct, "attempted": len(items), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
