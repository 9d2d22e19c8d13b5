"""One pass of one workload in a fresh interpreter.

    python3 benchmarks/child.py --workload NAME --seed N --mode pass|setup|traced

``setup`` stops after set-up; ``pass`` also runs the timed phase;
``traced`` does the same with every layer function wrapped by the tracer.
Prints one JSON object on the last line of stdout.  Started by run.py with
PYTHONPATH pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup", "traced"),
                    required=True)
    args = ap.parse_args(argv)

    import numpy as np

    import workloads
    tracer = None
    if args.mode == "traced":
        from tracer import HOOKS, Tracer
        tracer = Tracer()
        tracer.install(HOOKS)
    setup, run = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    out = {"setup_end": time.monotonic(), "python": platform.python_version(),
           "numpy": np.__version__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    split = time.perf_counter()
    if tracer is not None:
        tracer.counters.clear()
    runner = workloads.Runner(tracer)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    run(state, args.seed, runner)
    # output checks are single-threaded computation: their wall time is
    # their CPU time
    out["wall_s"] = time.perf_counter() - t0 - runner.check_s
    out["cpu_s"] = cpu_seconds() - cpu0 - runner.check_s
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["items"] = runner.items
    if tracer is not None:
        tracer.enabled = False
        from tracer import layer_metrics
        out["layers"] = layer_metrics(tracer, split)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
