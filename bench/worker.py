"""One pass of one workload in a fresh process.

    python3 bench/worker.py --workload tables --seed 1 --size full --trace 0

Imports ``kdvcohom`` from ``src/`` of the checkout, builds the shuffled
queries, then issues them one at a time (a closed loop with one client) and
checks each answer against its oracle.  Prints one JSON object: the pass
wall time, every query latency, the failures, and the peak resident memory
of this process.  With ``--trace 1`` the layer functions are wrapped first
and the object also carries the per-layer metrics and a per-function table.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def run_pass(workload: str, size: str, seed: int, tracer=None) -> dict:
    """Issue every query once; time each one and check it."""
    queries, late_failures = workloads.build(workload, size, seed)
    if tracer is not None:
        tracer.reset()
    latencies = []
    failures = []
    clock = time.perf_counter
    start = clock()
    for qid, call, check in queries:
        t0 = clock()
        try:
            answer = call()
        except Exception as exc:   # a query that raises counts as failed
            latencies.append(clock() - t0)
            failures.append((qid, f"raised {type(exc).__name__}: {exc}"))
            continue
        latencies.append(clock() - t0)
        why = check(answer)
        if why is not None:
            failures.append((qid, why))
    wall = clock() - start
    failed = len(failures)
    late = late_failures()
    if late:
        failures.append(("negative control", f"none of its {late} queries broke"))
        failed += late
    out = {
        "workload": workload,
        "seed": seed,
        "attempted": len(queries),
        "failed": failed,
        "failures": failures[:10],
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"], out["functions"] = tracer.summary(wall)
        out["layer_calls"] = tracer.layer_calls()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SIZES["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import kdvcohom  # noqa: F401  (loads every module before patching)
    import kdvcohom.cli  # noqa: F401
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result = run_pass(args.workload, args.size, args.seed, tracer)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
