"""The kdvcohom benchmark: one command for every metric, checked answers.

    python3 bench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; ``kdvcohom`` is imported from
``src/``.  Every pass of the workload runs in a fresh single-threaded
process (``worker.py``), because users run the command line once per
report and so always start with cold caches.  A pass is a closed loop with
one client: each query is issued when the previous one has returned.

With ``--trace 0`` the run first times ``import kdvcohom`` in several fresh
processes (``setup_s``, the median), then repeats whole passes for
``--seconds`` seconds.  Pass i issues the queries in the order drawn from
seed * 1000 + i, so the latencies pooled over a run cover several orders.
It reports:

  wall_s         time from the first query to the last answer, median
                 over passes
  peak_rss_mib   peak resident memory of a pass's process, median
  query_p50_ms   median query latency, pooled over passes
  query_tail_ms  pooled latency with ten queries per pass above it: the
                 highest percentile that has at least ten samples beyond
                 it in a single pass

With ``--trace 1`` it runs one untraced pass and two traced passes under
two seeds, and reports the per-layer self times and counters of the traced
passes (see ``tracer.py``).  Every exact counter must repeat between the two
traced passes, and every layer the workload is predicted to exercise must
record calls; otherwise the run is marked incorrect.

Each run also records the source revision, the Python version, the number
of processors, the seed, the line count of ``src/`` and a machine-speed
calibration, prints every metric by name with its unit, writes the full
record to ``.bench_out/`` and prints one JSON object as its last line.
It exits 2, printing no result, when the checkout holds no ``src/kdvcohom``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("tables", "pages", "identities")

SETUP_REPEATS = 7
PASS_TIMEOUT_S = 170

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("query_p50_ms", "ms"), ("query_tail_ms", "ms"))

PER_LAYER = (
    ("algebra.self_s", "s"), ("varcalc.self_s", "s"),
    ("linwin.assembly.self_s", "s"), ("linwin.elim.self_s", "s"),
    ("kdvpencil.self_s", "s"), ("specseq.self_s", "s"),
    ("cohomeng.self_s", "s"), ("acceptance.self_s", "s"),
    ("algebra.mul.calls", "count"), ("algebra.dtot.calls", "count"),
    ("algebra.partial.calls", "count"), ("varcalc.apply_op.calls", "count"),
    ("linwin.assembly.operator_matrix.calls", "count"),
    ("linwin.assembly.operator_matrix.cols", "count"),
    ("linwin.elim.share", "ratio"), ("linwin.elim.rref.calls", "count"),
    ("linwin.elim.rref.cells", "count"), ("linwin.elim.rref.nnz", "count"),
    ("linwin.elim.rref.max_cells", "count"),
    ("linwin.elim.nullspace.calls", "count"), ("linwin.elim.solve.calls", "count"),
    ("linwin.elim.intersect.calls", "count"),
    ("linwin.elim.transversal_yield", "ratio"),
    ("kdvpencil.slice.hit_ratio", "ratio"),
    ("specseq.page.calls", "count"), ("specseq.z_rows.calls", "count"),
    ("specseq.b_rows.calls", "count"),
    ("cohomeng.piece.misses", "count"), ("cohomeng.piece.hit_ratio", "ratio"),
    ("cache.entries", "count"), ("cache.hit_ratio", "ratio"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
)

# layers each workload must call; zero calls there means the trace is broken
EXERCISED = {
    "tables": ("algebra", "varcalc", "linwin.assembly", "linwin.elim",
               "kdvpencil", "cohomeng"),
    "pages": ("algebra", "varcalc", "linwin.assembly", "linwin.elim",
              "kdvpencil", "specseq", "acceptance"),
    "identities": ("algebra", "varcalc", "kdvpencil"),
}
# layers a workload is predicted not to reach; calls there are reported
IDLE = {"tables": (), "pages": (), "identities": ("linwin.elim",)}

EXACT_SUFFIXES = (".calls", ".cells", ".nnz", ".max_cells", ".misses", ".cols",
                  ".entries", ".spans")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    # fixed string hashing, so that two passes in one order run the same code
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv) -> str:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


# -- metadata -----------------------------------------------------------------


def calibrate() -> float:
    """Median time of a fixed pure-Python Fraction loop, as a speed gauge."""
    def loop():
        x = Fraction(0)
        for i in range(20000):
            a = Fraction(i % 13 + 1, i % 11 + 1)
            b = Fraction(i % 7 + 1, i % 5 + 1)
            x = a * b - a / b + x.numerator % 3
        return x
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metadata(seed: int) -> dict:
    # the revision only when the checkout itself is the git work tree; an
    # exported checkout has none, and the source digest identifies it
    rev = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
        top, _, head = proc.stdout.strip().partition("\n")
        if proc.returncode == 0 and Path(top).resolve() == ROOT:
            rev = head
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "calibration_s": calibrate(),
    }


# -- measurements ----------------------------------------------------------------


def measure_setup() -> float:
    """Median time of ``import kdvcohom`` in a fresh process.

    One untimed import first writes the byte code, as an installed package
    would already have it.
    """
    code = ("import time; t = time.perf_counter(); import kdvcohom; "
            "print(time.perf_counter() - t)")
    run_child(["-c", code])
    return statistics.median(float(run_child(["-c", code]))
                             for _ in range(SETUP_REPEATS))


def run_pass(workload: str, seed: int, size: str, trace: int) -> dict:
    line = run_child([str(HERE / "worker.py"), "--workload", workload,
                      "--seed", str(seed), "--size", size, "--trace", str(trace)])
    return json.loads(line)


def tail(passes) -> float:
    """Pooled latency with ten samples per pass above it."""
    xs = sorted(x for p in passes for x in p["latencies_s"])
    return xs[max(0, len(xs) - 10 * len(passes) - 1)]


def timed_run(workload: str, seed: int, seconds: float, size: str):
    setup = measure_setup()
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed * 1000 + len(passes), size, 0))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": setup,
        "peak_rss_mib": statistics.median(p["peak_rss_kib"] / 1024 for p in passes),
        "query_p50_ms": statistics.median(
            x for p in passes for x in p["latencies_s"]) * 1e3,
        "query_tail_ms": tail(passes) * 1e3,
    }
    return passes, metrics, []


def traced_run(workload: str, seed: int, size: str):
    plain = run_pass(workload, seed * 1000, size, 0)
    traced = [run_pass(workload, seed * 1000 + i, size, 1) for i in (0, 1)]
    problems = []
    first, second = (t["layers"] for t in traced)
    for key in sorted(first):
        if key.endswith(EXACT_SUFFIXES) and first[key] != second[key]:
            problems.append(f"{key} differs between traced passes: "
                            f"{first[key]} vs {second[key]}")
    for layer in EXERCISED[workload]:
        if traced[0]["layer_calls"][layer] == 0:
            problems.append(f"layer {layer} recorded no calls")
    metrics = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.median(t["wall_s"] for t in traced)
                     - plain["wall_s"])
        elif name.endswith(EXACT_SUFFIXES):
            value = first[name]
        else:
            value = statistics.median(t["layers"][name] for t in traced)
        metrics[name] = value
    return [plain, *traced], metrics, problems


# -- reporting ------------------------------------------------------------------


def report(args, meta, passes, metrics, problems) -> dict:
    units = dict(END_TO_END if not args.trace else PER_LAYER)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mode = "traced" if args.trace else "timed"
    print(f"kdvcohom benchmark: workload {args.workload}, size {args.size}, "
          f"seed {args.seed}, {mode}, {len(passes)} passes in fresh processes")
    print("  " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} queries)")
    if not args.trace:
        n = passes[0]["attempted"]
        print(f"  latencies pooled over {len(passes)} passes of {n} queries; tail = "
              f"the {100 * (n - 10) / n:.1f}th percentile, ten queries per pass above it")
    else:
        calls = passes[1]["layer_calls"]
        print(f"  wall_s untraced {passes[0]['wall_s']:.6g} s, traced "
              + ", ".join(f"{p['wall_s']:.6g}" for p in passes[1:]) + " s")
        print("  layer calls: " + ", ".join(f"{k} {v}" for k, v in calls.items()))
        for layer in IDLE[args.workload]:
            if calls[layer]:
                print(f"  note: layer {layer}, predicted idle, made {calls[layer]} calls")
    for p in passes:
        for qid, why in p["failures"]:
            print(f"  FAILED {qid}: {why}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    record = {"workload": args.workload, "size": args.size, "trace": args.trace,
              "meta": meta, "metrics": metrics, "problems": problems,
              "passes": passes}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(record, fh)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the timed passes may run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the smoke-test inputs")
    args = ap.parse_args()
    if not (SRC / "kdvcohom" / "__init__.py").is_file():
        print(f"no kdvcohom sources under {SRC}", file=sys.stderr)
        return 2
    try:
        meta = metadata(args.seed)
        if args.trace:
            passes, metrics, problems = traced_run(args.workload, args.seed, args.size)
        else:
            passes, metrics, problems = timed_run(args.workload, args.seed,
                                                  args.seconds, args.size)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = report(args, meta, passes, metrics, problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
