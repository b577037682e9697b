"""Smoke test of the benchmark at tiny inputs.

    python3 bench/smoke.py

Runs every workload through ``run.py`` at the tiny size, timed and traced,
and checks that each run is correct and prints every metric by name.  Then
checks that the oracles are live: a wrong expected value, a changed
generator digest and a corrupted second structure must each turn queries
into failures.  Finally checks that the benchmark refuses to run in a
directory holding only ``BENCHMARK.json`` and ``bench/``.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(f"{'ok' if ok else 'FAIL'}  {what}")
    if not ok:
        sys.exit(1)


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def runs_print_every_metric() -> None:
    for workload in run.WORKLOADS:
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny")
            check(proc.returncode == 0, f"{workload} trace {trace} exits 0")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace} is correct")
            check(sorted(result["metrics"]) == sorted(n for n, _ in names),
                  f"{workload} trace {trace} reports exactly its metrics")
            text = "\n".join(lines[:-1])
            missing = [n for n, _ in names if n not in text]
            if not trace:
                missing += [] if "failed_frac" in text else ["failed_frac"]
            check(not missing, f"{workload} trace {trace} prints every metric by name")


def failures_with(workload: str, patch) -> int:
    """Failed queries of one tiny pass with one oracle or engine part patched."""
    undo = patch()
    try:
        return worker.run_pass(workload, "tiny", 1)["failed"]
    finally:
        undo()


def swap(owner, name, value):
    old = getattr(owner, name)
    setattr(owner, name, value)
    return lambda: setattr(owner, name, old)


def oracles_are_live() -> None:
    import kdvcohom

    for workload in run.WORKLOADS:
        check(failures_with(workload, lambda: lambda: None) == 0,
              f"{workload} passes unpatched")

    closed_form = workloads.table_dim
    wrong_dim = lambda kind, p, d, n, l: closed_form(kind, p, d, n, l) + ((p, d) == (0, 0))
    check(failures_with("tables", lambda: swap(workloads, "table_dim", wrong_dim)) == 4,
          "a wrong closed form at (0,0) fails its four table queries")

    recorded = workloads.load_digests()
    key = workloads.table_qid("bh_F", 1, 1, kdvcohom.Window(1, 1))
    changed = dict(recorded, **{key: "0" * 16})
    check(failures_with("tables", lambda: swap(workloads, "load_digests",
                                               lambda: changed)) == 1,
          "a changed generator digest fails its table query")

    page_two = workloads.page_two_dim
    wrong_page = lambda p, q, n, l: page_two(p, q, n, l) + ((p, q) == (1, 2))
    check(failures_with("pages", lambda: swap(workloads, "page_two_dim", wrong_page)) == 2,
          "a wrong page-two model at (1,2) fails its queries on pages two and three")

    corrupted = kdvcohom.OperatorSpec(kdvcohom.poly("u t1"), kdvcohom.poly("1/2 t0 t1"))
    check(failures_with("identities", lambda: swap(kdvcohom, "D2", corrupted)) > 0,
          "a corrupted second structure fails identity queries")


def page_one_model_matches_basis() -> None:
    from kdvcohom import Window, e1_basis

    bad = [(w, p, n - p) for w in ((1, 1), (2, 1), (3, 2)) for n in range(7)
           for p in range(n + 1)
           if workloads.page_one_dim(p, n - p, *w) != len(e1_basis(p, n - p, Window(*w)))]
    check(not bad, "the page-one count agrees with the engine's model basis")


def refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench("--workload", "tables", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "refuses, printing no result, without the sources")


def main() -> int:
    runs_print_every_metric()
    oracles_are_live()
    page_one_model_matches_basis()
    refuses_without_sources()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
