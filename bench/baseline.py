"""Summarize the run records in ``.bench_out/`` into ``bench/baseline.json``.

    python3 bench/baseline.py

Takes every full-size record, groups it by workload and mode, and stores for
each metric the median and quartiles over the runs, with the number of
runs, the spread (quartile distance over median), the workload's reason from
``BENCHMARK.json`` and the metadata of the runs.  Run it after a set of
runs with distinct seeds on one commit.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    groups = {}
    first_src = {}
    for path in sorted((ROOT / ".bench_out").glob("*-full-*.json")):
        rec = json.loads(path.read_text())
        if rec["meta"]["src_sha256"] != first_src.setdefault("sha", rec["meta"]["src_sha256"]):
            raise SystemExit(f"{path.name} measured other sources; clear .bench_out first")
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    out = {}
    for (workload, trace), recs in sorted(groups.items()):
        entry = out.setdefault(workload, {"why": why[workload]})
        names = recs[0]["metrics"]
        entry["traced" if trace else "timed"] = {
            "runs": len(recs),
            "seeds": sorted(r["meta"]["seed"] for r in recs),
            "metrics": {n: summarize([r["metrics"][n] for r in recs]) for n in names},
            "calibration_s": summarize([r["meta"]["calibration_s"] for r in recs]),
        }
    first = next(iter(groups.values()))[0]["meta"]
    doc = {"git_rev": first["git_rev"], "src_sha256": first["src_sha256"],
           "src_lines": first["src_lines"], "python": first["python"],
           "nproc": first["nproc"], "run_seconds": spec["run_seconds"],
           "workloads": out}
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"baseline of {sum(len(r) for r in groups.values())} runs written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
