"""Record the digest of every table entry's generator text.

    python3 bench/record_digests.py

Writes ``bench/digests.json`` for the ``tables`` workload at every size in
``workloads.SIZES``.  The benchmark compares each answer with it, so a
changed canonical representative counts as a failed query.  Rerun this
only when a change of representatives is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    from kdvcohom import Window

    digests = {}
    for size in workloads.SIZES.values():
        params = size["tables"]
        w = Window(*params["window"])
        for kind in workloads.TABLE_KINDS:
            for p, d in workloads.table_spots(params["max_d"]):
                _, gens = workloads.table_generators(kind, p, d, w)
                digests[workloads.table_qid(kind, p, d, w)] = \
                    workloads.text_digest(", ".join(gens))
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump({"tables": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
