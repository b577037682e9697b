"""The benchmark's smoke test, run as part of the test suite.

bench/smoke.py runs every workload at its tiny size, timed and traced, and
checks every answer against oracles that share no code with the package,
among them a sha256 digest of each canonical generator recorded in
bench/digests.json.  Running it here means an engine change that alters a
canonical generator, a count or a traced binding fails the tests, not only
the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke test passed" in proc.stdout
