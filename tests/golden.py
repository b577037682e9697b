"""Golden reports: the timing-free output of every report, byte for byte.

    python3 tests/golden.py              # regenerate every report and diff it
    python3 tests/golden.py NAME ...     # the named reports only
    python3 tests/golden.py --write      # record the current outputs

Each report is the stdout of one fresh process, a command line of the
kdvcohom CLI or a demo script, kept in tests/golden/NAME.  The list covers
all six bh kinds at windows 3:2 and 5:4 up to degree 5, the pages 1-3 up to
the default total and to total 6, verify and acceptance (JSON only: their
text carries timings) and the four demos, in text and JSON where the
command has both.  TIER1 names the cheap reports that
tests/test_golden.py diffs as part of the suite; the full run takes about
half a minute and stays out of it.  A golden file changes only together
with a CHANGES.md entry that says which file and why.

Prints one line per report and exits 1 when any differs from its file.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# the six table kinds of kdvcohom.cohomeng.KINDS
_KINDS = ("dlambda_A", "dlambda_Q", "dlambda_F", "d1_A", "bh_A", "bh_F")
_EXT = {"text": "txt", "json": "json"}


def _reports() -> Dict[str, Tuple[str, ...]]:
    cli = ("-m", "kdvcohom.cli")
    out = {
        "bh.txt": cli + ("bh",),
        "bh.json": cli + ("bh", "--format", "json"),
        "verify.json": cli + ("verify", "--format", "json"),
        "acceptance.json": cli + ("acceptance", "--format", "json"),
    }
    for fmt, ext in _EXT.items():
        for kind in _KINDS:
            for n, l in ((3, 2), (5, 4)):
                out[f"bh-{kind}-{n}-{l}.{ext}"] = cli + (
                    "bh", "--kind", kind, "--window", f"{n}:{l}", "--max-d", "5",
                    "--format", fmt)
        for r in (1, 2, 3):
            out[f"pages-{r}.{ext}"] = cli + ("pages", "--page", str(r), "--format", fmt)
            out[f"pages-{r}-total-6.{ext}"] = cli + (
                "pages", "--page", str(r), "--max-total", "6", "--format", fmt)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out[f"demo-{demo.stem}.txt"] = (str(demo.relative_to(ROOT)),)
    return out


REPORTS = _reports()
TIER1 = ("bh.txt", "bh.json", "pages-1.txt", "pages-2.json", "verify.json")


def run(name: str) -> bytes:
    """The stdout of the report name, from the package under src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, *REPORTS[name]], cwd=ROOT, env=env,
                          capture_output=True, timeout=900)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    return proc.stdout


def main(argv) -> int:
    write = "--write" in argv
    names = [a for a in argv if a != "--write"] or list(REPORTS)
    unknown = set(names) - set(REPORTS)
    if unknown:
        print(f"unknown reports {sorted(unknown)}; known: {list(REPORTS)}")
        return 2
    differ = 0
    for name in names:
        got, path = run(name), GOLDEN / name
        if write:
            GOLDEN.mkdir(exist_ok=True)
            path.write_bytes(got)
            print(f"wrote {name}")
            continue
        want = path.read_bytes() if path.exists() else None
        if got == want:
            print(f"ok    {name}")
            continue
        differ += 1
        print(f"DIFF  {name}" + (" (no golden file)" if want is None else ""))
        if want is not None:
            sys.stdout.writelines(difflib.unified_diff(
                want.decode().splitlines(True), got.decode().splitlines(True),
                f"golden/{name}", "now", n=1))
    if not write:
        print(f"{len(names) - differ}/{len(names)} reports byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
