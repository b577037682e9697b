"""Planted faults: each one must turn its named tests red.

    python3 tests/faults.py              # every fault
    python3 tests/faults.py NAME ...     # the named faults only

A fault is a file under src/kdvcohom, an exact text that occurs once in
it, the text that replaces it, and the tests that must fail with it in
place.  The runner copies src/ and tests/ into a temporary directory,
checks that the copy is the package the tests import and that every
named test passes on it unchanged, then plants one fault at a time and
runs only that fault's tests, with a fixed hypothesis seed.  It prints
one line per fault and exits 1 when a clean test fails or a fault leaves
one of its named tests passing, 2 for a fault name it does not know.

tests/test_faults.py checks, as part of the suite, that every anchor
still occurs exactly once and that every named test exists, so a change
that moves the planted code must move its fault too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kdvcohom"


class Fault(NamedTuple):
    name: str
    file: str                 # under src/kdvcohom
    text: str                 # occurs exactly once in the file
    replacement: str
    tests: Tuple[str, ...]    # pytest ids that must fail with the fault


FAULTS = (
    # Kernel.contains and OperatorMatrix.apply_all scale their columns
    # through one helper, so one dropped denominator breaks both
    Fault("column-denominator-dropped", "linwin.py",
          "x * (den_c // den)", "x",
          ("tests/test_linwin.py::test_kernel_contains_over_the_common_denominator",
           "tests/test_linwin.py::test_validate_catches_a_single_sixth",
           "tests/test_linwin.py::test_composite_matches_fraction_reference")),
    Fault("monomial-test-skipped", "linwin.py",
          "if space.contains(e) and acc.add(e):", "if True and acc.add(e):",
          ("tests/test_linwin.py::test_quotient_representatives_prefers_monomials",
           "tests/test_linwin_sympy.py::test_kernel_transversal_matches_its_spanned_basis",
           "tests/test_golden.py::test_report_matches_its_golden_file")),
    Fault("kernel-rows-skipped", "linwin.py",
          "return Echelon(nullspace(transpose(self._cols), len(self._cols))).rows()",
          "return []",
          ("tests/test_linwin.py::test_kernel_without_monomials_reads_its_rows",
           "tests/test_linwin_sympy.py::test_kernel_transversal_matches_its_spanned_basis")),
    Fault("bisect-right", "algebra.py",
          "from bisect import bisect_left", "from bisect import bisect_right as bisect_left",
          ("tests/test_algebra.py::test_monomial_product_matches_brute_force",
           "tests/test_algebra.py::test_polynomial_product_matches_brute_force")),
    Fault("koszul-sign-dropped", "algebra.py",
          "            if flips & 1:\n                c = -c\n", "",
          ("tests/test_algebra.py::test_monomial_product_matches_brute_force",
           "tests/test_algebra.py::test_polynomial_product_matches_brute_force")),
    # the stored rows are only forward-reduced, so rows() must back-substitute
    Fault("rows-not-back-substituted", "linwin.py",
          "            for j in [j for j in v if j in done]:\n"
          "                v = self._cleared(v, done[j], j)[0]\n", "",
          ("tests/test_linwin.py::test_echelon_ignores_row_order",
           "tests/test_linwin.py::test_echelon_never_rewrites_a_stored_row",
           "tests/test_linwin_sympy.py::test_rref_and_rank_match_sympy",
           "tests/test_linwin_sympy.py::test_echelon_between_inserts_matches_sympy")),
    # a clear can leave entries at later pivots; visiting only the row's
    # own pivot columns (a pass that suits a fully reduced store) misses them
    Fault("later-pivots-not-visited", "linwin.py",
          "heappush(heap, j)", "pass",
          ("tests/test_linwin.py::test_echelon_never_rewrites_a_stored_row",
           "tests/test_linwin_sympy.py::test_echelon_between_inserts_matches_sympy")),
    # the pencil lifts the negated d1 block, each entry negated once
    Fault("d1-negation-dropped", "kdvpencil.py",
          "(_minus_d1_piece_matrix(p, d, c - a),", "(d1_piece_matrix(p, d, c - a),",
          ("tests/test_kdvpencil.py::test_pencil_blocks_match_the_derivation",)),
    Fault("d1-at-own-lambda-power", "kdvpencil.py",
          "c - a), a + 1))", "c - a), a))",
          ("tests/test_kdvpencil.py::test_pencil_blocks_match_the_derivation",)),
    Fault("lift-sign-dropped", "kdvpencil.py",
          "tuple((i, -x) for i, x in col)", "tuple((i, x) for i, x in col)",
          ("tests/test_kdvpencil.py::test_pencil_blocks_match_the_derivation",)),
    Fault("lift-offset-dropped", "linwin.py",
          "(i + off, x)", "(i, x)",
          ("tests/test_linwin.py::test_lambda_lift_lays_blocks_at_their_offsets",
           "tests/test_kdvpencil.py::test_pencil_blocks_match_the_derivation")),
    Fault("odd-repeat-test-skipped", "algebra.py",
          "                if k < n and odd[k] == s:\n"
          "                    flips = -1\n"
          "                    break\n", "",
          ("tests/test_algebra.py::test_monomial_product_matches_brute_force",
           "tests/test_algebra.py::test_polynomial_product_matches_brute_force")),
    Fault("sub-keeps-zeros", "algebra.py",
          "        return self + -other\n",
          "        return _poly({**self.terms, **{m: self.terms.get(m, _F0) - c\n"
          "                                       for m, c in other.terms.items()}})\n",
          ("tests/test_algebra.py::test_results_hold_only_nonzero_fractions",)),
    # the columns left out are the codomain vectors paired below, not the
    # columns paired below
    Fault("clearing-the-wrong-side", "specseq.py",
          "cleared = set(self.pairs(n - 1)[1])", "cleared = set(self.pairs(n - 1)[0])",
          ("tests/test_specseq.py::test_every_cut_shares_the_pairs_of_one_global_elimination",
           "tests/test_specseq.py::test_whole_pieces_pair_as_one_global_elimination")),
    # a differential is composed with the one below it as the slice builds it
    Fault("composite-with-below-skipped", "specseq.py",
          "if below is not None and any(d.apply_all(below.cols)):", "if False:",
          ("tests/test_specseq.py::test_a_checked_square_holds_only_for_its_next_matrix",
           "tests/test_linwin.py::test_validate_catches_a_single_sixth",
           "tests/test_linwin.py::test_homology_rejects_nonzero_composite")),
    # a slice builds a degree only when a reader reaches it
    Fault("slice-built-eagerly", "kdvpencil.py",
          "    return FilteredSlice(tuple(spots), piece,\n"
          "                         lambda n: dlambda_piece_matrix(spots[n].p, n, c),\n"
          "                         f\"pencil k={k} c={c}\")\n",
          "    fs = FilteredSlice(tuple(spots), piece,\n"
          "                       lambda n: dlambda_piece_matrix(spots[n].p, n, c),\n"
          "                       f\"pencil k={k} c={c}\")\n"
          "    for n in fs.degrees:\n"
          "        fs.diff(n)\n"
          "    return fs\n",
          ("tests/test_kdvpencil.py::test_a_fresh_slice_enumerates_no_basis_until_read",
           "tests/test_kdvpencil.py::test_cut_slice_stops_at_its_top_basis",
           "tests/test_specseq.py::test_pages_read_no_degree_past_the_next_one",
           "tests/test_specseq.py::test_every_cut_shares_the_pairs_of_one_global_elimination")),
    # a term l^a m reads the stored image of m, which must be lifted by l^a
    Fault("lambda-shift-dropped", "algebra.py",
          "_new(Monomial, (ml + lam, u0, even, odd))", "_new(Monomial, (ml, u0, even, odd))",
          ("tests/test_algebra.py::test_memoized_operators_match_fraction_reference",
           "tests/test_algebra.py::test_lambda_powers_shift_the_stored_image")),
    # the memo is keyed by monomial alone, so it is sound only per operator
    Fault("memo-shared-by-operators", "varcalc.py",
          'object.__setattr__(self, "_memo", {})',
          'object.__setattr__(self, "_memo", OperatorSpec.__init__.__dict__.setdefault("memo", {}))',
          ("tests/test_algebra.py::test_memoized_operators_match_fraction_reference",
           "tests/test_algebra.py::test_each_operator_keeps_its_own_memo")),
    # a single entry skips the elimination only in a row no other column touches
    Fault("kernel-single-entry-in-a-shared-row", "linwin.py",
          "if len(col) != 1 or uses[col[0][0]] != 1]", "if len(col) != 1]",
          ("tests/test_linwin_sympy.py::test_kernel_len_matches_the_plain_rank",)),
)


def _env(root: Path) -> dict:
    # no bytecode: a planted file and the next one may share size and mtime
    return {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def failing(root: Path, ids: Iterable[str]) -> Tuple[Set[str], str]:
    """The ids among ids that fail in the tree at root, and pytest's output.
    When pytest cannot run them at all (an id not found, say), all fail."""
    ids = sorted(set(ids))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *ids],
        cwd=root, env=_env(root), capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1):
        return set(ids), proc.stdout + proc.stderr
    bad = [line.split()[1] for line in proc.stdout.splitlines()
           if line.startswith(("FAILED ", "ERROR "))]
    # a parametrized test fails when any of its cases does
    return {i for i in ids if any(b == i or b.startswith(i + "[") for b in bad)}, proc.stdout


def main(names) -> int:
    unknown = set(names) - {f.name for f in FAULTS}
    if unknown:
        print(f"unknown faults {sorted(unknown)}; known: {[f.name for f in FAULTS]}")
        return 2
    faults = [f for f in FAULTS if not names or f.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", root)
        where = subprocess.run(
            [sys.executable, "-c", "import kdvcohom; print(kdvcohom.__file__)"],
            cwd=root, env=_env(root), capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(root)):
            print(f"FAIL  the copy imports kdvcohom from {where or 'nowhere'}")
            return 1
        named = {t for f in faults for t in f.tests}
        red, out = failing(root, named)
        if red:
            print(out[-3000:])
            print(f"FAIL  clean copy fails {sorted(red)}")
            return 1
        print(f"ok    clean copy passes {len(named)} named tests")
        missed = 0
        for fault in faults:
            path = root / "src" / "kdvcohom" / fault.file
            clean = path.read_text()
            assert clean.count(fault.text) == 1, fault.name
            path.write_text(clean.replace(fault.text, fault.replacement))
            try:
                red, _ = failing(root, fault.tests)
            finally:
                path.write_text(clean)
            alive = [t for t in fault.tests if t not in red]
            missed += bool(alive)
            print(f"{'FAIL' if alive else 'ok'}    {fault.name}: "
                  f"{len(red)}/{len(fault.tests)} named tests fail"
                  + (f"; still passing: {alive}" if alive else ""))
    print(f"{len(faults) - missed}/{len(faults)} planted faults caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
