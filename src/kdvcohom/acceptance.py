"""Acceptance battery: every headline claim of the engine, checked exactly.

Each criterion is a function returning (passed, detail) and is listed in
ALL_CHECKS; run_acceptance() executes them in order and format_results()
prints one PASS/FAIL line per criterion.  All arithmetic is over Fraction,
so a criterion either holds on the stated battery or the battery found a
counterexample; there are no tolerances anywhere.

Window conventions for the finite reports: a window (N, L) keeps monomials
whose u-power is at most N and parameter power at most L.  A smooth
one-variable coefficient counts as N + 1 classes inside such a window, a
polynomial coefficient in the parameter as L + 1, a constant as one, and a
smooth coefficient taken modulo polynomials as zero, since the polynomial
model realizes that quotient trivially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import Bidegree, DiffPoly, dtot, lam_var, mono, poly
from .cohomeng import (
    EXCEPTIONAL_BIDEGREES,
    ExceptionalBidegreeError,
    class_coords,
    compare_bh_vs_lambda,
    dims_table,
    les_rank_audit,
    p_bound,
    piece_homology,
    spots_up_to,
    windowed_dim,
)
from .kdvpencil import (
    D1,
    D2,
    HomotopySingularityError,
    P1_DENSITY,
    P2_DENSITY,
    d1_explicit,
    e1_basis,
    h_op,
    pencil_filtered_slice,
)
from .linwin import DEFAULT_LADDER, Window, enumerate_piece_basis
from .specseq import PageEntry, converge_check, homology_at, page, page_dr_matrix
from .varcalc import OperatorSpec, delta_theta, delta_u, schouten

F1 = Fraction(1)

# the largest total p + q of a page position that the page counts take:
# the battery counts every position up to it, and the cost guard of the
# pages report is sized for it
_MAX_TOTAL = 6


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0


# -- the identity suites -----------------------------------------------------


VERIFY_SUITES = (
    "d1_squared",
    "d2_squared",
    "d1d2_anticommute",
    "dlambda_squared",
    "schouten_relations",
    "variational_descent",
    "homotopy_identity",
)


@lru_cache(maxsize=4)
def _battery(max_d: int, n_cap: int, l_cap: int) -> Tuple[DiffPoly, ...]:
    """All window monomials up to the degree bound, as one-term polynomials."""
    out = []
    for d in range(max_d + 1):
        for p in range(p_bound(d) + 1):
            for c in range(n_cap + l_cap + d + 1):
                basis = enumerate_piece_basis(Bidegree(p, d), c, True)
                for m in basis.monomials:
                    if m.in_window(n_cap, l_cap):
                        out.append(DiffPoly.monomial(m, F1))
    return tuple(out)


def _first_failure(battery, op) -> Optional[str]:
    for x in battery:
        if op(x).terms:
            m = next(iter(x.terms))
            return m.format() or "1"
    return None


def _homotopy_identity(w: Window):
    """Check h d + d h = 1 on page one, one basis element at a time.

    Yields (p, q, monomial, holds) over totals p + q <= _MAX_TOTAL, in
    canonical order, skipping the singular position (1, 2).
    """
    for p in range(1, _MAX_TOTAL):
        for q in range(2, _MAX_TOTAL + 1 - p):
            if (p, q) == (1, 2):
                continue
            for m in e1_basis(p, q, w).monomials:
                x = DiffPoly.monomial(m, F1)
                lhs = h_op(d1_explicit(x, q), p + 1, q) \
                    + d1_explicit(h_op(x, p, q), q)
                yield p, q, m, not (lhs - x).terms


def run_verify_suite(name: str, max_d: int = 6, window: Window = Window(3, 2),
                     second_structure: Optional[OperatorSpec] = None) -> CheckResult:
    """One named operator-identity suite over the window monomial battery.

    second_structure substitutes for the second bracket in the suites that
    mention it (d2_squared, d1d2_anticommute, dlambda_squared); passing a
    non-Poisson operator there must make those suites fail, which is the
    negative control of the battery.
    """
    if name not in VERIFY_SUITES:
        raise ValueError(f"unknown verify suite {name!r}")
    start = time.perf_counter()
    battery = _battery(max_d, window.N, window.L)
    d2 = D2 if second_structure is None else second_structure
    lam = lam_var()

    def pencil(a: DiffPoly) -> DiffPoly:
        return d2(a) - lam * D1(a)

    culprit: Optional[str] = None
    scope = f"{len(battery)} monomials, degrees <= {max_d}, window ({window.N},{window.L})"
    if name == "d1_squared":
        culprit = _first_failure(battery, lambda x: D1(D1(x)))
    elif name == "d2_squared":
        culprit = _first_failure(battery, lambda x: d2(d2(x)))
    elif name == "d1d2_anticommute":
        culprit = _first_failure(battery, lambda x: D1(d2(x)) + d2(D1(x)))
    elif name == "dlambda_squared":
        culprit = _first_failure(battery, lambda x: pencil(pencil(x)))
    elif name == "schouten_relations":
        scope = "brackets of the two structure densities"
        for a, b, tag in ((P1_DENSITY, P1_DENSITY, "[P1,P1]"),
                          (P2_DENSITY, P2_DENSITY, "[P2,P2]"),
                          (P1_DENSITY, P2_DENSITY, "[P1,P2]"),
                          (P2_DENSITY, P1_DENSITY, "[P2,P1]")):
            if not schouten(a, b).is_zero():
                culprit = tag
                break
    elif name == "variational_descent":
        culprit = _first_failure(battery, lambda x: delta_u(dtot(x)))
        if culprit is None:
            culprit = _first_failure(battery, lambda x: delta_theta(dtot(x)))
    elif name == "homotopy_identity":
        checked = 0
        for _, _, m, ok in _homotopy_identity(window):
            checked += 1
            if not ok:
                culprit = m.format() or "1"
                break
        scope = f"{checked} page-one basis elements away from the singular spot"
    passed = culprit is None
    detail = scope if passed else f"failed on {culprit} ({scope})"
    return CheckResult(f"verify:{name}", passed, detail,
                       time.perf_counter() - start)


# -- pages of the pencil pieces ----------------------------------------------


def _pencil_page(k: int, c: int, r: int, p: int, n: int) -> Optional[PageEntry]:
    """Page entry of the pencil piece, or None when degree n is absent."""
    fs = pencil_filtered_slice(k, c)
    if n not in fs.degrees:
        return None
    return page(fs, r, p, n - p)


def windowed_page_counts(r: int, p: int, q: int, windows: Sequence[Window]) -> List[int]:
    """Window counts of one page position, one per window, each summed over
    all pieces meeting it; every piece's entry is built once for all windows.

    A page at total n builds each piece only up to degree n + 1.  A
    position past the total _MAX_TOTAL raises ValueError."""
    n = p + q
    if n > _MAX_TOTAL:
        raise ValueError(f"page position ({p},{q}) lies past the total "
                         f"{_MAX_TOTAL} that page counts take")
    tops = [w.N + w.L + n for w in windows]
    got = [0] * len(windows)
    for k in range(max(-1, n - p_bound(n)), n + 1):
        for c in range(max(tops) + 1):
            pg = _pencil_page(k, c, r, p, n)
            if pg is None:
                continue
            for i, w in enumerate(windows):
                if c <= tops[i]:
                    got[i] += pg.window_count(w)
    return got


def windowed_page_count(r: int, p: int, q: int, w: Window) -> int:
    """Window count of one page position summed over all pieces meeting it."""
    return windowed_page_counts(r, p, q, (w,))[0]


def page_spots(max_total: int) -> Iterator[Bidegree]:
    """The bidegrees whose pieces the page counts up to the total max_total
    build, by increasing degree: the slices are read up to degree
    max_total + 1, and no differential out of that degree is built.  Those
    pieces carry l, with counts up to the largest N + L of the windows plus
    max_total.  Their count is an upper bound, as not every count of every
    piece is built (8425 against 8264 monomials built by default, 31583
    against 30826 at max_total 6)."""
    return (bd for bd in spots_up_to(max_total + 1) if bd.d - bd.p <= max_total)


# -- criteria ------------------------------------------------------------------


def check_pencil_identities() -> Tuple[bool, str]:
    """All seven identity suites pass and a corrupted bracket is caught."""
    results = [run_verify_suite(nm) for nm in VERIFY_SUITES]
    failing = [r.name for r in results if not r.passed]
    corrupted = OperatorSpec(poly("u t1"), poly("1/2 t0 t1"), name="corrupted")
    control = run_verify_suite("d2_squared", second_structure=corrupted)
    passed = not failing and not control.passed
    nmon = len(_battery(6, 3, 2))
    parts = [f"{len(VERIFY_SUITES)} suites over {nmon} window monomials"]
    if failing:
        parts.append("failing: " + ", ".join(failing))
    parts.append("corrupted second structure "
                 + ("rejected" if not control.passed else "WRONGLY ACCEPTED"))
    return passed, "; ".join(parts)


def check_first_structure_cohomology() -> Tuple[bool, str]:
    """Cohomology of the first structure alone: one class at (0,0), one at (1,0)."""
    bad = []
    for n_cap in (2, 3, 4):
        w = Window(n_cap, 0)
        for bd, dim in dims_table("d1_A", w, 5).items():
            want = 1 if bd in (Bidegree(0, 0), Bidegree(1, 0)) else 0
            if dim != want:
                bad.append((n_cap, tuple(bd), dim, want))
    detail = "windowed tables to degree 5 for u-power caps 2, 3, 4"
    if bad:
        detail += f"; mismatches {bad[:4]}"
    return not bad, detail


def _ladder_page_counts(r: int) -> Dict[Tuple[int, int], List[int]]:
    """Page-r counts at every position of total degree <= _MAX_TOTAL, one
    per window of the default ladder."""
    return {(p, n - p): windowed_page_counts(r, p, n - p, DEFAULT_LADDER)
            for n in range(_MAX_TOTAL + 1) for p in range(n + 1)}


def check_page_one_dimensions() -> Tuple[bool, str]:
    """The engine's first page matches the cofactor model on every ladder window."""
    bad = []
    positions = 0
    counts = _ladder_page_counts(1)
    for i, w in enumerate(DEFAULT_LADDER):
        for n in range(_MAX_TOTAL + 1):
            for p in range(n + 1):
                q = n - p
                want = len(e1_basis(p, q, w))
                got = counts[p, q][i]
                positions += 1
                if got != want:
                    bad.append(((w.N, w.L), p, q, got, want))
    detail = (f"{positions} window/position pairs, totals <= {_MAX_TOTAL}, "
              f"{len(DEFAULT_LADDER)} windows")
    if bad:
        detail += f"; mismatches {bad[:4]}"
    return not bad, detail


def check_page_one_differential() -> Tuple[bool, str]:
    """The engine's page-one differential equals the closed cofactor formula."""
    bad = []
    ncols = nnz = 0
    for n in range(3, _MAX_TOTAL):
        for p in range(1, n - 1):
            q = n - p
            for k in range(max(-1, n - p_bound(n)), n + 2):
                for c in range(8):
                    fs = pencil_filtered_slice(k, c)
                    if n not in fs.degrees or n + 1 not in fs.degrees:
                        continue
                    src, dst, cols = page_dr_matrix(fs, 1, p, q)
                    if not src.dim:
                        continue
                    for j, x in enumerate(src.rep_polys()):
                        want = class_coords(dst, d1_explicit(x, q))
                        got = list(cols[j]) if dst.dim else []
                        ncols += 1
                        if any(got):
                            nnz += 1
                        if want is None or list(want) != got:
                            bad.append((k, c, p, q, j))
    passed = not bad and nnz > 0
    detail = f"{ncols} page-one columns compared, {nnz} nonzero"
    if bad:
        detail += f"; mismatches {bad[:4]}"
    if nnz == 0:
        detail += "; no nonzero column was exercised"
    return passed, detail


def check_contracting_homotopy() -> Tuple[bool, str]:
    """The weighted homotopy inverts page one away from its singular position."""
    bad = []
    checked = 0
    for p, q, m, ok in _homotopy_identity(Window(3, 2)):
        checked += 1
        if not ok:
            bad.append((p, q, m.format() or "1"))
    try:
        h_op(poly("u1 t0 t2"), 1, 2)
        positional = False
    except HomotopySingularityError:
        positional = True
    try:
        h_op(poly("u t0 t1 t2"), 2, 2)
        weighted = False
    except HomotopySingularityError:
        weighted = True
    passed = not bad and checked > 0 and positional and weighted
    detail = (f"identity on {checked} basis elements; singular position "
              + ("refused" if positional else "NOT refused")
              + "; vanishing weight "
              + ("refused" if weighted else "NOT refused"))
    if bad:
        detail += f"; failures {bad[:4]}"
    return passed, detail


def check_page_two_collapse() -> Tuple[bool, str]:
    """Page two carries only the two surviving families and equals the limit."""
    bad = []
    counts = _ladder_page_counts(2)
    for i, w in enumerate(DEFAULT_LADDER):
        for n in range(_MAX_TOTAL + 1):
            for p in range(n + 1):
                q = n - p
                if (p, q) == (0, 0):
                    want = w.L + 1
                elif (p, q) == (1, 2):
                    want = w.N + 1
                else:
                    want = 0
                got = counts[p, q][i]
                if got != want:
                    bad.append(("window", (w.N, w.L), p, q, got, want))
    pieces = 0
    for k in range(-1, 4):
        for c in range(6):
            fs = pencil_filtered_slice(k, c)
            lo, hi = fs.min_level(), fs.max_level()
            for n in fs.degrees:
                total = sum(page(fs, 2, p, n - p).dim for p in range(lo, hi + 1))
                h = homology_at(fs, n).homology
                pieces += 1
                if total != h:
                    bad.append(("piece", k, c, n, total, h))
    nonzero_d1 = False
    for c in range(1, 4):
        fs = pencil_filtered_slice(1, c)
        _, _, cols = page_dr_matrix(fs, 1, 1, 2)
        if any(any(col) for col in cols):
            nonzero_d1 = True
    passed = not bad and nonzero_d1
    detail = (f"page-two profile over {len(DEFAULT_LADDER)} windows; "
              f"page two equals homology at {pieces} piece degrees; "
              + ("a nonzero page-one differential exists"
                 if nonzero_d1 else "page one never moved (collapse too early)"))
    if bad:
        detail += f"; mismatches {bad[:4]}"
    return passed, detail


# closed forms of the windowed tables to degree 5: each listed spot has
# dimension L + 1 ("L"), N + 1 ("N") or one ("1"); every other spot vanishes
_CLOSED_FORMS = {
    "dlambda_A": ("spaces", {(0, 0): "L", (3, 3): "N"}),
    "dlambda_F": ("functionals", {(0, 0): "L", (2, 3): "N", (3, 3): "N"}),
    "bh_A": ("spaces", {(0, 0): "1", (2, 1): "N", (3, 3): "N"}),
    "bh_F": ("functionals", {(0, 0): "1", (1, 1): "N", (2, 1): "N",
                             (2, 3): "N", (3, 3): "N"}),
}


def _table_mismatches(kinds: Sequence[str]) -> list:
    """Departures of the tables of the given kinds from their closed forms,
    as (presentation, (N, L), {spot: (got, expected)}) over the ladder."""
    bad = []
    for w in DEFAULT_LADDER:
        size = {"L": w.L + 1, "N": w.N + 1, "1": 1}
        for kind in kinds:
            label, spots = _CLOSED_FORMS[kind]
            got = dims_table(kind, w, 5)
            exp = {bd: 0 for bd in got}
            for (p, d), code in spots.items():
                exp[Bidegree(p, d)] = size[code]
            if got != exp:
                diff = {tuple(bd): (got[bd], exp[bd])
                        for bd in got if got[bd] != exp[bd]}
                bad.append((label, (w.N, w.L), diff))
    return bad


def check_pencil_cohomology_tables() -> Tuple[bool, str]:
    """Full pencil cohomology: parameter polynomials at (0,0), one smooth
    family at (3,3) in the space table; (0,0), (2,3), (3,3) in the
    functional table; plus exact convergence of every audited piece."""
    bad = _table_mismatches(("dlambda_A", "dlambda_F"))
    audited = 0
    for k in range(-1, 3):
        for c in range(5):
            fs = pencil_filtered_slice(k, c)
            for n, (total, h, ok) in converge_check(fs).items():
                audited += 1
                if not ok:
                    bad.append(("converge", k, c, n, total, h))
    detail = (f"both tables to degree 5 on {len(DEFAULT_LADDER)} windows; "
              f"limit page equals homology at {audited} piece degrees")
    if bad:
        detail += f"; mismatches {bad[:3]}"
    return not bad, detail


def check_joint_kernel_tables() -> Tuple[bool, str]:
    """Joint-kernel cohomology tables and the explicit density at (1,1)."""
    bad = _table_mismatches(("bh_A", "bh_F"))
    reps = 0
    for c in range(1, 7):
        ph = piece_homology("bh_F", 1, 1, c)
        candidate = DiffPoly.monomial(mono(u0=c - 1, even=((1, 1),), odd=(0,)), F1)
        coords = class_coords(ph, candidate)
        reps += 1
        if ph.dim != 1 or coords != [F1]:
            bad.append(("rep", c, ph.dim, coords))
    detail = (f"both tables to degree 5 on {len(DEFAULT_LADDER)} windows; "
              f"{reps} explicit first-jet densities generate the (1,1) classes")
    if bad:
        detail += f"; mismatches {bad[:3]}"
    return not bad, detail


def check_theory_comparison() -> Tuple[bool, str]:
    """Joint-kernel and pencil dimensions agree away from the four low spots."""
    bad = []
    refused = 0
    for bd in sorted(EXCEPTIONAL_BIDEGREES):
        try:
            compare_bh_vs_lambda(bd.p, bd.d, Window(3, 2))
            bad.append(("missing refusal", tuple(bd)))
        except ExceptionalBidegreeError:
            refused += 1
    forced = compare_bh_vs_lambda(2, 1, Window(3, 2), presentation="A", force=True)
    if forced.equal or forced.bh_dim != 4 or forced.lambda_dim != 0:
        bad.append(("forced", forced.bh_dim, forced.lambda_dim))
    agreements = 0
    for w in (Window(3, 2), Window(5, 4)):
        for presentation in ("A", "F"):
            for d in range(6):
                for p in range(p_bound(d) + 1):
                    if Bidegree(p, d) in EXCEPTIONAL_BIDEGREES:
                        continue
                    r = compare_bh_vs_lambda(p, d, w, presentation)
                    agreements += 1
                    if not r.equal:
                        bad.append(((w.N, w.L), presentation, p, d,
                                    r.bh_dim, r.lambda_dim))
    passed = not bad and refused == len(EXCEPTIONAL_BIDEGREES)
    detail = (f"{agreements} non-exceptional comparisons agree in both "
              f"presentations; {refused} exceptional spots refused; forced "
              f"comparison at (2,1) gives {forced.bh_dim} vs {forced.lambda_dim}")
    if bad:
        detail += f"; mismatches {bad[:4]}"
    return passed, detail


def check_quotient_sequence() -> Tuple[bool, str]:
    """The long sequence linking spaces, functionals and the derivative
    quotient is exact on every audited piece, and its connecting map carries
    the functional (2,3) classes onto the quotient (3,3) classes."""
    bad = []
    audits = 0
    for k in range(-1, 6):
        for c in range(6):
            audit = les_rank_audit(k, c, d_max=5)
            audits += 1
            if not audit.ok:
                bad.append(("audit", k, c))
    connecting = 0
    for c in range(6):
        audit = les_rank_audit(1, c, d_max=5)
        for node in audit.nodes:
            if node.kind == "dlambda_F" and tuple(node.bidegree) == (2, 3):
                connecting += 1
                if node.rank_out != 1:
                    bad.append(("connecting", c, node.rank_out))
    for w in DEFAULT_LADDER:
        f23 = windowed_dim("dlambda_F", 2, 3, w)
        q33 = windowed_dim("dlambda_Q", 3, 3, w)
        a33 = windowed_dim("dlambda_A", 3, 3, w)
        if not (f23 == q33 == a33 == w.N + 1):
            bad.append(("chain", (w.N, w.L), f23, q33, a33))
    passed = not bad and connecting == 6
    detail = (f"{audits} piece audits exact; connecting map has rank one on "
              f"{connecting} functional (2,3) pieces; windowed counts agree "
              f"along the sequence on all {len(DEFAULT_LADDER)} windows")
    if bad:
        detail += f"; mismatches {bad[:4]}"
    return passed, detail


ALL_CHECKS: Tuple[Tuple[str, Callable[[], Tuple[bool, str]]], ...] = (
    ("pencil-identities", check_pencil_identities),
    ("first-structure-cohomology", check_first_structure_cohomology),
    ("page-one-dimensions", check_page_one_dimensions),
    ("page-one-differential", check_page_one_differential),
    ("contracting-homotopy", check_contracting_homotopy),
    ("page-two-collapse", check_page_two_collapse),
    ("pencil-cohomology-tables", check_pencil_cohomology_tables),
    ("joint-kernel-tables", check_joint_kernel_tables),
    ("theory-comparison", check_theory_comparison),
    ("quotient-sequence", check_quotient_sequence),
)


def run_acceptance(names: Optional[Sequence[str]] = None) -> List[CheckResult]:
    """Run the acceptance criteria (all of them by default) and time each."""
    wanted = dict(ALL_CHECKS)
    if names is not None:
        unknown = [n for n in names if n not in wanted]
        if unknown:
            raise ValueError(f"unknown acceptance checks {unknown}")
    results = []
    for name, fn in ALL_CHECKS:
        if names is not None and name not in names:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"unexpected {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail,
                                   time.perf_counter() - start))
    return results


def format_results(results: Sequence[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name} ({r.elapsed:.1f}s): {r.detail}")
    npass = sum(1 for r in results if r.passed)
    verdict = "OK" if npass == len(results) else "FAILED"
    lines.append(f"{verdict}: {npass}/{len(results)} checks passed")
    return "\n".join(lines)
