"""Spectral sequence of a finite filtered cochain complex, exactly.

The engine is agnostic about where the complex comes from: it consumes a
FilteredSlice (consecutive degrees, a monomial basis per degree, a
filtration level per basis vector, the differential as exact matrices) and
computes every page, page differential and the limit by honest linear
algebra over the rationals.  Nothing is windowed or truncated here; a
FilteredSlice is a complete finite complex.

Conventions: the filtration is decreasing, F^p is spanned by the basis
vectors of level >= p, and the differential never lowers the level.  The
page at (p, q) lives in total degree p + q, and its differential moves by
(r, 1 - r).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import Monomial
from .linwin import (
    F0,
    CompositionError,
    HomologyDims,
    OperatorMatrix,
    Row,
    SliceBasis,
    Window,
    dense,
    intersect_with_coordinates,
    nullspace,
    quotient_coordinates,
    quotient_representatives,
    rank_of,
    rref,
    sparse,
    transpose,
    window_reps,
)


@dataclass
class FilteredSlice:
    """One finite filtered complex: bases, levels and differentials by degree.

    degrees must be consecutive.  diffs[n] maps degree n to n + 1; the top
    degree maps into an empty basis, which asserts that the complex really
    stops.  validate() checks the shapes, the filtration axiom and that the
    differential squares to zero, and is run once per instance on first use.
    """

    degrees: Tuple[int, ...]
    bases: Dict[int, SliceBasis]
    levels: Dict[int, Tuple[int, ...]]
    diffs: Dict[int, OperatorMatrix]
    label: str = ""

    def __post_init__(self):
        self._validated = False

    def validate(self) -> None:
        if self._validated:
            return
        for a, b in zip(self.degrees, self.degrees[1:]):
            if b != a + 1:
                raise CompositionError(f"degrees not consecutive in {self.label}")
        for n in self.degrees:
            if len(self.levels[n]) != len(self.bases[n]):
                raise CompositionError(f"level count mismatch at degree {n}")
            d = self.diffs.get(n)
            if d is None:
                continue
            if d.domain.monomials != self.bases[n].monomials:
                raise CompositionError(f"differential domain mismatch at {n}")
            nxt = self.bases.get(n + 1)
            if nxt is not None and d.codomain.monomials != nxt.monomials:
                raise CompositionError(f"differential codomain mismatch at {n}")
            # the differential must not lower the filtration level
            lv_cod = self.levels.get(n + 1, ())
            for j, col in enumerate(d.cols):
                for i, _ in col:
                    if lv_cod and lv_cod[i] < self.levels[n][j]:
                        raise CompositionError(
                            f"level drops along the differential at degree {n}")
        # composites only once every shape is known to match
        for n in self.degrees:
            d, d2 = self.diffs.get(n), self.diffs.get(n + 1)
            if d is not None and d2 is not None:
                for col in d.cols:
                    if d2.apply(col):
                        raise CompositionError(
                            f"differential does not square to zero at degree {n}")
        self._validated = True

    # -- raw access ------------------------------------------------------

    def dim(self, n: int) -> int:
        b = self.bases.get(n)
        return len(b) if b else 0

    def level_indices(self, n: int, p: int) -> List[int]:
        """Coordinate indices of F^p in degree n."""
        lv = self.levels.get(n, ())
        return [i for i, l in enumerate(lv) if l >= p]

    def min_level(self) -> int:
        vals = [l for n in self.degrees for l in self.levels[n]]
        return min(vals) if vals else 0

    def max_level(self) -> int:
        vals = [l for n in self.degrees for l in self.levels[n]]
        return max(vals) if vals else 0

    def span_bound(self) -> int:
        """All page differentials vanish strictly beyond this page index."""
        return self.max_level() - self.min_level() + 1


def z_rows(fs: FilteredSlice, r: int, p: int, n: int) -> List[Row]:
    """Basis rows of Z_r at filtration p, degree n.

    Z_r is the set of vectors of F^p whose differential lands in F^{p+r}.
    """
    fs.validate()
    if n not in fs.bases:
        return []
    idx = fs.level_indices(n, p)
    if not idx:
        return []
    d = fs.diffs.get(n)
    band = []   # the columns at idx, cut to the codomain levels [p, p+r)
    if d is not None and len(d.codomain):
        if not fs.bases.get(n + 1):
            # nonzero outgoing differential but the next degree is not part
            # of the slice: a truncated complex ends here and its top page
            # spaces are not computable, only the lower degrees are
            raise ValueError(
                f"degree {n} is a truncation boundary of {fs.label}")
        lv_cod = fs.levels[n + 1]
        # rows strictly below level p vanish on F^p columns by the validated
        # filtration axiom, so only the band [p, p+r) constrains anything
        band = [tuple((i, x) for i, x in d.cols[j] if p <= lv_cod[i] < p + r)
                for j in idx]
    kern = nullspace(transpose(band), len(idx))
    return [tuple((idx[k], x) for k, x in v) for v in kern]


def b_rows(fs: FilteredSlice, r: int, p: int, n: int) -> List[Row]:
    """Basis rows of d(F^{p-r} in degree n-1) intersected with F^p."""
    fs.validate()
    if n not in fs.bases:
        return []
    d = fs.diffs.get(n - 1)
    if d is None:
        return []
    inside = []   # generators from domain level >= p land in F^p outright
    crossing = []
    lv_dom = fs.levels[n - 1]
    for j, col in enumerate(d.cols):
        if lv_dom[j] >= p - r and col:
            (inside if lv_dom[j] >= p else crossing).append(col)
    if crossing:
        inside += intersect_with_coordinates(
            crossing, set(fs.level_indices(n, p)))
    red, _ = rref(inside)
    return red


@dataclass(frozen=True)
class PageEntry:
    """One spectral sequence entry with a deterministic transversal.

    Entries are cached and shared, so every field is immutable.
    """

    r: int
    p: int
    q: int
    dim: int
    reps: Tuple[Tuple[Tuple[Fraction, ...], Optional[Monomial]], ...]
    cocycle_rows: Tuple[Tuple[Fraction, ...], ...]
    relation_rows: Tuple[Tuple[Fraction, ...], ...]
    basis: Optional[SliceBasis]

    def window_count(self, w: Window) -> int:
        return len(window_reps(self.basis, self.reps, w))

    def rep_polys(self):
        return [self.basis.poly_of(vec) for vec, _ in self.reps]


def page(fs: FilteredSlice, r: int, p: int, q: int) -> PageEntry:
    """The page entry E_r at (p, q) with canonical representatives."""
    fs.validate()
    n = p + q
    basis = fs.bases.get(n)
    if basis is None or not basis.monomials:
        return PageEntry(r, p, q, 0, (), (), (), basis)
    z = z_rows(fs, r, p, n)
    rel = b_rows(fs, r - 1, p, n) + z_rows(fs, r - 1, p + 1, n)
    red_rel, _ = rref(rel)
    reps = quotient_representatives(basis, z, red_rel)
    dim = len(basis)
    return PageEntry(r, p, q, len(reps),
                     tuple((tuple(dense(v, dim)), m) for v, m in reps),
                     tuple(tuple(dense(v, dim)) for v in z),
                     tuple(tuple(dense(v, dim)) for v in red_rel), basis)


def page_dr_matrix(fs: FilteredSlice, r: int, p: int, q: int):
    """Matrix of d_r from (p, q) to (p + r, q - r + 1) in page coordinates.

    Columns follow the canonical representatives of the source entry; rows
    follow those of the target.  Raises if an image fails to land in the
    target presentation, which would mean the page spaces are wrong.
    """
    fs.validate()
    src = page(fs, r, p, q)
    dst = page(fs, r, p + r, q - r + 1)
    n = p + q
    cols = []
    d = fs.diffs.get(n)
    reps = [sparse(v) for v, _ in dst.reps]
    relations = [sparse(v) for v in dst.relation_rows]
    for vec, _ in src.reps:
        w = d.apply(sparse(vec)) if d is not None else ()
        if not w:
            cols.append([F0] * dst.dim)
            continue
        x = quotient_coordinates(reps, relations, w)
        if x is None:
            raise CompositionError(
                f"page image escapes the target at r={r} (p,q)=({p},{q})")
        cols.append(x)
    return src, dst, cols


def dr_is_zero(fs: FilteredSlice, r: int) -> bool:
    """Whether the page-r differential vanishes everywhere."""
    fs.validate()
    lo, hi = fs.min_level(), fs.max_level()
    for n in fs.degrees:
        for p in range(lo, hi + 1):
            _, _, cols = page_dr_matrix(fs, r, p, n - p)
            for col in cols:
                if any(col):
                    return False
    return True


def collapse_at(fs: FilteredSlice) -> int:
    """Smallest r such that every page differential from r on vanishes."""
    fs.validate()
    bound = fs.span_bound()
    flags = [dr_is_zero(fs, r) for r in range(bound + 1)]
    for r in range(bound + 1):
        if all(flags[r:]):
            return r
    return bound + 1


def limit_page(fs: FilteredSlice, p: int, q: int) -> PageEntry:
    """The stable entry: pages stop moving beyond the span bound."""
    return page(fs, fs.span_bound() + 1, p, q)


def homology_at(fs: FilteredSlice, n: int) -> HomologyDims:
    """Exact kernel/image/homology dimensions of the complex at degree n."""
    fs.validate()
    if n not in fs.bases:
        return HomologyDims(0, 0, 0)
    d_out = fs.diffs.get(n)
    ker = fs.dim(n) - (rank_of(d_out.cols) if d_out else 0)
    d_in = fs.diffs.get(n - 1)
    img = rank_of(d_in.cols) if d_in else 0
    return HomologyDims(ker, img, ker - img)


def converge_check(fs: FilteredSlice) -> Dict[int, Tuple[int, int, bool]]:
    """Compare the limit page with the homology, degree by degree.

    For each total degree the sum over filtration levels of the stable page
    dimensions must equal the exact homology dimension; the filtration of a
    finite complex always converges, so a mismatch means an engine bug.
    """
    fs.validate()
    out = {}
    lo, hi = fs.min_level(), fs.max_level()
    for n in fs.degrees:
        total = sum(limit_page(fs, p, n - p).dim for p in range(lo, hi + 1))
        _, _, h = homology_at(fs, n)
        out[n] = (total, h, total == h)
    return out
