"""Spectral sequence of a finite filtered cochain complex, exactly.

The engine is agnostic about where the complex comes from: it consumes a
FilteredSlice (consecutive degrees, a monomial basis per degree, a
filtration level per basis vector, the differential as exact matrices) and
computes every page, page differential and the limit by honest linear
algebra over the rationals.  Nothing is windowed here.  A FilteredSlice
builds each degree when a reader first needs it, so a page at degree n,
which reads only degrees n - 1, n and n + 1, builds nothing above n + 1.

Conventions: the filtration is decreasing, F^p is spanned by the basis
vectors of level >= p, and the differential never lowers the level.  The
page at (p, q) lives in total degree p + q, and its differential moves by
(r, 1 - r).

A FilteredSlice checks each differential when it builds it, before any
reader sees it, so no function here checks it again.  Every page
dimension, the vanishing of every page differential and the limit page
are read off one filtration-ordered pairing, as persistent homology reads
the spectral sequence of a filtered complex off a single reduction
(Edelsbrunner, Letscher and Zomorodian 2002; Basu and Parida 2017).  A
column has entries only one degree up, so that reduction splits by
degree: the slice pairs each differential once and keeps the pairs.
Z_r goes to the transversal as the Kernel of z_cols, and B_{r-1} and
Z_{r-1} are spanned only where a relation is read; a page whose
representatives do not number its dimension raises.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .linwin import (
    CompositionError,
    F1,
    HomologyDims,
    Kernel,
    OperatorMatrix,
    PublishedReps,
    Row,
    SliceBasis,
    Window,
    added_pivots,
    intersect_with_coordinates,
    nullspace,
    publish_reps,
    quotient_representatives,
    rank_of,
    rep_coordinates,
    rep_rows,
    transpose,
    window_reps,
)


# the columns of a differential that add a pivot, and the codomain vectors
# whose pivots they add, in two aligned tuples
Pairs = Tuple[Tuple[int, ...], Tuple[int, ...]]


class FilteredSlice:
    """One finite filtered complex, each degree built when it is first read.

    degrees must be consecutive.  piece(n) gives the basis of degree n and
    the filtration level of each basis vector; diff(n) gives the matrix of
    the differential from degree n to n + 1, or None for the zero map.  At
    the top degree the differential maps into an empty basis, which asserts
    that the complex really stops there.  Each degree is read once and
    kept.  The differential out of n is built after the one out of n - 1
    and checked as it is built: its domain and codomain are the bases of n
    and n + 1, it never lowers the level, and its composite with the
    differential below it vanishes, computed exactly in integer arithmetic
    (OperatorMatrix.apply_all).  A check that fails raises on every read
    that reaches it.  A slice is frozen: degrees and label cannot be
    reassigned, and levels are tuples.
    """

    __slots__ = ("degrees", "label", "_piece", "_make_diff", "_read", "_diffs",
                 "_pairs", "_gaps")

    def __init__(self, degrees: Sequence[int],
                 piece: Callable[[int], Tuple[SliceBasis, Sequence[int]]],
                 diff: Callable[[int], Optional[OperatorMatrix]], label: str = ""):
        degrees = tuple(degrees)
        for a, b in zip(degrees, degrees[1:]):
            if b != a + 1:
                raise CompositionError(f"degrees not consecutive in {label}")
        for name, value in (("degrees", degrees), ("label", label), ("_piece", piece),
                            ("_make_diff", diff), ("_read", {}), ("_diffs", {}),
                            ("_pairs", {}), ("_gaps", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _degree(self, n: int) -> Tuple[Optional[SliceBasis], Tuple[int, ...]]:
        """The basis and levels of degree n, read once; (None, ()) off the slice."""
        got = self._read.get(n)
        if got is None:
            if n not in self.degrees:
                return None, ()
            basis, levels = self._piece(n)
            if len(levels) != len(basis):
                raise CompositionError(f"level count mismatch at degree {n}")
            got = self._read[n] = (basis, tuple(levels))
        return got

    def basis(self, n: int) -> Optional[SliceBasis]:
        return self._degree(n)[0]

    def levels(self, n: int) -> Tuple[int, ...]:
        return self._degree(n)[1]

    def diff(self, n: int) -> Optional[OperatorMatrix]:
        """The differential out of degree n, built and checked on first
        read; None for the zero map and off the slice."""
        if n in self._diffs:
            return self._diffs[n]
        if n not in self.degrees:
            return None
        below = self.diff(n - 1)
        d = self._make_diff(n)
        if d is not None:
            basis, lv = self._degree(n)
            up, lv_up = self._degree(n + 1)
            if d.domain.monomials != basis.monomials:
                raise CompositionError(f"differential domain mismatch at {n}")
            if up is None and len(d.codomain):
                raise CompositionError(f"differential leaves the slice at degree {n}")
            if up is not None and d.codomain.monomials != up.monomials:
                raise CompositionError(f"differential codomain mismatch at {n}")
            for j, col in enumerate(d.cols):
                for i, _ in col:
                    if lv_up[i] < lv[j]:
                        raise CompositionError(
                            f"level drops along the differential at degree {n}")
            if below is not None and any(d.apply_all(below.cols)):
                raise CompositionError(
                    f"differential does not square to zero at degree {n - 1}")
        self._diffs[n] = d
        return d

    def pairs(self, n: int) -> Pairs:
        """The columns of the differential out of n that add a pivot and the
        codomain vectors whose pivots they add, computed once.

        The codomain vectors are numbered by (level, index), so the pivot
        of a reduced column (its first nonzero entry) is its lowest-level
        entry, and the columns go into one Echelon by (level, index) from
        the highest down.  A vector paired by the differential below never
        adds a pivot: its column lies in the span of the columns numbered
        after it, since d after d is zero.  So those columns are left out
        (the clearing of Chen and Kerber 2011), and the pairs are the same
        as with them.
        """
        got = self._pairs.get(n)
        if got is None:
            d = self.diff(n)
            if d is None:
                return (), ()
            lv_dom, lv_cod = self.levels(n), self.levels(n + 1)
            cod_order = sorted(range(len(lv_cod)), key=lv_cod.__getitem__)
            rank = [0] * len(lv_cod)
            for k, j in enumerate(cod_order):
                rank[j] = k
            cleared = set(self.pairs(n - 1)[1])
            cols = [i for i in sorted(range(len(lv_dom)), key=lv_dom.__getitem__)[::-1]
                    if i not in cleared and d.cols[i]]
            added = added_pivots(tuple(sorted((rank[j], x) for j, x in d.cols[i]))
                                 for i in cols)
            paired = [(i, cod_order[pc]) for i, pc in zip(cols, added) if pc is not None]
            got = self._pairs[n] = (tuple(i for i, _ in paired), tuple(j for _, j in paired))
        return got

    def gaps(self, n: int, p: int) -> Tuple[Optional[int], ...]:
        """The gaps of the basis vectors of degree n at level p, in basis
        order: the level difference of a vector and its pair, or None when
        it is unpaired.  The gaps of every level of n are kept together."""
        by_level = self._gaps.get(n)
        if by_level is None:
            lv = self.levels(n)
            gaps: List[Optional[int]] = [None] * len(lv)
            lv_up = self.levels(n + 1)
            for i, j in zip(*self.pairs(n)):
                gaps[i] = lv_up[j] - lv[i]
            lv_down = self.levels(n - 1)
            for i, j in zip(*self.pairs(n - 1)):
                gaps[j] = lv[j] - lv_down[i]
            grouped: Dict[int, List[Optional[int]]] = {}
            for level, gap in zip(lv, gaps):
                grouped.setdefault(level, []).append(gap)
            by_level = self._gaps[n] = {level: tuple(gs) for level, gs in grouped.items()}
        return by_level.get(p, ())

    # -- raw access ------------------------------------------------------

    def dim(self, n: int) -> int:
        b = self.basis(n)
        return len(b) if b else 0

    def level_indices(self, n: int, p: int) -> List[int]:
        """Coordinate indices of F^p in degree n."""
        return [i for i, l in enumerate(self.levels(n)) if l >= p]

    def min_level(self) -> int:
        vals = [l for n in self.degrees for l in self.levels(n)]
        return min(vals) if vals else 0

    def max_level(self) -> int:
        vals = [l for n in self.degrees for l in self.levels(n)]
        return max(vals) if vals else 0


def z_cols(fs: FilteredSlice, r: int, p: int, n: int) -> List[Row]:
    """Columns of the map whose kernel is Z_r at filtration p, degree n,
    the vectors of F^p whose differential lands in F^{p+r}: at level >= p
    the band [p, p+r) of d (rows below p vanish there by the filtration
    axiom), below p a unit entry in a row m + j past the m codomain rows,
    which pins coordinate j to zero."""
    d = fs.diff(n)
    m = len(d.codomain) if d is not None else 0
    lv_cod = fs.levels(n + 1)
    return [((m + j, F1),) if lv < p
            else tuple((i, x) for i, x in d.cols[j] if p <= lv_cod[i] < p + r) if m
            else ()
            for j, lv in enumerate(fs.levels(n))]


def z_rows(fs: FilteredSlice, r: int, p: int, n: int) -> List[Row]:
    """Basis rows of Z_r at filtration p, degree n: the nullspace of the
    z_cols of F^p, the pinned columns left out rather than eliminated."""
    cols, idx = z_cols(fs, r, p, n), fs.level_indices(n, p)
    kern = nullspace(transpose([cols[j] for j in idx]), len(idx))
    return [tuple((idx[k], x) for k, x in v) for v in kern]


def b_rows(fs: FilteredSlice, r: int, p: int, n: int) -> List[Row]:
    """Reduced basis rows of d(F^{p-r} in degree n-1) intersected with F^p."""
    if fs.basis(n) is None:
        return []
    d = fs.diff(n - 1)
    if d is None:
        return []
    lv_dom = fs.levels(n - 1)
    return intersect_with_coordinates(
        [col for j, col in enumerate(d.cols) if lv_dom[j] >= p - r],
        fs.level_indices(n, p))


def _relation_rows(fs: FilteredSlice, r: int, p: int, n: int) -> List[Row]:
    """Rows spanning B_{r-1} + Z_{r-1} at p + 1, what E_r at p is taken
    modulo; quotient_representatives reduces them."""
    return b_rows(fs, r - 1, p, n) + z_rows(fs, r - 1, p + 1, n)


@dataclass(frozen=True)
class PageEntry:
    """One spectral sequence entry with a deterministic transversal.

    Entries are shared, so every field is immutable.  relation_rows, Rows
    spanning what the representatives are taken modulo (not reduced), is
    built on first read.
    """

    r: int
    p: int
    q: int
    dim: int
    reps: PublishedReps
    basis: Optional[SliceBasis]
    source: Optional[FilteredSlice] = field(default=None, repr=False, compare=False)

    @cached_property
    def relation_rows(self) -> Tuple[Row, ...]:
        if not self.basis:
            return ()
        return tuple(_relation_rows(self.source, self.r, self.p, self.p + self.q))

    def window_count(self, w: Window) -> int:
        return len(window_reps(self.basis, self.reps, w))

    def rep_polys(self):
        return [self.basis.poly_of(vec) for vec, _ in self.reps]


def page(fs: FilteredSlice, r: int, p: int, q: int) -> PageEntry:
    """The page entry E_r at (p, q) with canonical representatives.

    The dimension is read off the gaps; the representatives are chosen
    from the spans, which must yield exactly that many.
    """
    n = p + q
    basis = fs.basis(n)
    if basis is None or not basis.monomials:
        return PageEntry(r, p, q, 0, (), basis)
    dim = sum(g is None or g >= r for g in fs.gaps(n, p))
    if not dim:
        return PageEntry(r, p, q, 0, (), basis, fs)
    reps = quotient_representatives(basis, Kernel(z_cols(fs, r, p, n)),
                                    _relation_rows(fs, r, p, n))
    if len(reps) != dim:
        raise CompositionError(
            f"{len(reps)} representatives for a page of dimension {dim} "
            f"at r={r} (p,q)=({p},{q}) of {fs.label}")
    return PageEntry(r, p, q, dim, publish_reps(basis, reps), basis, fs)


def page_dr_matrix(fs: FilteredSlice, r: int, p: int, q: int):
    """Matrix of d_r from (p, q) to (p + r, q - r + 1) in page coordinates.

    Columns follow the canonical representatives of the source entry; rows
    follow those of the target.  Raises if an image fails to land in the
    target presentation, which would mean the page spaces are wrong.
    """
    src = page(fs, r, p, q)
    dst = page(fs, r, p + r, q - r + 1)
    if not src.dim:
        return src, dst, []
    d = fs.diff(p + q)
    images = d.apply_all(rep_rows(src.reps)) if d is not None else [()] * src.dim
    cols = rep_coordinates(dst.reps, dst.relation_rows, images)
    if cols is None:
        raise CompositionError(
            f"page image escapes the target at r={r} (p,q)=({p},{q})")
    return src, dst, cols


def collapse_at(fs: FilteredSlice) -> int:
    """Smallest r such that every page differential from r on vanishes.

    d_r is nonzero exactly where a pair of the slice has gap r.
    """
    return 1 + max((fs.levels(n + 1)[j] - fs.levels(n)[i]
                    for n in fs.degrees for i, j in zip(*fs.pairs(n))), default=-1)


def homology_at(fs: FilteredSlice, n: int) -> HomologyDims:
    """Exact kernel/image/homology dimensions of the complex at degree n."""
    if fs.basis(n) is None:
        return HomologyDims(0, 0, 0)
    d_out = fs.diff(n)
    ker = fs.dim(n) - (rank_of(d_out.cols) if d_out else 0)
    d_in = fs.diff(n - 1)
    img = rank_of(d_in.cols) if d_in else 0
    return HomologyDims(ker, img, ker - img)


def converge_check(fs: FilteredSlice) -> Dict[int, Tuple[int, int, bool]]:
    """Compare the limit page with the homology, degree by degree.

    For each total degree the sum over filtration levels of the stable page
    dimensions must equal the exact homology dimension; the filtration of a
    finite complex always converges, so a mismatch means an engine bug.
    """
    out = {}
    for n in fs.degrees:
        # the limit page is spanned by the unpaired vectors
        total = fs.dim(n) - len(fs.pairs(n)[0]) - len(fs.pairs(n - 1)[1])
        _, _, h = homology_at(fs, n)
        out[n] = (total, h, total == h)
    return out
