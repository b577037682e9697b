"""Spectral sequence of a finite filtered cochain complex, exactly.

The engine is agnostic about where the complex comes from: it consumes a
FilteredSlice (consecutive degrees, a monomial basis per degree, a
filtration level per basis vector, the differential as exact matrices) and
computes every page, page differential and the limit by honest linear
algebra over the rationals.  Nothing is windowed here.  A FilteredSlice
is a complete finite complex, or one cut off above: then its top degree
keeps its basis and levels but no differential, and every reader of that
degree raises, while the pages of every degree below it are exact (E_r at
degree n reads only degrees n - 1, n and n + 1).

Conventions: the filtration is decreasing, F^p is spanned by the basis
vectors of level >= p, and the differential never lowers the level.  The
page at (p, q) lives in total degree p + q, and its differential moves by
(r, 1 - r).

A FilteredSlice is a frozen value, validated when it is built, so no
function here checks it again.  Every page dimension, the vanishing of
every page differential and the limit page are read off one
filtration-ordered pairing per slice, a cached property of the slice, as
persistent homology reads the spectral sequence of a filtered complex off
a single reduction (Edelsbrunner, Letscher and Zomorodian 2002; Basu and
Parida 2017).  A column has entries only one degree up, so that reduction
splits by degree: each differential's pairs, like its filtration check
and its composite with the next differential, are computed once per
matrix and levels, kept in a store keyed weakly by the matrix itself, and
shared by every slice holding them, as the cuts of one pencil piece do.
Z_r goes to the transversal as the Kernel of z_cols, and B_{r-1} and
Z_{r-1} are spanned only where a relation is read; a page whose
representatives do not number its dimension raises.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

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


class _DegreeWork:
    """The checks and the pairs of one differential d between fixed levels.

    A pencil piece differential is one cached OperatorMatrix, held with the
    same level tuples by every cut of its piece, so what a slice derives
    from d alone is done once and shared: the filtration axiom (checked
    when the work is made), the persistence pairs of its columns (on first
    use) and the vanishing of the composite with a next differential (the
    one d2 it was last checked with).  The store keys the work by d itself,
    weakly: _degree_work hands it out only between equal levels, a
    composite counts only for the very d2, and the work goes with d.  So a
    slice built by hand is checked as fully as before.
    """

    __slots__ = ("levels", "squares_with", "_pairs")

    def __init__(self, d: OperatorMatrix, lv_dom: Tuple[int, ...],
                 lv_cod: Tuple[int, ...], n: int):
        # the differential must not lower the filtration level
        for j, col in enumerate(d.cols):
            for i, _ in col:
                if lv_cod[i] < lv_dom[j]:
                    raise CompositionError(
                        f"level drops along the differential at degree {n}")
        self.levels = (lv_dom, lv_cod)
        self.squares_with: Optional[OperatorMatrix] = None
        self._pairs: Optional[Pairs] = None

    def check_square(self, d: OperatorMatrix, d2: OperatorMatrix, n: int) -> None:
        """Raise unless d2 after d is zero, computed exactly in integer
        arithmetic (OperatorMatrix.apply_all) unless checked for this d2."""
        if self.squares_with is not d2:
            if any(d2.apply_all(d.cols)):
                raise CompositionError(
                    f"differential does not square to zero at degree {n}")
            self.squares_with = d2

    def pairs(self, d: OperatorMatrix, below: Pairs) -> Pairs:
        """The columns of d that add a pivot and the codomain vectors whose
        pivots they add; below holds the pairs of the differential into the
        domain of d, in the same slice.

        The codomain vectors are numbered by (level, index), so the pivot
        of a reduced column (its first nonzero entry) is its lowest-level
        entry, and the columns go into one Echelon by (level, index) from
        the highest down.  A vector paired below never adds a pivot: its
        column lies in the span of the columns numbered after it, since d
        after d is zero.  So those columns are left out (the clearing of
        Chen and Kerber 2011), and the pairs are the same as with them.
        """
        if self._pairs is None:
            lv_dom, lv_cod = self.levels
            cod_order = sorted(range(len(lv_cod)), key=lv_cod.__getitem__)
            rank = [0] * len(lv_cod)
            for k, j in enumerate(cod_order):
                rank[j] = k
            cleared = set(below[1])
            cols = [i for i in sorted(range(len(lv_dom)), key=lv_dom.__getitem__)[::-1]
                    if i not in cleared and d.cols[i]]
            added = added_pivots(tuple(sorted((rank[j], x) for j, x in d.cols[i]))
                                 for i in cols)
            paired = [(i, cod_order[pc]) for i, pc in zip(cols, added) if pc is not None]
            self._pairs = (tuple(i for i, _ in paired), tuple(j for _, j in paired))
        return self._pairs


# each differential's work, dropped when the matrix is collected
_WORK: weakref.WeakKeyDictionary[OperatorMatrix, _DegreeWork] = weakref.WeakKeyDictionary()


def _degree_work(d: OperatorMatrix, lv_dom: Tuple[int, ...], lv_cod: Tuple[int, ...],
                 n: int) -> _DegreeWork:
    """The shared work of d between the levels lv_dom and lv_cod, made
    (its level check run) when d is new or last came with other levels."""
    work = _WORK.get(d)
    if work is None or work.levels != (lv_dom, lv_cod):
        work = _WORK[d] = _DegreeWork(d, lv_dom, lv_cod, n)
    return work


@dataclass(frozen=True)
class FilteredSlice:
    """One finite filtered complex: bases, levels and differentials by degree.

    degrees must be consecutive.  diffs[n] maps degree n to n + 1; where
    n + 1 is not in the slice it maps into an empty basis, which asserts
    that the complex really stops there.  A slice cut off above says so
    with cut, and its top degree holds no differential.  A slice is frozen:
    bases, levels and diffs are read-only mappings over copies of what the
    constructor got, and the constructor runs validate(), so an invalid
    slice cannot be built.  validate() checks the shapes, the filtration
    axiom and that the differential squares to zero, every composite d
    after d computed exactly in integer arithmetic (OperatorMatrix.apply_all);
    the last two are done once per differential (_DegreeWork, keyed by the
    matrix object) for all the slices that hold it between the same levels.
    The pairing behind every page dimension is a cached property, merged on
    first use from the pairs of each differential.
    """

    degrees: Tuple[int, ...]
    bases: Mapping[int, SliceBasis]
    levels: Mapping[int, Tuple[int, ...]]
    diffs: Mapping[int, OperatorMatrix]
    label: str = ""
    cut: bool = False

    def __post_init__(self):
        for name in ("bases", "diffs"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        # tuple() returns a tuple as it is, so the level tuples of a piece
        # stay shared between its cuts, and copies anything else
        object.__setattr__(self, "levels", MappingProxyType(
            {n: tuple(lv) for n, lv in self.levels.items()}))
        self.validate()

    def validate(self) -> None:
        for a, b in zip(self.degrees, self.degrees[1:]):
            if b != a + 1:
                raise CompositionError(f"degrees not consecutive in {self.label}")
        for n in self.degrees:
            if len(self.levels[n]) != len(self.bases[n]):
                raise CompositionError(f"level count mismatch at degree {n}")
        work = {}
        for n in self.degrees:
            d = self.diffs.get(n)
            if d is None:
                continue
            if d.domain.monomials != self.bases[n].monomials:
                raise CompositionError(f"differential domain mismatch at {n}")
            nxt = self.bases.get(n + 1)
            if (nxt is None and len(d.codomain)) or self.leaves_slice(n):
                raise CompositionError(f"differential leaves the slice at degree {n}")
            if nxt is not None and d.codomain.monomials != nxt.monomials:
                raise CompositionError(f"differential codomain mismatch at {n}")
            work[n] = self._work(n)
        # composites only once every shape is known to match
        for n, w in work.items():
            d2 = self.diffs.get(n + 1)
            if d2 is not None:
                w.check_square(self.diffs[n], d2, n)

    def _work(self, n: int) -> "_DegreeWork":
        return _degree_work(self.diffs[n], self.levels[n], self.levels.get(n + 1, ()), n)

    @cached_property
    def _pairing(self) -> Mapping[Tuple[int, int], Tuple[Optional[int], ...]]:
        """The persistence pairing of the slice, by (degree, level), read-only.

        Each basis vector contributes the gap of its pair, the level
        difference of the two vectors, or None when it is unpaired; the gaps
        at one (degree, level) follow the basis order.  A column has entries
        only one degree up, so the pairing is the union of the pairs of each
        differential (_DegreeWork.pairs), taken by increasing degree, and
        each differential is paired once however many slices hold it.  The
        cut top of a slice has no columns, so the pairing of that degree is
        incomplete.
        """
        gaps = {n: [None] * len(self.levels[n]) for n in self.degrees}
        pairs: Pairs = ((), ())
        for n in self.degrees:
            if n not in self.diffs:
                pairs = ((), ())
                continue
            lv, lv_up = self.levels[n], self.levels.get(n + 1, ())
            pairs = self._work(n).pairs(self.diffs[n], pairs)
            out, up = gaps[n], gaps.get(n + 1)
            for i, j in zip(*pairs):
                out[i] = up[j] = lv_up[j] - lv[i]
        by_level: Dict[Tuple[int, int], List[Optional[int]]] = {}
        for n in self.degrees:
            for lv, gap in zip(self.levels[n], gaps[n]):
                by_level.setdefault((n, lv), []).append(gap)
        return MappingProxyType({key: tuple(gs) for key, gs in by_level.items()})

    def leaves_slice(self, n: int) -> bool:
        """Whether n is the cut top of the slice, whose differential is not
        held: its page spaces and homology are not computable, those of
        every lower degree are."""
        return self.cut and self.degrees[-1:] == (n,)

    def require_inside(self, degrees: Iterable[int]) -> None:
        """Raise ValueError at the cut top of the slice."""
        for n in degrees:
            if self.leaves_slice(n):
                raise ValueError(f"degree {n} is a truncation boundary of {self.label}")

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


def z_cols(fs: FilteredSlice, r: int, p: int, n: int) -> List[Row]:
    """Columns of the map whose kernel is Z_r at filtration p, degree n,
    the vectors of F^p whose differential lands in F^{p+r}: at level >= p
    the band [p, p+r) of d (rows below p vanish there by the filtration
    axiom), below p a unit entry in a row m + j past the m codomain rows,
    which pins coordinate j to zero."""
    d = fs.diffs.get(n)
    m = len(d.codomain) if d is not None else 0
    levels = fs.levels.get(n, ())
    if any(lv >= p for lv in levels):
        fs.require_inside([n])
    lv_cod = fs.levels.get(n + 1, ())
    return [((m + j, F1),) if lv < p
            else tuple((i, x) for i, x in d.cols[j] if p <= lv_cod[i] < p + r) if m
            else ()
            for j, lv in enumerate(levels)]


def z_rows(fs: FilteredSlice, r: int, p: int, n: int) -> List[Row]:
    """Basis rows of Z_r at filtration p, degree n: the nullspace of the
    z_cols of F^p, the pinned columns left out rather than eliminated."""
    cols, idx = z_cols(fs, r, p, n), fs.level_indices(n, p)
    kern = nullspace(transpose([cols[j] for j in idx]), len(idx))
    return [tuple((idx[k], x) for k, x in v) for v in kern]


def b_rows(fs: FilteredSlice, r: int, p: int, n: int) -> List[Row]:
    """Reduced basis rows of d(F^{p-r} in degree n-1) intersected with F^p."""
    if n not in fs.bases:
        return []
    d = fs.diffs.get(n - 1)
    if d is None:
        return []
    lv_dom = fs.levels[n - 1]
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

    The dimension is read off the pairing; the representatives are chosen
    from the spans, which must yield exactly that many.
    """
    n = p + q
    basis = fs.bases.get(n)
    if basis is None or not basis.monomials:
        return PageEntry(r, p, q, 0, (), basis)
    if fs.leaves_slice(n) and fs.level_indices(n, p):
        fs.require_inside([n])
    dim = sum(g is None or g >= r for g in fs._pairing.get((n, p), ()))
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
    d = fs.diffs.get(p + q)
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
    fs.require_inside(fs.degrees)
    return 1 + max((g for gs in fs._pairing.values() for g in gs if g is not None),
                   default=-1)


def homology_at(fs: FilteredSlice, n: int) -> HomologyDims:
    """Exact kernel/image/homology dimensions of the complex at degree n."""
    fs.require_inside([n])
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
    fs.require_inside(fs.degrees)
    pairing = fs._pairing
    out = {}
    for n in fs.degrees:
        # the limit page is spanned by the unpaired vectors
        total = sum(g is None for (m, _), gs in pairing.items() if m == n for g in gs)
        _, _, h = homology_at(fs, n)
        out[n] = (total, h, total == h)
    return out
