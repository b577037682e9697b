"""Finite slices of the jet superalgebra and exact linear algebra on them.

A slice is the span of all monomials of a fixed bidegree subject to bounds:
either a reporting window (u-power <= N, l-power <= L, jets unconstrained)
or a fixed even-factor count (ucount), which cuts out a genuinely finite
piece preserved by the pencil differentials.

Vectors over a slice basis are Rows: tuples of (column, nonzero Fraction)
pairs in increasing column order, from the columns of an OperatorMatrix to
the rows of an echelon form.  Every elimination runs through one kernel,
the Echelon class: a span kept in row echelon form, pivoting on the first
nonzero column in the canonical monomial order, and fully reduced only
when its rows are read.  Inside it the arithmetic is on Python ints only:
each stored row is a primitive integer row (gcd 1, positive pivot entry),
zero on the pivots of the rows stored before it and never rewritten, and
rows are combined fraction-free by cross-multiplication.
Fractions appear only where Rows go in (scaled once by the lcm of their
denominators; an entry that is not an int or a Fraction raises TypeError)
and come out (divided by the pivot entry, or by the scale of a remainder).
rref, reduce_against, in_span, nullspace and intersect_with_coordinates
take and return Rows, rank_of and added_pivots take Rows; all of them, and
a Kernel (the space a map cuts out, which quotient_representatives takes),
are thin views of it.  Every coordinate is one exact solve,
quotient_coordinates (solve is its one-vector case).  Matrix products run
on ints the same way: OperatorMatrix.apply_all scales the columns it reads
once per call and builds a Fraction only for a nonzero entry of an image,
which is how composites (d after d, say) are formed.
SliceBasis.vector_of gives the Row of a polynomial.  Published
representatives are dense tuples, written and read back only here.  The
reduced form of a span is unique, so every result is canonical; no
floating point, no probabilistic shortcuts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import Bidegree, DiffPoly, Monomial, _integers

F0 = Fraction(0)
F1 = Fraction(1)


class WindowOverflowError(ValueError):
    """An operator image left the codomain slice it was assembled against."""


class CompositionError(ValueError):
    """Two matrices were combined along mismatched slice bases."""


class Window(NamedTuple):
    """Reporting window: max u-power N and max l-power L of coefficients."""

    N: int
    L: int


# strictly increasing in the componentwise order; covers enough spread in
# both N and L to separate constant, linear and affine growth exactly
DEFAULT_LADDER = (Window(2, 2), Window(3, 2), Window(4, 2),
                  Window(5, 2), Window(5, 3), Window(5, 4))


def window_leq(a: Window, b: Window) -> bool:
    return a.N <= b.N and a.L <= b.L


@dataclass(frozen=True)
class SliceBasis:
    """Ordered monomial basis of one slice.

    window is None for pieces cut out by an even-factor count instead of a
    reporting window; label then records the cut.  A basis is frozen and
    its monomial index is read-only, because piece bases are cached and
    shared (enumerate_piece_basis).
    """

    bidegree: Bidegree
    window: Optional[Window]
    monomials: Tuple[Monomial, ...]
    label: str = ""
    _index: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", MappingProxyType(
            {m: i for i, m in enumerate(self.monomials)}))

    def __len__(self) -> int:
        return len(self.monomials)

    def index_of(self, m: Monomial) -> int:
        try:
            return self._index[m]
        except KeyError:
            p, d = self.bidegree
            tag = self.label or (f"window {self.window}" if self.window else "")
            where = f"(p={p}, d={d}) {tag}".strip()
            raise WindowOverflowError(
                f"monomial {m.format() or '1'} not in slice {where}") from None

    def vector_of(self, a: DiffPoly) -> Row:
        """The Row of a polynomial; a monomial outside the slice raises."""
        return tuple(sorted((self.index_of(m), c) for m, c in a.terms.items()))

    def poly_of(self, vec: Sequence[Fraction]) -> DiffPoly:
        return DiffPoly({m: c for m, c in zip(self.monomials, vec) if c})


def window_reps(basis: SliceBasis, reps, w: Window
                ) -> List[Tuple[Sequence[Fraction], Optional[Monomial]]]:
    """The (vector, monomial-or-None) representatives inside a window.

    A representative counts when every monomial it touches lies in the
    window; for a single-monomial representative that is just window
    membership of the monomial.
    """
    return [(vec, m) for vec, m in reps
            if (m.in_window(w.N, w.L) if m is not None else
                all(mm.in_window(w.N, w.L)
                    for mm, x in zip(basis.monomials, vec) if x))]


@lru_cache(maxsize=None)
def _partitions(m: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """All jet-exponent tuples ((order, exp), ...) of total weight m."""
    if m == 0:
        return ((),)
    out = []

    def rec(remaining, max_part, acc):
        if remaining == 0:
            out.append(tuple(sorted((s, e) for s, e in acc.items())))
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc[part] = acc.get(part, 0) + 1
            rec(remaining - part, part, acc)
            if acc[part] == 1:
                del acc[part]
            else:
                acc[part] -= 1

    rec(m, m, {})
    return tuple(out)


def p_bound(d: int) -> int:
    """Largest super degree with a nonempty bidegree at standard degree d:
    p distinct odd orders add up to at least 0 + 1 + ... + (p - 1)."""
    return (1 + isqrt(1 + 8 * d)) // 2


def _odd_sets(p: int, d: int):
    """Strictly increasing odd-order tuples of length p with sum <= d."""
    if p > p_bound(d):
        return
    for comb in itertools.combinations(range(0, d + 1), p):
        if sum(comb) <= d:
            yield comb


def enumerate_piece_basis(bd: Bidegree, ucount: int, include_lambda: bool = True) -> SliceBasis:
    """All monomials of bidegree bd with a fixed even-factor count.

    These pieces are finite with no window bound: the count caps u-power
    and l-power once the jet multiplicities are chosen.  Each piece is
    enumerated once and its frozen basis is shared by every caller: the
    piece matrices, their homology and the presentations, however they
    spell the arguments: the cache key is normalised first.
    """
    return _piece_basis(Bidegree(*bd), ucount, bool(include_lambda))


@lru_cache(maxsize=None)
def _piece_basis(bd: Bidegree, ucount: int, include_lambda: bool) -> SliceBasis:
    p, d = bd
    label = f"c={ucount}"
    if p < 0 or d < 0 or ucount < 0:
        return SliceBasis(bd, None, (), label)
    monos = []
    for odd in _odd_sets(p, d):
        rest = d - sum(odd)
        for even in _partitions(rest):
            jetmult = sum(e for _, e in even)
            rem = ucount - jetmult
            if rem < 0:
                continue
            if include_lambda:
                for u0 in range(rem + 1):
                    monos.append(Monomial(rem - u0, u0, even, odd))
            else:
                monos.append(Monomial(0, rem, even, odd))
    return SliceBasis(bd, None, tuple(sorted(monos)), label)


def piece_sizes_total(bd: Bidegree, top: int, include_lambda: bool = True) -> int:
    """Total basis size of the pieces of bd with counts 0..top.

    Counted as _piece_basis enumerates, with no monomial built: odd orders
    and jets of multiplicity j give one monomial for each count c >= j, or
    c - j + 1 of them (the splits of the rest into u and l powers) with l.
    """
    p, d = bd
    if p < 0 or d < 0:
        return 0
    total = 0
    for odd in _odd_sets(p, d):
        for even in _partitions(d - sum(odd)):
            t = top - sum(e for _, e in even)
            if t >= 0:
                total += (t + 1) * (t + 2) // 2 if include_lambda else t + 1
    return total


# -- exact elimination ----------------------------------------------------


# A sparse exact row: (column, nonzero Fraction) pairs in increasing column
# order.  It is immutable and canonical, and dict(row) indexes it.
Row = Tuple[Tuple[int, Fraction], ...]


def sparse(vec: Sequence[Fraction]) -> Row:
    """The Row of a dense vector."""
    return tuple((j, x) for j, x in enumerate(vec) if x)


def dense(row: Row, n: int) -> List[Fraction]:
    """The dense vector of length n with the entries of row."""
    out = [F0] * n
    for j, x in row:
        out[j] = x
    return out


def transpose(cols: Sequence[Row]) -> List[Row]:
    """The nonzero rows of the matrix given by its columns, in row order."""
    rows: Dict[int, List[Tuple[int, Fraction]]] = {}
    for j, col in enumerate(cols):
        for i, x in col:
            rows.setdefault(i, []).append((j, x))
    return [tuple(rows[i]) for i in sorted(rows)]


def _fractions(v: Dict[int, int], den: int) -> Row:
    """The Row v / den."""
    return tuple((j, Fraction(v[j], den)) for j in sorted(v))


class Echelon:
    """A span held as sparse integer rows in row echelon form.

    Rows are col -> int dicts keyed by their pivot, the first nonzero
    column.  The entries of a row have gcd 1 and its pivot entry is
    positive; each row is zero on the pivots of the rows stored before it,
    and a stored row is never rewritten.  Rows go in one at a time as Rows,
    scaled once by the lcm of their denominators; from there on every step
    is fraction-free (Bareiss 1968): a row is cleared at a pivot by
    cross-multiplying with the pivot row, never by dividing.  Ranks,
    pivots, contains and reduce need no more, since a remainder that is
    zero on every pivot is unique.  rows() back-substitutes the reduced row
    echelon form, which is unique, so it does not depend on the order the
    rows came in.  This is the only place in the package where multiples
    of rows are subtracted.
    """

    def __init__(self, rows: Iterable[Row] = ()):
        self._rows: Dict[int, Dict[int, int]] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self._rows)

    @staticmethod
    def _primitive(v: Dict[int, int]) -> Dict[int, int]:
        """v divided by the gcd of its entries, signed to make the first positive."""
        g = gcd(*v.values())
        if v[min(v)] < 0:
            g = -g
        return v if g == 1 else {j: x // g for j, x in v.items()}

    @staticmethod
    def _cleared(v: Dict[int, int], r: Dict[int, int], pc: int) -> Tuple[Dict[int, int], int]:
        """(a*v - b*r, a): v cleared at pc by the row r, fraction-free.

        a and b are r[pc] and v[pc] divided by their gcd; r[pc] is a positive
        pivot entry, so a > 0.  v is updated in place when a == 1.
        """
        a, b = r[pc], v[pc]
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            v = {j: a * x for j, x in v.items()}
        for j, x in r.items():
            nv = v.get(j, 0) - b * x
            if nv:
                v[j] = nv
            else:
                del v[j]
        return v, a

    def _reduced(self, row: Row) -> Tuple[Dict[int, int], int]:
        """(v, den) with v / den == row minus its component in the span."""
        v, den = _integers(row)
        rows = self._rows
        # a stored row has entries only right of its pivot, so clearing the
        # pivot columns in increasing order never meets one already cleared
        heap = [j for j in v if j in rows]
        heapify(heap)
        while heap:
            pc = heappop(heap)
            if pc in v:
                r = rows[pc]
                v, a = self._cleared(v, r, pc)
                den *= a
                for j in r:
                    if j in rows and j in v:
                        heappush(heap, j)
        return v, den

    def add(self, row: Row) -> bool:
        """Extend the span by row; False when row already lies in it."""
        return self._insert(row) is not None

    def _insert(self, row: Row) -> Optional[int]:
        """Extend the span by row; the pivot it adds, or None when row
        already lies in it."""
        v = self._reduced(row)[0]
        if not v:
            return None
        v = self._primitive(v)
        pc = min(v)
        self._rows[pc] = v
        return pc

    def reduce(self, row: Row) -> Row:
        """row minus its component in the span; zero at every pivot."""
        return _fractions(*self._reduced(row))

    def contains(self, row: Row) -> bool:
        return not self._reduced(row)[0]

    def pivots(self) -> List[int]:
        return sorted(self._rows)

    def rows(self) -> List[Row]:
        """The reduced row echelon form, in pivot order: each stored row,
        from the highest pivot down, cleared by the rows already reduced
        (zero on every other pivot) and divided by its pivot entry."""
        done: Dict[int, Dict[int, int]] = {}
        for pc in sorted(self._rows, reverse=True):
            v = dict(self._rows[pc])
            for j in [j for j in v if j in done]:
                v = self._cleared(v, done[j], j)[0]
            done[pc] = self._primitive(v)
        return [_fractions(v, v[pc]) for pc, v in sorted(done.items())]


def rref(rows: Sequence[Row]):
    """Reduced row echelon form of a list of Rows.

    Returns (nonzero rows, pivot column list), both in pivot order; the
    pivot of a row is its first nonzero column.  The form is the one
    Echelon.rows() reads, whatever the order of the rows; nothing in the
    package calls it.
    """
    ech = Echelon(rows)
    return ech.rows(), ech.pivots()


def added_pivots(rows: Iterable[Row]) -> List[Optional[int]]:
    """For each row in order, the pivot it adds to the span of the rows
    before it, or None when it lies in that span."""
    ech = Echelon()
    return [ech._insert(row) for row in rows]


def rank_of(rows: Sequence[Row]) -> int:
    return len(Echelon(rows))


def reduce_against(rref_rows, pivots, vec: Row) -> Row:
    """Subtract the span of an rref basis from vec; result has no pivots."""
    return Echelon(rref_rows).reduce(vec)


def in_span(rref_rows, pivots, vec: Row) -> bool:
    return not reduce_against(rref_rows, pivots, vec)


def solve(cols: Sequence[Row], b: Row) -> Optional[List[Fraction]]:
    """One exact solution x of (cols as matrix columns) @ x = b, or None.

    x is dense, one coordinate per column.  Free variables are set to zero;
    with the canonical column order this makes the solution deterministic.
    """
    xs = quotient_coordinates(cols, (), (b,))
    return None if xs is None else xs[0]


def quotient_coordinates(reps: Sequence[Row], relations: Sequence[Row],
                         vecs: Sequence[Row]) -> Optional[List[List[Fraction]]]:
    """Coordinates of each of vecs over the rows reps, modulo the relations.

    One elimination of the matrix with columns reps, relations and vecs,
    free variables set to zero.  None when any vector lies outside
    span(reps + relations); [] for no vecs, without an elimination.
    """
    if not vecs:
        return []
    k, n = len(reps), len(reps) + len(relations)
    xs = [[F0] * k for _ in vecs]
    for row in Echelon(transpose([*reps, *relations, *vecs])).rows():
        pc = row[0][0]
        if pc >= n:
            return None
        if pc < k:
            for j, x in row:
                if j >= n:
                    xs[j - n][pc] = x
    return xs


def nullspace(rows: Sequence[Row], ncols: int) -> List[Row]:
    """Canonical kernel basis of the matrix given by rows (maps R^ncols -> R^m).

    One vector per free column f: 1 at f, minus the f entry of each pivot
    row at that row's pivot.
    """
    ech = Echelon(rows)
    pivots = set(ech.pivots())
    kernel = {j: [] for j in range(ncols) if j not in pivots}
    for row in ech.rows():
        pc = row[0][0]
        for j, x in row[1:]:
            kernel[j].append((pc, -x))
    return [(*v, (j, F1)) for j, v in kernel.items()]


def _integer_columns(cols: Dict[int, Row]) -> Tuple[Dict[int, List[Tuple[int, int]]], int]:
    """The columns as (row, int) pairs over one common denominator, and it."""
    scaled = {j: _integers(col) for j, col in cols.items()}
    den_c = lcm(*[den for _, den in scaled.values()])
    return {j: [(i, x * (den_c // den)) for i, x in col.items()]
            for j, (col, den) in scaled.items()}, den_c


def _product(cols: Dict[int, List[Tuple[int, int]]], v: Dict[int, int]) -> Dict[int, int]:
    acc: Dict[int, int] = {}   # the sum over j of v[j] times column j
    for j, x in v.items():
        for i, c in cols[j]:
            acc[i] = acc.get(i, 0) + x * c
    return acc


class Kernel:
    """The kernel of the map with the columns cols, one per ambient
    coordinate, read as an Echelon is: contains is one integer product with
    the columns over a common denominator (e_j lies in it when column j is
    empty), len reads the rank of one Echelon of the columns (cheaper than
    a stacked map's rows), built on first use, and rows() is built if read."""

    def __init__(self, cols: Sequence[Row]):
        self._cols = tuple(cols)
        self._ints = self._rank = None

    def __len__(self) -> int:
        if self._rank is None:
            self._rank = len(Echelon(self._cols))
        return len(self._cols) - self._rank

    def contains(self, row: Row) -> bool:
        if self._ints is None:
            self._ints = _integer_columns(dict(enumerate(self._cols)))[0]
        return not any(_product(self._ints, _integers(row)[0]).values())

    def rows(self) -> List[Row]:
        return Echelon(nullspace(transpose(self._cols), len(self._cols))).rows()


def intersect_with_coordinates(rows: Sequence[Row], allowed_idx) -> List[Row]:
    """Basis of span(rows) intersected with {v : v_j = 0 for j not allowed}.

    One elimination with the banned columns ordered first, by shifting
    every allowed column past the largest column index: a reduced row whose
    pivot is an allowed column vanishes on every banned column, and those
    rows span the intersection.  Shifted back they are the reduced echelon
    basis of the intersection.
    """
    live = [r for r in rows if r]
    if not live:
        return []
    allowed = set(allowed_idx)
    shift = 1 + max(r[-1][0] for r in live)
    ech = Echelon(tuple(sorted((j + shift if j in allowed else j, x) for j, x in r))
                  for r in live)
    return [tuple((j - shift, x) for j, x in row)
            for row in ech.rows() if row[0][0] >= shift]


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Matrix of a linear operator between two slice bases.

    One Row per domain monomial, in domain order, indexed by the codomain.
    Matrices are cached and shared, so they are immutable, and a matrix is
    equal only to itself and hashes by identity, with no column hashed.
    """

    domain: SliceBasis
    codomain: SliceBasis
    cols: Tuple[Row, ...]

    def apply_all(self, vecs: Sequence[Row]) -> List[Row]:
        """The images of domain Rows, as codomain Rows, computed on ints.

        The columns the vectors touch are scaled once, to integers over one
        common lcm of their denominators, and each vector over the lcm of
        its own; an image accumulates integer numerators, and a Fraction is
        built only for a nonzero entry.  Composing two matrices is
        second.apply_all(first.cols).  The integer columns live only for
        the call: nothing is added to the shared matrix.
        """
        ints = [_integers(vec) for vec in vecs]
        cols, den_c = _integer_columns({j: self.cols[j] for v, _ in ints for j in v})
        out = []
        for v, den in ints:
            acc = _product(cols, v)
            den *= den_c
            out.append(tuple((i, Fraction(acc[i], den)) for i in sorted(acc) if acc[i]))
        return out


def operator_matrix(op: Callable[[DiffPoly], DiffPoly], domain: SliceBasis,
                    codomain: SliceBasis) -> OperatorMatrix:
    """Assemble the matrix of op on a slice; rejects codomain overflow."""
    return OperatorMatrix(domain, codomain, tuple(
        codomain.vector_of(op(DiffPoly.monomial(m))) for m in domain.monomials))


def lambda_lift(bd: Bidegree, up: Bidegree, c: int,
                blocks: Sequence[Sequence[Tuple[OperatorMatrix, int]]]) -> OperatorMatrix:
    """A matrix from the piece (bd, c) to (up, c), laid out of l-free blocks.

    l is even, central and constant, so the piece (bd, c) is the sum over a
    of l^a times the parameter-free piece (bd, c - a), and l sorts first,
    so these blocks lie end to end in the basis, each in its own order.
    blocks[a] lists (matrix, s) pairs in increasing s: the matrix maps
    (bd, c - a) to (up, c - s), and its images land as they are in the l^s
    block of (up, c), after the blocks l^b, b < s.  A column is its blocks'
    columns shifted by their offsets and joined, with no monomial looked up
    and no entry changed.  Block sizes that miss the piece sizes raise
    CompositionError.
    """
    domain = enumerate_piece_basis(bd, c, True)
    codomain = enumerate_piece_basis(up, c, True)
    sizes = {s: len(mat.codomain) for pairs in blocks for mat, s in pairs}
    offsets = list(itertools.accumulate(
        (sizes.get(s, 0) for s in range(max(sizes, default=0) + 1)), initial=0))
    cols = []
    for pairs in blocks:
        parts = [(mat.cols, offsets[s]) for mat, s in pairs]
        for j in range(len(pairs[0][0].domain)):
            col = []
            for mcols, off in parts:
                col += [(i + off, x) for i, x in mcols[j]]
            cols.append(tuple(col))
    if len(cols) != len(domain) or offsets[-1] != len(codomain):
        raise CompositionError(
            f"l-free blocks of sizes {len(cols)} -> {offsets[-1]} do not make "
            f"the pieces {tuple(bd)} -> {tuple(up)} c={c}")
    return OperatorMatrix(domain, codomain, tuple(cols))


# -- homology -------------------------------------------------------------


class HomologyDims(NamedTuple):
    kernel: int
    image: int
    homology: int


def quotient_representatives(ambient: SliceBasis, space: Kernel,
                             relation_rows: Sequence[Row]):
    """Deterministic transversal of space/span(relations).

    The space is a Kernel (an Echelon of spanning Rows reads the same); the
    relation rows, any spanning set (repeats, zero rows), are each checked
    to lie in it, then one echelon reduces them and is extended by each
    accepted candidate.
    Preference is given to single monomials in canonical order, so whenever
    the quotient admits a monomial transversal the representatives are
    plain monomials; otherwise reduced space rows fill the remainder.
    Returns a list of (Row, monomial-or-None) pairs.
    """
    if not all(space.contains(row) for row in relation_rows):
        raise CompositionError("relations are not contained in the space")
    acc = Echelon(relation_rows)
    target = len(space) - len(acc)
    reps = []
    for j, m in enumerate(ambient.monomials):
        if len(reps) >= target:
            break
        e = ((j, F1),)
        if space.contains(e) and acc.add(e):
            reps.append((e, m))
    for row in space.rows() if len(reps) < target else ():
        if len(reps) >= target:
            break
        if acc.add(row):
            reps.append((row, None))
    if len(reps) != target:
        raise CompositionError("failed to complete a quotient transversal")
    return reps


# A published transversal: one (dense vector, monomial-or-None) per class.
PublishedReps = Tuple[Tuple[Tuple[Fraction, ...], Optional[Monomial]], ...]


def publish_reps(basis: SliceBasis, reps) -> PublishedReps:
    """The published form of a quotient_representatives transversal."""
    return tuple((tuple(dense(v, len(basis))), m) for v, m in reps)


def rep_rows(reps: PublishedReps) -> List[Row]:
    """The Rows of a published transversal."""
    return [sparse(v) for v, _ in reps]


def rep_coordinates(reps: PublishedReps, relation_rows: Sequence[Row],
                    vecs: Sequence[Row]) -> Optional[List[List[Fraction]]]:
    """Class coordinates of vecs over a published transversal, modulo the
    relation rows (quotient_coordinates)."""
    return quotient_coordinates(rep_rows(reps), relation_rows, vecs)


# -- stabilization over window ladders ------------------------------------


@dataclass
class StabilizationReport:
    """Classification of dims over a strictly increasing window ladder."""

    kind: str                      # constant | linear-N | linear-L | affine | unstable | inconclusive
    slope_n: Fraction
    slope_l: Fraction
    intercept: Fraction
    points_used: int
    detail: str = ""


def _fit_affine(points, use_n: bool, use_l: bool):
    """Exact fit dim = a*N + b*L + c over the given points, or None.

    solve is exact, and an unused direction is a zero column, whose
    coordinate it sets to zero."""
    cols = [sparse([Fraction(w.N) if use_n else F0 for w, _ in points]),
            sparse([Fraction(w.L) if use_l else F0 for w, _ in points]),
            sparse([F1] * len(points))]
    return solve(cols, sparse([Fraction(dim) for _, dim in points]))


def stabilized_dims(points: Sequence[Tuple[Window, int]]) -> StabilizationReport:
    """Classify dims along a window ladder.

    The ladder must be strictly increasing in the componentwise order.
    Fewer than three data points is inconclusive by contract.  Models are
    tried from most to least constrained; if no model fits all points the
    earliest points are dropped one at a time (the dims only need to
    stabilize eventually) down to three remaining.
    """
    pts = list(points)
    for (w1, _), (w2, _) in zip(pts, pts[1:]):
        if not (window_leq(w1, w2) and w1 != w2):
            raise ValueError(f"window ladder not strictly increasing at {w1} -> {w2}")
    if len(pts) < 3:
        return StabilizationReport("inconclusive", F0, F0, F0, len(pts),
                                   "need at least three ladder points")
    for start in range(0, len(pts) - 2):
        sub = pts[start:]
        dims = [d for _, d in sub]
        if len(set(dims)) == 1:
            return StabilizationReport("constant", F0, F0, Fraction(dims[0]), len(sub))
        ns = {w.N for w, _ in sub}
        ls = {w.L for w, _ in sub}
        if len(ns) > 1:
            fit = _fit_affine(sub, True, False)
            if fit and fit[0] != 0:
                return StabilizationReport("linear-N", fit[0], F0, fit[2], len(sub))
        if len(ls) > 1:
            fit = _fit_affine(sub, False, True)
            if fit and fit[1] != 0:
                return StabilizationReport("linear-L", F0, fit[1], fit[2], len(sub))
        if len(ns) > 1 and len(ls) > 1:
            fit = _fit_affine(sub, True, True)
            if fit:
                return StabilizationReport("affine", fit[0], fit[1], fit[2], len(sub))
    return StabilizationReport("unstable", F0, F0, F0, len(pts),
                               "no exact affine model fits any ladder suffix")
