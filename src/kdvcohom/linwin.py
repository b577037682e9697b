"""Finite slices of the jet superalgebra and exact linear algebra on them.

A slice is the span of all monomials of a fixed bidegree subject to bounds:
either a reporting window (u-power <= N, l-power <= L, jets unconstrained)
or a fixed even-factor count (ucount), which cuts out a genuinely finite
piece preserved by the pencil differentials.

Every elimination runs through one kernel, the Echelon class: a span kept
as sparse Fraction rows in fully reduced row echelon form, pivoting on the
first nonzero column in the canonical monomial order.  rref, rank_of,
reduce_against, in_span, solve, nullspace, intersect_with_coordinates and
quotient_representatives are thin dense views of it.  The reduced form of
a span is unique, so every result is canonical; no floating point, no
probabilistic shortcuts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import Bidegree, DiffPoly, Monomial

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


@dataclass
class SliceBasis:
    """Ordered monomial basis of one slice.

    window is None for pieces cut out by an even-factor count instead of a
    reporting window; label then records the cut.
    """

    bidegree: Bidegree
    window: Optional[Window]
    monomials: Tuple[Monomial, ...]
    label: str = ""
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._index = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self) -> int:
        return len(self.monomials)

    def index_of(self, m: Monomial) -> int:
        try:
            return self._index[m]
        except KeyError:
            raise WindowOverflowError(
                f"monomial {m.format() or '1'} not in slice {self.describe()}"
            ) from None

    def contains(self, m: Monomial) -> bool:
        return m in self._index

    def vector_of(self, a: DiffPoly) -> List[Fraction]:
        v = [F0] * len(self.monomials)
        for m, c in a.terms.items():
            v[self.index_of(m)] = c
        return v

    def poly_of(self, vec: Sequence[Fraction]) -> DiffPoly:
        return DiffPoly({m: c for m, c in zip(self.monomials, vec) if c})

    def describe(self) -> str:
        p, d = self.bidegree
        tag = self.label or (f"window {self.window}" if self.window else "")
        return f"(p={p}, d={d}) {tag}".strip()


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


def _odd_sets(p: int, d: int):
    """Strictly increasing odd-order tuples of length p with sum <= d."""
    if p == 0:
        yield ()
        return
    # smallest possible sum is 0+1+...+(p-1)
    if d < p * (p - 1) // 2:
        return
    for comb in itertools.combinations(range(0, d + 1), p):
        if sum(comb) <= d:
            yield comb


def enumerate_basis(bd: Bidegree, w: Window, include_lambda: bool = True) -> SliceBasis:
    """All monomials of bidegree bd with u-power <= N and l-power <= L."""
    p, d = bd
    if p < 0 or d < 0:
        return SliceBasis(bd, w, ())
    monos = []
    lmax = w.L if include_lambda else 0
    for odd in _odd_sets(p, d):
        rest = d - sum(odd)
        for even in _partitions(rest):
            for u0 in range(w.N + 1):
                for lam in range(lmax + 1):
                    monos.append(Monomial(lam, u0, even, odd))
    return SliceBasis(bd, w, tuple(sorted(monos)))


def enumerate_piece_basis(bd: Bidegree, ucount: int, include_lambda: bool = True) -> SliceBasis:
    """All monomials of bidegree bd with a fixed even-factor count.

    These pieces are finite with no window bound: the count caps u-power
    and l-power once the jet multiplicities are chosen.
    """
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


# -- exact elimination ----------------------------------------------------


class Echelon:
    """A span held as sparse rows in fully reduced row echelon form.

    Rows are col -> Fraction dicts keyed by their pivot, the first nonzero
    column; every pivot entry is 1 and no row touches another row's pivot.
    Rows go in one at a time as dense sequences, so extending a span never
    repeats the work already done on it, and the form reached does not
    depend on the order the rows came in.  This is the only place in the
    package where multiples of rows are subtracted.
    """

    def __init__(self, ncols: int, rows: Sequence[Sequence[Fraction]] = ()):
        self.ncols = ncols
        self._rows: Dict[int, Dict[int, Fraction]] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self._rows)

    def _reduced(self, row: Sequence[Fraction]) -> Dict[int, Fraction]:
        v = {j: x for j, x in enumerate(row) if x}
        # a pivot row is zero on every other pivot, so one pass suffices
        for pc in [j for j in v if j in self._rows]:
            f = v[pc]
            for j, b in self._rows[pc].items():
                nv = v.get(j, F0) - f * b
                if nv:
                    v[j] = nv
                else:
                    del v[j]
        return v

    def add(self, row: Sequence[Fraction]) -> bool:
        """Extend the span by row; False when row already lies in it."""
        v = self._reduced(row)
        if not v:
            return False
        pc = min(v)
        pv = v[pc]
        if pv != 1:
            v = {j: x / pv for j, x in v.items()}
        for other in self._rows.values():
            f = other.get(pc)
            if f:
                for j, b in v.items():
                    nv = other.get(j, F0) - f * b
                    if nv:
                        other[j] = nv
                    else:
                        del other[j]
        self._rows[pc] = v
        return True

    def reduce(self, row: Sequence[Fraction]) -> List[Fraction]:
        """row minus its component in the span; zero at every pivot."""
        return self._dense(self._reduced(row))

    def contains(self, row: Sequence[Fraction]) -> bool:
        return not self._reduced(row)

    def items(self) -> List[Tuple[int, Dict[int, Fraction]]]:
        """(pivot, sparse row) pairs in pivot order."""
        return sorted(self._rows.items())

    def pivots(self) -> List[int]:
        return sorted(self._rows)

    def dense(self) -> List[List[Fraction]]:
        """The rows as dense lists in pivot order."""
        return [self._dense(row) for _, row in self.items()]

    def _dense(self, row: Dict[int, Fraction]) -> List[Fraction]:
        out = [F0] * self.ncols
        for j, x in row.items():
            out[j] = x
        return out


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form of equal-length dense rows.

    Returns (nonzero rows, pivot column list), both in pivot order; the
    pivot of a row is its first nonzero column.  Input rows are not
    mutated.  The form is the one an Echelon reaches on the rows.
    """
    ech = Echelon(len(rows[0]) if rows else 0, rows)
    return ech.dense(), ech.pivots()


def rank_of(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(Echelon(len(rows[0]) if rows else 0, rows))


def reduce_against(rref_rows, pivots, vec: Sequence[Fraction]) -> List[Fraction]:
    """Subtract the span of an rref basis from vec; result has no pivots."""
    # only the basis rows whose pivots vec touches take part; rows already
    # in reduced form go into an Echelon without any arithmetic
    ech = Echelon(len(vec), [row for row, pc in zip(rref_rows, pivots) if vec[pc]])
    return ech.reduce(vec)


def in_span(rref_rows, pivots, vec: Sequence[Fraction]) -> bool:
    return not any(reduce_against(rref_rows, pivots, vec))


def solve(rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]):
    """One exact solution x of (rows as matrix) @ x = b, or None.

    Free variables are set to zero; with the canonical column order this
    makes the returned solution deterministic.
    """
    m = len(rows)
    if m == 0:
        return [] if not any(b) else None
    n = len(rows[0])
    ech = Echelon(n + 1, [list(rows[i]) + [Fraction(b[i])] for i in range(m)])
    x = [F0] * n
    for pc, row in ech.items():
        if pc == n:
            return None
        x[pc] = row.get(n, F0)
    return x


def quotient_coordinates(reps, relations, vec: Sequence[Fraction]):
    """Coordinates of vec over the rows reps, modulo the span of relations.

    None when vec lies outside span(reps + relations).  With no reps the
    answer is [] exactly when vec lies in the span of the relations.
    """
    x = solve(list(zip(*reps, *relations)), vec)
    return None if x is None else x[:len(reps)]


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Canonical kernel basis of the matrix given by rows (maps R^ncols -> R^m)."""
    ech = Echelon(ncols, rows)
    pivot_rows = ech.items()
    pivot_set = set(ech.pivots())
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [F0] * ncols
        v[free] = F1
        for pc, row in pivot_rows:
            v[pc] = -row.get(free, F0)
        basis.append(v)
    return basis


def intersect_with_coordinates(rows, allowed_idx) -> List[List[Fraction]]:
    """Basis of span(rows) intersected with {v : v_j = 0 for j not allowed}.

    One elimination with the banned columns ordered first: a reduced row
    whose pivot is an allowed column vanishes on every banned column, and
    those rows span the intersection.  They come back in the original
    column order as the reduced echelon basis of the intersection.
    """
    live = [r for r in rows if any(r)]
    if not live:
        return []
    n = len(live[0])
    allowed = set(allowed_idx)
    banned = [j for j in range(n) if j not in allowed]
    order = banned + [j for j in range(n) if j in allowed]
    ech = Echelon(n, [[r[j] for j in order] for r in live])
    out = []
    for pc, row in ech.items():
        if pc >= len(banned):
            v = [F0] * n
            for j, x in row.items():
                v[order[j]] = x
            out.append(v)
    return out


@dataclass
class OperatorMatrix:
    """Matrix of a linear operator between two slice bases.

    Columns are stored sparsely (row index -> Fraction), one per domain
    monomial, in domain order.
    """

    domain: SliceBasis
    codomain: SliceBasis
    cols: Tuple[dict, ...]

    def apply_to_vector(self, vec: Sequence[Fraction]) -> List[Fraction]:
        out = [F0] * len(self.codomain)
        for j, x in enumerate(vec):
            if x:
                for i, c in self.cols[j].items():
                    out[i] += x * c
        return out

    def dense_rows(self) -> List[List[Fraction]]:
        rows = [[F0] * len(self.cols) for _ in range(len(self.codomain))]
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                rows[i][j] = c
        return rows

    def rank(self) -> int:
        return rank_of(self.image_rows())

    def image_rows(self) -> List[List[Fraction]]:
        rows = []
        for col in self.cols:
            if col:
                v = [F0] * len(self.codomain)
                for i, c in col.items():
                    v[i] = c
                rows.append(v)
        return rows

    def kernel_rows(self) -> List[List[Fraction]]:
        return nullspace(self.dense_rows(), len(self.domain))

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)


def operator_matrix(op: Callable[[DiffPoly], DiffPoly], domain: SliceBasis,
                    codomain: SliceBasis) -> OperatorMatrix:
    """Assemble the matrix of op on a slice; rejects codomain overflow."""
    cols = []
    for m in domain.monomials:
        img = op(DiffPoly.monomial(m))
        col = {}
        for mm, c in img.terms.items():
            col[codomain.index_of(mm)] = c
        cols.append(col)
    return OperatorMatrix(domain, codomain, tuple(cols))


# -- homology -------------------------------------------------------------


class HomologyDims(NamedTuple):
    kernel: int
    image: int
    homology: int


def quotient_representatives(ambient: SliceBasis, space_rows, relation_rows):
    """Deterministic transversal of span(space)/span(relations).

    Relations must span a subspace of the space (checked).  Preference is
    given to single monomials in canonical order, so whenever the quotient
    admits a monomial transversal the representatives are plain monomials;
    otherwise reduced space rows fill the remainder.  One echelon of the
    relations is extended by each accepted candidate.

    Returns a list of (vector, monomial-or-None) pairs.
    """
    n = len(ambient)
    space = Echelon(n, space_rows)
    acc = Echelon(n, relation_rows)
    if not all(space.contains(row) for row in relation_rows):
        raise CompositionError("relations are not contained in the space")
    target = len(space) - len(acc)
    reps = []
    for j, m in enumerate(ambient.monomials):
        if len(reps) >= target:
            break
        e = [F0] * n
        e[j] = F1
        if space.contains(e) and acc.add(e):
            reps.append((e, m))
    for row in space.dense():
        if len(reps) >= target:
            break
        if acc.add(row):
            reps.append((row, None))
    if len(reps) != target:
        raise CompositionError("failed to complete a quotient transversal")
    return reps


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

    def matches(self, kind: str, slope: int = 0) -> bool:
        if self.kind != kind:
            return False
        if kind == "linear-N":
            return self.slope_n == slope
        if kind == "linear-L":
            return self.slope_l == slope
        if kind == "constant":
            return self.intercept == slope
        return True


def _fit_affine(points, use_n: bool, use_l: bool):
    """Exact fit dim = a*N + b*L + c over the given points, or None."""
    rows = []
    rhs = []
    for (w, dim) in points:
        rows.append([Fraction(w.N) if use_n else F0,
                     Fraction(w.L) if use_l else F0,
                     F1])
        rhs.append(Fraction(dim))
    # solve least-structure system exactly: find any solution, then verify
    sol = solve(rows, rhs)
    if sol is None:
        return None
    a, b, c = sol
    for (w, dim) in points:
        val = (a * w.N if use_n else F0) + (b * w.L if use_l else F0) + c
        if val != dim:
            return None
    if not use_n:
        a = F0
    if not use_l:
        b = F0
    return a, b, c


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
