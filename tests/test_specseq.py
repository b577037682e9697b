"""Spectral sequence engine on toy filtered complexes and on pencil pieces.

Every toy below is small enough to run the pages by hand; the expected
dimensions and collapse indices are frozen from those hand computations.
"""

import pytest

from kdvcohom import linwin, specseq
from kdvcohom.algebra import mono, poly
from kdvcohom.cohomeng import class_coords
from kdvcohom.kdvpencil import d1_explicit, pencil_filtered_slice
from kdvcohom.linwin import (
    CompositionError,
    SliceBasis,
    Window,
    operator_matrix,
    quotient_representatives,
    rank_of,
    rref,
    solve,
    sparse,
)
from kdvcohom.specseq import (
    FilteredSlice,
    b_rows,
    collapse_at,
    converge_check,
    homology_at,
    page,
    page_dr_matrix,
    z_rows,
)


def _basis(bd, names, label=""):
    return SliceBasis(bidegree=bd, window=None,
                      monomials=tuple(poly(t).monomials()[0] for t in names),
                      label=label)


def _span_bound(fs):
    """All page differentials vanish strictly beyond this page index."""
    return fs.max_level() - fs.min_level() + 1


def _toy(degrees, bases, levels, diffs):
    """A hand-built slice: the given bases, levels and matrices by degree."""
    return FilteredSlice(tuple(degrees), lambda n: (bases[n], levels[n]), diffs.get, "toy")


def _slice(degrees, bases, levels, ops):
    return _toy(degrees, bases, levels,
                {n: operator_matrix(op, bases[n], bases[n + 1]) for n, op in ops.items()})


def test_zero_differential_collapses_at_zero():
    from kdvcohom.algebra import Bidegree, ZERO
    b0 = _basis(Bidegree(0, 0), ["1", "u"])
    b1 = _basis(Bidegree(1, 1), ["t1"])
    fs = _slice([0, 1], {0: b0, 1: b1}, {0: [0, 0], 1: [1]},
                {0: lambda a: ZERO})
    assert collapse_at(fs) == 0
    assert page(fs, 0, 0, 0).dim == 2
    assert page(fs, 0, 1, 0).dim == 1
    assert homology_at(fs, 0) == (2, 0, 2)
    assert all(ok for _, _, ok in converge_check(fs).values())


def test_identity_differential_collapses_at_one():
    from kdvcohom.algebra import Bidegree
    b0 = _basis(Bidegree(0, 0), ["u"])
    b1 = _basis(Bidegree(1, 1), ["u"], label="shifted copy")
    fs = _slice([0, 1], {0: b0, 1: b1}, {0: [0], 1: [0]},
                {0: lambda a: a})
    assert collapse_at(fs) == 1
    assert page(fs, 1, 0, 0).dim == 0
    assert page(fs, 1, 0, 1).dim == 0
    assert homology_at(fs, 0) == (0, 0, 0)
    assert homology_at(fs, 1) == (1, 1, 0)


def test_level_raising_differential_collapses_at_two():
    from kdvcohom.algebra import Bidegree
    from kdvcohom.kdvpencil import D1
    b0 = _basis(Bidegree(0, 0), ["u"])
    b1 = _basis(Bidegree(1, 1), ["t1"])
    fs = _slice([0, 1], {0: b0, 1: b1}, {0: [0], 1: [1]},
                {0: D1})
    assert page(fs, 1, 0, 0).dim == 1
    assert page(fs, 1, 1, 0).dim == 1
    src, dst, cols = page_dr_matrix(fs, 1, 0, 0)
    assert (src.dim, dst.dim) == (1, 1)
    assert cols[0] and cols[0][0] != 0
    assert collapse_at(fs) == 2
    assert all(ok for _, _, ok in converge_check(fs).values())


def test_validate_rejects_broken_filtration():
    from kdvcohom.algebra import Bidegree
    b0 = _basis(Bidegree(0, 0), ["u"])
    b1 = _basis(Bidegree(1, 1), ["t1"])
    fs = _slice([0, 1], {0: b0, 1: b1}, {0: [1], 1: [0]},
                {0: lambda a: poly("t1") * a.coeff(mono(u0=1))})
    with pytest.raises(CompositionError,
                       match="level drops along the differential at degree 0"):
        fs.diff(0)


def test_a_slice_rejects_bad_shapes():
    from kdvcohom.algebra import Bidegree
    from kdvcohom.kdvpencil import D1
    b0 = _basis(Bidegree(0, 0), ["u"])
    b1 = _basis(Bidegree(1, 1), ["t1"])
    d = operator_matrix(D1, b0, b1)
    with pytest.raises(CompositionError, match="degrees not consecutive in toy"):
        _toy([0, 2], {0: b0, 2: b1}, {0: (0,), 2: (1,)}, {})
    with pytest.raises(CompositionError, match="level count mismatch at degree 1"):
        _toy([0, 1], {0: b0, 1: b1}, {0: (0,), 1: (1, 1)}, {}).levels(1)
    other = _basis(Bidegree(1, 1), ["u1 t0"])
    with pytest.raises(CompositionError, match="codomain mismatch at 0"):
        _toy([0, 1], {0: b0, 1: other}, {0: (0,), 1: (1,)}, {0: d}).diff(0)
    assert _toy([0, 1], {0: b0, 1: b1}, {0: (0,), 1: (1,)}, {0: d}).diff(0) is d


def test_page_dr_matrix_makes_one_coordinate_elimination(monkeypatch):
    from kdvcohom.algebra import Bidegree
    from kdvcohom.kdvpencil import D1
    b0 = _basis(Bidegree(0, 0), ["u", "u^2"])
    b1 = _basis(Bidegree(1, 1), ["t1", "u t1"])
    fs = _slice([0, 1], {0: b0, 1: b1}, {0: [0, 0], 1: [1, 1]}, {0: D1})
    # the entries come ready, relations read, so that only the coordinate
    # solve of page_dr_matrix itself builds an Echelon
    entries = {key: page(fs, *key) for key in ((1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 2, -1))}
    for entry in entries.values():
        entry.relation_rows
    monkeypatch.setattr(specseq, "page", lambda fs, r, p, q: entries[r, p, q])
    built = []

    class CountingEchelon(linwin.Echelon):
        def __init__(self, rows=()):
            built.append(1)
            super().__init__(rows)

    monkeypatch.setattr(linwin, "Echelon", CountingEchelon)
    src, dst, cols = page_dr_matrix(fs, 1, 0, 0)
    assert (src.dim, dst.dim) == (2, 2)
    assert cols == [[1, 0], [0, 2]]
    assert len(built) == 1
    # page two is zero at (0, 0): an empty class matrix, no elimination
    src, _, cols = page_dr_matrix(fs, 2, 0, 0)
    assert (src.dim, cols) == (0, [])
    assert len(built) == 1


# -- pencil pieces ----------------------------------------------------------------


def test_pencil_piece_k0_pages():
    fs = pencil_filtered_slice(0, 1)
    entry00 = page(fs, 1, 0, 0)
    assert entry00.dim == 1
    assert entry00.reps[0][1] == mono(lam=1)
    entry12 = page(fs, 1, 1, 2)
    assert entry12.dim == 1
    assert entry12.reps[0][1] == mono(u0=1, odd=(0, 1, 2))
    for p, q in [(0, 1), (1, 1), (0, 2), (0, 3), (1, 0), (2, 1)]:
        assert page(fs, 1, p, q).dim == 0, (p, q)
    assert collapse_at(fs) == 1
    assert [homology_at(fs, n).homology for n in fs.degrees] == [1, 0, 0, 1]
    assert all(ok for _, _, ok in converge_check(fs).values())


def test_pencil_piece_k1_d1_matches_explicit_formula():
    fs = pencil_filtered_slice(1, 1)
    src, dst, cols = page_dr_matrix(fs, 1, 1, 2)
    assert (src.dim, dst.dim) == (1, 1)
    assert len(cols) == 1 and cols[0][0] != 0

    # the same matrix entry from the closed formula, over the same choice
    # of representatives
    src_poly = src.rep_polys()[0]
    img = d1_explicit(src_poly, 2)
    target = fs.basis(4).vector_of(img)
    # the image is a cocycle of the target page: it lies in Z_1 there
    coords = solve(z_rows(fs, dst.r, dst.p, dst.p + dst.q), target)
    assert coords is not None
    # express over [reps | relations]: generator list is reps first
    full_gens = [sparse(r) for r, _ in dst.reps] + list(dst.relation_rows)
    coords = solve(full_gens, target)
    assert coords is not None
    assert coords[0] == cols[0][0]
    # the same coordinate through the class reader of a page entry
    assert class_coords(dst, img) == [cols[0][0]]

    assert collapse_at(fs) == 2
    assert [homology_at(fs, n).homology for n in fs.degrees] == [0, 0, 0, 0]
    assert all(ok for _, _, ok in converge_check(fs).values())


def test_pencil_piece_window_counts():
    fs = pencil_filtered_slice(0, 2)
    entry = page(fs, 1, 1, 2)
    assert entry.dim == 1
    assert entry.window_count(Window(2, 2)) == 1
    assert entry.window_count(Window(1, 0)) == 0  # representative is u^2 t0 t1 t2
    corner = page(fs, 1, 0, 0)
    assert corner.window_count(Window(5, 1)) == 0  # lambda^2 needs L >= 2
    assert corner.window_count(Window(0, 2)) == 1


@pytest.mark.parametrize("c", range(4))
@pytest.mark.parametrize("k", range(-1, 3))
def test_pages_keep_the_euler_characteristic(k, c):
    # every page of a finite complex has the Euler characteristic of the
    # complex itself, which needs nothing but the basis sizes
    fs = pencil_filtered_slice(k, c)
    chi = sum((-1) ** n * fs.dim(n) for n in fs.degrees)
    levels = range(fs.min_level(), fs.max_level() + 1)
    for r in range(_span_bound(fs) + 2):
        got = sum((-1) ** n * page(fs, r, p, n - p).dim
                  for n in fs.degrees for p in levels)
        assert got == chi, r


# -- the pairing against the span-based pages ----------------------------------


def _span_dim(fs, r, p, n):
    """dim E_r at (p, n - p) from the spans: Z_r modulo B_{r-1} + Z_{r-1}(p+1)."""
    basis = fs.basis(n)
    if not basis:
        return 0
    rel, _ = rref(b_rows(fs, r - 1, p, n) + z_rows(fs, r - 1, p + 1, n))
    return len(quotient_representatives(basis, linwin.Echelon(z_rows(fs, r, p, n)), rel))


def _scan_dr_is_zero(fs, r):
    """d_r vanishes, read off every page-r differential matrix."""
    lo, hi = fs.min_level(), fs.max_level()
    return not any(any(col) for n in fs.degrees for p in range(lo, hi + 1)
                   for col in page_dr_matrix(fs, r, p, n - p)[2])


def _scan_collapse_at(fs):
    bound = _span_bound(fs)
    flags = [_scan_dr_is_zero(fs, r) for r in range(bound + 1)]
    return next((r for r in range(bound + 1) if all(flags[r:])), bound + 1)


def _levels_around(fs, n):
    """Every level of degree n, and one empty level on either side."""
    lv = fs.levels(n)
    return range(min(lv) - 1, max(lv) + 2) if lv else ()


UNTRUNCATED = [(k, c) for k in range(-1, 4) for c in range(6)]


@pytest.mark.parametrize("k,c", UNTRUNCATED)
def test_pairing_dims_match_the_spans_on_every_page(k, c):
    fs = pencil_filtered_slice(k, c)
    for r in range(_span_bound(fs) + 2):
        for n in fs.degrees:
            for p in range(fs.min_level(), fs.max_level() + 1):
                assert page(fs, r, p, n - p).dim == _span_dim(fs, r, p, n), (r, p, n)


@pytest.mark.parametrize("k", range(-1, 5))
def test_pairing_dims_match_the_spans_below_a_truncation(k):
    # every page up to the total 6 that page counts take, on the larger
    # pieces too, whose higher degrees stay unread
    for c in range(7):
        fs = pencil_filtered_slice(k, c)
        for n in fs.degrees:
            if n > 6:
                continue
            for r in (1, 2, 3):
                for p in _levels_around(fs, n):
                    assert page(fs, r, p, n - p).dim == _span_dim(fs, r, p, n), \
                        (c, r, p, n)


@pytest.mark.parametrize("k,c", UNTRUNCATED)
def test_b_rows_is_the_filtered_image(k, c):
    # B_{r-1}(p) from its definition: the images of the columns at domain
    # level >= p - r, kept where they vanish below level p
    fs = pencil_filtered_slice(k, c)
    for n in fs.degrees:
        d = fs.diff(n - 1)
        if d is None:
            continue
        lv_dom, lv = fs.levels(n - 1), fs.levels(n)
        for r in range(_span_bound(fs) + 2):
            for p in range(fs.min_level(), fs.max_level() + 1):
                got = b_rows(fs, r, p, n)
                cols = [col for j, col in enumerate(d.cols) if lv_dom[j] >= p - r]
                low = [tuple((i, x) for i, x in col if lv[i] < p) for col in cols]
                assert rref(got)[0] == got, (r, p, n)
                assert all(lv[i] >= p for row in got for i, _ in row), (r, p, n)
                assert rank_of(cols + got) == rank_of(cols), (r, p, n)
                assert len(got) == rank_of(cols) - rank_of(low), (r, p, n)


@pytest.mark.parametrize("k,c", UNTRUNCATED[::2])
def test_collapse_matches_the_differential_scan(k, c):
    fs = pencil_filtered_slice(k, c)
    assert collapse_at(fs) == _scan_collapse_at(fs)


def test_validate_rejects_a_differential_that_leaves_the_slice():
    from kdvcohom.algebra import Bidegree
    from kdvcohom.kdvpencil import D1
    b0 = _basis(Bidegree(0, 0), ["u"])
    b1 = _basis(Bidegree(1, 1), ["t1"])
    d = operator_matrix(D1, b0, b1)
    fs = _toy([0], {0: b0}, {0: (0,)}, {0: d})
    # every reader that reaches the differential raises, on every read
    for read in (lambda: fs.diff(0), lambda: page(fs, 1, 0, 0),
                 lambda: homology_at(fs, 0), lambda: collapse_at(fs)):
        with pytest.raises(CompositionError, match="leaves the slice at degree 0"):
            read()
    # the same matrix into a degree of the slice is read
    fs = _toy([0, 1], {0: b0, 1: b1}, {0: (0,), 1: (1,)}, {0: d})
    assert fs.diff(0) is d and page(fs, 1, 0, 0).dim == 1


@pytest.mark.parametrize("k", range(-1, 5))
def test_pages_read_no_degree_past_the_next_one(k):
    # E_r at total n reads degrees n - 1, n and n + 1 only: a fresh slice
    # read at total n builds no differential out of a degree above n and
    # gives the very entries of the slice read up to degree 7
    for c in range(7):
        full = pencil_filtered_slice(k, c)
        for n in full.degrees:
            if n < 7:
                full.pairs(n)
        for n in full.degrees:
            if n > 5:
                continue
            near = pencil_filtered_slice.__wrapped__(k, c)
            got = [page(near, r, p, n - p) for r in (1, 2, 3)
                   for p in _levels_around(full, n)]
            for entry in got:
                entry.relation_rows
            assert max(near._diffs, default=n) <= n and max(near._read, default=n) <= n + 1, \
                (c, n)
            for a in got:
                b = page(full, a.r, a.p, a.q)
                assert (a.dim, a.reps, a.relation_rows) == \
                    (b.dim, b.reps, b.relation_rows), (c, a.r, a.p, n)


# -- the pairs against one global elimination --------------------------------------


def _global_pairing(fs, top):
    """The pairing of the degrees of fs up to top from one elimination over
    all of them at once, the differential out of top left out: the vectors
    numbered by (level, degree, index), the columns put into one Echelon
    from the highest number down, a column paired with the pivot it adds;
    gaps by (degree, level), in basis order."""
    degrees = [n for n in fs.degrees if n <= top]
    order = sorted((lv, n, i) for n in degrees for i, lv in enumerate(fs.levels(n)))
    index = {(n, i): k for k, (_, n, i) in enumerate(order)}
    cols = []
    for _, n, i in reversed(order):
        d = fs.diff(n) if n < top else None
        cols.append(() if d is None else
                    tuple(sorted((index[n + 1, j], x) for j, x in d.cols[i])))
    ech, partner = linwin.Echelon(), {}
    for k, col in zip(range(len(order) - 1, -1, -1), cols):
        pc = ech._insert(col)
        if pc is not None:
            partner[k], partner[pc] = pc, k
    pairs = {}
    for k, (lv, n, _) in enumerate(order):
        gap = abs(order[partner[k]][0] - lv) if k in partner else None
        pairs.setdefault((n, lv), []).append(gap)
    return {key: tuple(gaps) for key, gaps in pairs.items()}


def _check_against_the_global_pairing(fs, top):
    """The gaps and the page dims of every degree below top."""
    want = _global_pairing(fs, top)
    for (n, p), gaps in want.items():
        if n >= top:
            continue
        assert fs.gaps(n, p) == gaps, (n, p)
        for r in (1, 2, 3):
            assert page(fs, r, p, n - p).dim == sum(g is None or g >= r for g in gaps), \
                (r, p, n)
    return want


CUT_PIECES = [(k, c) for k in range(-1, 5) for c in range(7)]


@pytest.mark.parametrize("caps", [range(7, 0, -1), range(1, 8)],
                         ids=["highest-cap-first", "lowest-cap-first"])
@pytest.mark.parametrize("k,c", CUT_PIECES)
def test_every_cut_shares_the_pairs_of_one_global_elimination(k, c, caps):
    # a fresh slice read up to each cap in turn, the pairs of every degree
    # below it: from the highest cap down the first read builds them all,
    # from the lowest up each read adds the differential of one degree
    fs = pencil_filtered_slice.__wrapped__(k, c)
    reached = -1
    for cap in caps:
        for n in fs.degrees:
            if n < cap:
                fs.pairs(n)
        reached = max(reached, cap)
        assert max(fs._diffs, default=-1) < reached, cap
        _check_against_the_global_pairing(fs, cap)


@pytest.mark.parametrize("k,c", [(k, c) for k in range(-1, 4) for c in range(6)])
def test_whole_pieces_pair_as_one_global_elimination(k, c):
    # the whole-slice readers first, on a fresh slice
    fs = pencil_filtered_slice.__wrapped__(k, c)
    collapse, limit = collapse_at(fs), converge_check(fs)
    want = _check_against_the_global_pairing(fs, max(fs.degrees, default=0) + 1)
    assert collapse == 1 + max(
        (g for gaps in want.values() for g in gaps if g is not None), default=-1)
    assert {n: total for n, (total, _, _) in limit.items()} == {
        n: sum(g is None for (m, _), gaps in want.items() if m == n for g in gaps)
        for n in fs.degrees}


def _numbers(n):
    """A basis of n stand-in monomials, for matrices that are only numbers."""
    from kdvcohom.algebra import Bidegree, Monomial
    return SliceBasis(Bidegree(0, 0), None, tuple(Monomial(lam=i) for i in range(n)))


def test_shared_pairs_follow_the_levels():
    # one matrix, d(a) = d(b) = x, in slices with other levels: the higher
    # of a and b takes the pair, so each slice pairs it by its own levels,
    # and a level that drops along d is caught whatever slice read d before
    from fractions import Fraction as F
    d = linwin.OperatorMatrix(_numbers(2), _numbers(1), (((0, F(1)),), ((0, F(1)),)))

    def two_degrees(lv0, lv1):
        return _toy([0, 1], {0: d.domain, 1: d.codomain}, {0: lv0, 1: lv1}, {0: d})

    def gaps(fs):
        return {(n, p): fs.gaps(n, p) for n in fs.degrees for p in set(fs.levels(n))}

    first = two_degrees((0, 1), (1,))
    assert gaps(first) == _global_pairing(first, 2) == \
        {(0, 0): (None,), (0, 1): (0,), (1, 1): (0,)}
    second = two_degrees((1, 0), (2,))
    assert gaps(second) == _global_pairing(second, 2) == \
        {(0, 0): (None,), (0, 1): (1,), (1, 2): (1,)}
    assert page(second, 2, 0, 0).dim == 1 and page(second, 1, 1, -1).dim == 1
    with pytest.raises(CompositionError, match="level drops along the differential"):
        two_degrees((1, 1), (0,)).pairs(0)


def test_a_checked_square_holds_only_for_its_next_matrix():
    # d2 d = 0 for one d2 says nothing of another d2 after the same d; the
    # composite is checked when d2 is first read, and again on every read
    from fractions import Fraction as F
    d = linwin.OperatorMatrix(_numbers(1), _numbers(2), (((0, F(1, 2)), (1, F(1, 3))),))

    def after(second_column):
        d2 = linwin.OperatorMatrix(_numbers(2), _numbers(2),
                                   (((0, F(1)), (1, F(1, 3))), second_column))
        return FilteredSlice((0, 1, 2), lambda n: ((d.domain, d.codomain, d2.codomain)[n],
                                                   ((0,), (0, 0), (0, 0))[n]),
                             {0: d, 1: d2}.get)

    assert collapse_at(after(((0, F(-3, 2)), (1, F(-1, 2))))) == 1
    fs = after(((0, F(-3, 2)),))
    assert page(fs, 1, 0, 0).dim == 0
    for read in (lambda: fs.diff(1), lambda: page(fs, 1, 0, 1)):
        with pytest.raises(CompositionError, match="does not square to zero at degree 0"):
            read()


def test_a_pages_pass_pairs_and_squares_each_differential_once(monkeypatch):
    # the bench pages pass, window 2:1 up to total 4, on fresh slices: each
    # differential a slice builds is eliminated once and composed once with
    # the one below it, and none out of a degree above 4 is built
    from collections import Counter
    from functools import lru_cache
    from kdvcohom import acceptance

    built = []

    @lru_cache(maxsize=None)
    def fresh_slice(k, c):
        fs = pencil_filtered_slice.__wrapped__(k, c)
        built.append(fs)
        return fs

    monkeypatch.setattr(acceptance, "pencil_filtered_slice", fresh_slice)
    eliminated, composed = Counter(), Counter()
    pairs, apply_all = FilteredSlice.pairs, linwin.OperatorMatrix.apply_all

    def counting_pairs(self, n):
        eliminated[id(self), n] += n not in self._pairs and self.diff(n) is not None
        return pairs(self, n)

    def counting_apply_all(self, vecs):
        composed[id(self), id(vecs)] += 1
        return apply_all(self, vecs)

    monkeypatch.setattr(FilteredSlice, "pairs", counting_pairs)
    monkeypatch.setattr(linwin.OperatorMatrix, "apply_all", counting_apply_all)
    w = Window(2, 1)
    for r in (1, 2, 3):
        for n in range(5):
            for p in range(n + 1):
                acceptance.windowed_page_count(r, p, n - p, w)
    for fs in built:
        for n in list(fs._diffs):
            fs.pairs(n)
    diffs = [(fs, n, d) for fs in built for n, d in fs._diffs.items() if d is not None]
    assert diffs and max(n for _, n, _ in diffs) <= 4
    assert +eliminated == Counter((id(fs), n) for fs, n, _ in diffs)
    assert composed == Counter((id(d), id(fs._diffs[n - 1].cols)) for fs, n, d in diffs
                               if fs._diffs.get(n - 1) is not None)
