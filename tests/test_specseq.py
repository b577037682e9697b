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


def _slice(degrees, bases, levels, ops):
    diffs = {}
    for n, op in ops.items():
        diffs[n] = operator_matrix(op, bases[n], bases[n + 1])
    return FilteredSlice(degrees=tuple(degrees), bases=bases,
                         levels={n: tuple(levels[n]) for n in degrees},
                         diffs=diffs, label="toy")


def test_zero_differential_collapses_at_zero():
    from kdvcohom.algebra import Bidegree, ZERO
    b0 = _basis(Bidegree(0, 0), ["1", "u"])
    b1 = _basis(Bidegree(1, 1), ["t1"])
    fs = _slice([0, 1], {0: b0, 1: b1}, {0: [0, 0], 1: [1]},
                {0: lambda a: ZERO})
    fs.validate()
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
    fs.validate()
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
    fs.validate()
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
    with pytest.raises(CompositionError,
                       match="level drops along the differential at degree 0"):
        _slice([0, 1], {0: b0, 1: b1}, {0: [1], 1: [0]},
               {0: lambda a: poly("t1") * a.coeff(mono(u0=1))})


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
    target = fs.bases[4].vector_of(img)
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
    basis = fs.bases.get(n)
    if not basis:
        return 0
    rel, _ = rref(b_rows(fs, r - 1, p, n) + z_rows(fs, r - 1, p + 1, n))
    return len(quotient_representatives(basis, z_rows(fs, r, p, n), rel))


def _scan_dr_is_zero(fs, r):
    """d_r vanishes, read off every page-r differential matrix."""
    lo, hi = fs.min_level(), fs.max_level()
    return not any(any(col) for n in fs.degrees for p in range(lo, hi + 1)
                   for col in page_dr_matrix(fs, r, p, n - p)[2])


def _scan_collapse_at(fs):
    bound = _span_bound(fs)
    flags = [_scan_dr_is_zero(fs, r) for r in range(bound + 1)]
    return next((r for r in range(bound + 1) if all(flags[r:])), bound + 1)


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
    for c in range(7):
        fs = pencil_filtered_slice(k, c, d_cap=7)
        for n in fs.degrees:
            if fs.leaves_slice(n):
                continue
            for r in (1, 2, 3):
                for p in range(fs.min_level(), fs.max_level() + 1):
                    assert page(fs, r, p, n - p).dim == _span_dim(fs, r, p, n), \
                        (c, r, p, n)


@pytest.mark.parametrize("k,c", UNTRUNCATED)
def test_b_rows_is_the_filtered_image(k, c):
    # B_{r-1}(p) from its definition: the images of the columns at domain
    # level >= p - r, kept where they vanish below level p
    fs = pencil_filtered_slice(k, c)
    for n in fs.degrees:
        d = fs.diffs.get(n - 1)
        if d is None:
            continue
        lv_dom, lv = fs.levels[n - 1], fs.levels[n]
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


def test_every_reader_of_a_cut_top_raises():
    fs = pencil_filtered_slice(2, 3, d_cap=5)
    top = fs.degrees[-1]
    assert fs.cut and top not in fs.diffs and fs.leaves_slice(top)
    # every position of the top with F^p nonzero, empty pages included
    for r in (1, 2, 3):
        for p in sorted(set(fs.levels[top])):
            with pytest.raises(ValueError, match="truncation boundary"):
                page(fs, r, p, top - p)
            with pytest.raises(ValueError, match="truncation boundary"):
                z_rows(fs, r, p, top)
    with pytest.raises(ValueError, match="truncation boundary"):
        homology_at(fs, top)
    assert homology_at(fs, top - 1) == homology_at(pencil_filtered_slice(2, 3), top - 1)
    # the true top of an uncut slice maps into the empty piece, as always
    whole = pencil_filtered_slice(2, 3)
    assert not whole.cut and not len(whole.diffs[whole.degrees[-1]].codomain)
    assert not any(whole.leaves_slice(n) for n in whole.degrees)


def test_validate_rejects_a_differential_that_leaves_the_slice():
    from kdvcohom.algebra import Bidegree
    from kdvcohom.kdvpencil import D1
    b0 = _basis(Bidegree(0, 0), ["u"])
    b1 = _basis(Bidegree(1, 1), ["t1"])
    d = operator_matrix(D1, b0, b1)
    with pytest.raises(CompositionError, match="leaves the slice at degree 0"):
        FilteredSlice(degrees=(0,), bases={0: b0}, levels={0: (0,)}, diffs={0: d})
    # a cut slice holds no differential out of its top either
    with pytest.raises(CompositionError, match="leaves the slice at degree 1"):
        FilteredSlice(degrees=(0, 1), bases={0: b0, 1: b1}, levels={0: (0,), 1: (1,)},
                      diffs={0: d, 1: operator_matrix(D1, b1, b1)}, cut=True)
    fs = FilteredSlice(degrees=(0, 1), bases={0: b0, 1: b1}, levels={0: (0,), 1: (1,)},
                       diffs={0: d}, cut=True)
    assert fs.leaves_slice(1) and not fs.leaves_slice(0)
    assert page(fs, 1, 0, 0).dim == 1


@pytest.mark.parametrize("k", range(-1, 5))
def test_pages_read_no_degree_past_the_next_one(k):
    # E_r at total n reads degrees n - 1, n and n + 1 only, so a slice cut
    # at n + 1 gives the very entries of the slice cut at 7
    for c in range(7):
        full = pencil_filtered_slice(k, c, d_cap=7)
        for n in full.degrees:
            if n > 5:
                continue
            near = pencil_filtered_slice(k, c, d_cap=n + 1)
            for r in (1, 2, 3):
                for p in range(full.min_level(), full.max_level() + 1):
                    a, b = page(near, r, p, n - p), page(full, r, p, n - p)
                    assert (a.dim, a.reps, a.relation_rows) == \
                        (b.dim, b.reps, b.relation_rows), (c, r, p, n)


def test_truncation_boundary_pages_raise():
    fs = pencil_filtered_slice(2, 3, d_cap=5)
    top = fs.degrees[-1]
    assert fs.leaves_slice(top)
    with pytest.raises(ValueError, match="truncation boundary"):
        page(fs, 1, fs.max_level(), top - fs.max_level())
    for whole_slice in (collapse_at, converge_check):
        with pytest.raises(ValueError, match="truncation boundary"):
            whole_slice(fs)
    # one degree down every page is still available
    p = fs.max_level()
    assert page(fs, 1, p, top - 1 - p).dim == _span_dim(fs, 1, p, top - 1)


# -- the shared pairing against one global elimination ---------------------------


def _global_pairing(fs):
    """The pairing of fs from one elimination over every degree at once: the
    vectors numbered by (level, degree, index), the columns put into one
    Echelon from the highest number down, a column paired with the pivot it
    adds; gaps by (degree, level), in basis order."""
    order = sorted((lv, n, i) for n in fs.degrees for i, lv in enumerate(fs.levels[n]))
    index = {(n, i): k for k, (_, n, i) in enumerate(order)}
    cols = []
    for _, n, i in reversed(order):
        d = fs.diffs.get(n)
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


def _check_against_the_global_pairing(fs):
    want = _global_pairing(fs)
    assert dict(fs._pairing) == want
    if fs.cut:
        with pytest.raises(ValueError, match="truncation boundary"):
            collapse_at(fs)
    else:
        assert collapse_at(fs) == 1 + max(
            (g for gaps in want.values() for g in gaps if g is not None), default=-1)
    for (n, p), gaps in want.items():
        if fs.leaves_slice(n):
            continue
        for r in (1, 2, 3):
            assert page(fs, r, p, n - p).dim == sum(g is None or g >= r for g in gaps), \
                (r, p, n)


CUT_PIECES = [(k, c) for k in range(-1, 5) for c in range(7)]


@pytest.mark.parametrize("caps", [range(7, 0, -1), range(1, 8)],
                         ids=["highest-cap-first", "lowest-cap-first"])
@pytest.mark.parametrize("k,c", CUT_PIECES)
def test_every_cut_shares_the_pairs_of_one_global_elimination(k, c, caps, monkeypatch):
    # fresh slices and an empty store, so each cut finds the work of the
    # cuts built before it: from the highest cap down the first cut does it
    # all, from the lowest up each cut adds the work of its new degree
    monkeypatch.setattr(specseq, "_WORK", {})
    for cap in caps:
        _check_against_the_global_pairing(pencil_filtered_slice.__wrapped__(k, c, cap))


@pytest.mark.parametrize("k,c", [(k, c) for k in range(-1, 4) for c in range(6)])
def test_whole_pieces_pair_as_one_global_elimination(k, c, monkeypatch):
    monkeypatch.setattr(specseq, "_WORK", {})
    _check_against_the_global_pairing(pencil_filtered_slice.__wrapped__(k, c))


def _numbers(n):
    """A basis of n stand-in monomials, for matrices that are only numbers."""
    from kdvcohom.algebra import Bidegree, Monomial
    return SliceBasis(Bidegree(0, 0), None, tuple(Monomial(lam=i) for i in range(n)))


def test_shared_pairs_follow_the_levels():
    # one matrix, d(a) = d(b) = x, in slices with other levels: the higher
    # of a and b takes the pair, so each slice needs its own pairs, and a
    # level that drops along d is caught whatever slice checked d before
    from fractions import Fraction as F
    d = linwin.OperatorMatrix(_numbers(2), _numbers(1), (((0, F(1)),), ((0, F(1)),)))

    def two_degrees(lv0, lv1):
        return FilteredSlice(degrees=(0, 1), bases={0: d.domain, 1: d.codomain},
                             levels={0: lv0, 1: lv1}, diffs={0: d}, cut=True)

    first = two_degrees((0, 1), (1,))
    assert dict(first._pairing) == {(0, 0): (None,), (0, 1): (0,), (1, 1): (0,)}
    second = two_degrees((1, 0), (2,))
    assert dict(second._pairing) == _global_pairing(second) == \
        {(0, 0): (None,), (0, 1): (1,), (1, 2): (1,)}
    assert page(second, 2, 0, 0).dim == 1 and page(second, 1, 1, -1).dim == 1
    with pytest.raises(CompositionError, match="level drops along the differential"):
        two_degrees((1, 1), (0,))


def test_work_leaves_the_store_with_its_matrix():
    # the store keys each differential's work by the matrix itself, weakly:
    # once a hand-built matrix is collected its work is gone, and a new
    # matrix with the same columns runs its own level check
    import gc
    import weakref
    from fractions import Fraction as F
    cols = (((1, F(1)),),)

    def two_degrees(lv_cod):
        d = linwin.OperatorMatrix(_numbers(1), _numbers(2), cols)
        FilteredSlice(degrees=(0, 1), bases={0: d.domain, 1: d.codomain},
                      levels={0: (1,), 1: lv_cod}, diffs={0: d}, cut=True)
        return d

    d = two_degrees((0, 1))
    assert d in specseq._WORK
    gone = weakref.ref(d)
    del d
    gc.collect()
    assert gone() is None
    with pytest.raises(CompositionError, match="level drops along the differential"):
        two_degrees((1, 0))


def test_a_checked_square_holds_only_for_its_next_matrix():
    # d2 d = 0 for one d2 says nothing of another d2 after the same d
    from fractions import Fraction as F
    d = linwin.OperatorMatrix(_numbers(1), _numbers(2), (((0, F(1, 2)), (1, F(1, 3))),))

    def after(second_column):
        d2 = linwin.OperatorMatrix(_numbers(2), _numbers(2),
                                   (((0, F(1)), (1, F(1, 3))), second_column))
        return FilteredSlice(degrees=(0, 1, 2),
                             bases={0: d.domain, 1: d.codomain, 2: d2.codomain},
                             levels={0: (0,), 1: (0, 0), 2: (0, 0)},
                             diffs={0: d, 1: d2}, cut=True)

    after(((0, F(-3, 2)), (1, F(-1, 2)))).validate()
    with pytest.raises(CompositionError, match="does not square to zero at degree 0"):
        after(((0, F(-3, 2)),))


def test_a_pages_pass_pairs_and_squares_each_differential_once(monkeypatch):
    # the bench pages pass, window 2:1 up to total 4, on fresh slices and an
    # empty store: each distinct differential the slices hold is eliminated
    # once, and each distinct consecutive pair of them composed once
    from collections import Counter
    from functools import lru_cache
    from kdvcohom import acceptance

    built = []

    @lru_cache(maxsize=None)
    def fresh_slice(k, c, d_cap=None):
        fs = pencil_filtered_slice.__wrapped__(k, c, d_cap)
        built.append(fs)
        return fs

    monkeypatch.setattr(acceptance, "pencil_filtered_slice", fresh_slice)
    monkeypatch.setattr(specseq, "_WORK", {})
    eliminated, composed = Counter(), Counter()
    pairs, apply_all = specseq._DegreeWork.pairs, linwin.OperatorMatrix.apply_all

    def counting_pairs(self, d, below):
        eliminated[id(d)] += self._pairs is None
        return pairs(self, d, below)

    def counting_apply_all(self, vecs):
        composed[id(self), id(vecs)] += 1
        return apply_all(self, vecs)

    monkeypatch.setattr(specseq._DegreeWork, "pairs", counting_pairs)
    monkeypatch.setattr(linwin.OperatorMatrix, "apply_all", counting_apply_all)
    w = Window(2, 1)
    for r in (1, 2, 3):
        for n in range(5):
            for p in range(n + 1):
                acceptance.windowed_page_count(r, p, n - p, w)
    for fs in built:
        fs._pairing
    diffs = {id(d): d for fs in built for d in fs.diffs.values()}
    steps = {(id(fs.diffs[n + 1]), id(d.cols)) for fs in built
             for n, d in fs.diffs.items() if n + 1 in fs.diffs}
    assert eliminated == Counter(diffs.keys())
    assert composed == Counter(steps)
    # the cuts of a piece share its differentials
    assert len(diffs) < sum(len(fs.diffs) for fs in built)
