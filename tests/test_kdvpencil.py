"""Pencil operators, filtration bookkeeping, explicit page maps, homotopy.

The page-one differential values below were computed by hand from the
closed formula (prolong the pencil field, set the parameter to u, add the
column correction, multiply back into the column) before implementing it.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings

from kdvcohom.algebra import (Bidegree, Monomial, ZERO, bidegree, lam_var, poly, theta,
                              u_jet)
from kdvcohom.kdvpencil import (
    D1,
    D2,
    DLAMBDA,
    HomotopySingularityError,
    P1_DENSITY,
    P2_DENSITY,
    d1_explicit,
    d1_piece_matrix,
    d2_piece_matrix,
    d_lambda,
    dlambda_piece_matrix,
    e1_basis,
    filtration_level,
    h_op,
    pencil_filtered_slice,
    subcomplex_bidegrees,
    u_weight,
)
from kdvcohom import kdvpencil, varcalc
from kdvcohom.cohomeng import piece_homology, spots_up_to
from kdvcohom.linwin import Window, enumerate_piece_basis, operator_matrix, rank_of
from kdvcohom.specseq import FilteredSlice, homology_at, page
from kdvcohom.varcalc import dtot_piece_matrix

from test_algebra import derivation_reference, st_poly


def test_pencil_seeds():
    assert D1.even_seed == theta(1)
    assert D1.odd_seed == ZERO
    assert D2.even_seed == poly("u t1 + 1/2 u1 t0")
    assert D2.odd_seed == poly("1/2 t0 t1")
    assert DLAMBDA.even_seed == poly("u t1 + -1 l t1 + 1/2 u1 t0")
    assert DLAMBDA.odd_seed == poly("1/2 t0 t1")


def test_d_lambda_on_generators():
    assert d_lambda(u_jet(0)) == poly("u t1 + -1 l t1 + 1/2 u1 t0")
    assert d_lambda(theta(0)) == poly("1/2 t0 t1")
    assert d_lambda(theta(2)) == poly("1/2 t1 t2 + 1/2 t0 t3")


@settings(max_examples=40)
@given(st_poly)
def test_d_lambda_is_pencil_combination(a):
    from kdvcohom.algebra import lam_var
    assert d_lambda(a) == D2(a) - lam_var() * D1(a)


@pytest.mark.parametrize("text", ["u", "t0", "u1 t1", "u u1 t0", "u2 t0 t1", "l u t2"])
def test_differentials_square_to_zero_pointwise(text):
    a = poly(text)
    assert d_lambda(d_lambda(a)) == ZERO
    assert D1(D1(a)) == ZERO
    assert D2(D2(a)) == ZERO
    assert D1(D2(a)) + D2(D1(a)) == ZERO


def test_pencil_raises_both_degrees_and_keeps_count():
    a = poly("u u1 t0")
    img = d_lambda(a)
    assert bidegree(img) == Bidegree(2, 2)
    assert {m.ucount() for m in img.monomials()} == {2}


# -- filtration ---------------------------------------------------------------


def test_filtration_level():
    assert filtration_level(poly("u2 t0 t3").monomials()[0]) == 2
    assert filtration_level(poly("u t0")) == 0
    assert filtration_level(poly("u1 u2 + u3")) == 0
    assert filtration_level(ZERO) is None


def test_subcomplex_bidegrees():
    assert subcomplex_bidegrees(-1) == [Bidegree(1, 0), Bidegree(2, 1)]
    assert subcomplex_bidegrees(0) == [Bidegree(0, 0), Bidegree(1, 1),
                                       Bidegree(2, 2), Bidegree(3, 3)]
    assert subcomplex_bidegrees(1) == [Bidegree(0, 1), Bidegree(1, 2),
                                       Bidegree(2, 3), Bidegree(3, 4)]
    assert subcomplex_bidegrees(2)[-1] == Bidegree(4, 6)
    assert len(subcomplex_bidegrees(2)) == 5
    assert subcomplex_bidegrees(-2) == []


# -- page zero ----------------------------------------------------------------


def d0_explicit(x, q):
    """The page-zero differential on the column of top order q, from its
    closed formula: only the order-q variables act, u^q by
    (u - l) t^(q+1) + 1/2 u^(q+1) t0 and t^q by 1/2 t0 t^(q+1), as a
    derivation summed term by term in Fractions.  An oracle for the
    leading part of the pencil differential."""
    even = (u_jet(0) - lam_var()) * theta(q + 1) + Fraction(1, 2) * u_jet(q + 1) * theta(0)
    odd = Fraction(1, 2) * theta(0) * theta(q + 1)
    return derivation_reference(x, lambda s: even if s == q else ZERO,
                                lambda s: odd if s == q else ZERO)


def test_d0_explicit_frozen():
    got = d0_explicit(poly("u1 t1"), 1)
    want = poly("-1 u t1 t2 + l t1 t2 + 1/2 u2 t0 t1 + 1/2 u1 t0 t2")
    assert got == want
    assert d0_explicit(u_jet(0), 0) == poly("u t1 + -1 l t1 + 1/2 u1 t0")
    assert d0_explicit(theta(0), 0) == poly("1/2 t0 t1")


@pytest.mark.parametrize("text", ["u1 t1", "u2 t0", "u1^2 t0", "u t2", "u3 t1 t2"])
def test_d0_is_leading_part_of_pencil(text):
    # the graded differential keeps exactly the terms whose top order rises
    from kdvcohom.algebra import DiffPoly
    a = poly(text)
    q = max(m.max_jet() for m in a.monomials())
    lead = ZERO
    for m, c in d_lambda(a).items():
        if m.max_jet() == q + 1:
            lead = lead + DiffPoly.monomial(m, c)
    assert d0_explicit(a, q) == lead


@pytest.mark.parametrize("text,q", [("u1 t1", 1), ("u2 t0 t1", 2), ("u t0", 0)])
def test_d0_squares_to_zero(text, q):
    a = poly(text)
    assert d0_explicit(d0_explicit(a, q), q + 1) == ZERO


# -- page one -----------------------------------------------------------------


def test_e1_basis_corner_and_main():
    w = Window(2, 3)
    corner = e1_basis(0, 0, w)
    assert [m.format() or "1" for m in corner.monomials] == ["1", "l", "l^2", "l^3"]
    main = e1_basis(1, 2, Window(2, 2))
    assert [m.format() for m in main.monomials] == [
        "t0 t1 t2", "u1 t0 t2", "u t0 t1 t2", "u u1 t0 t2",
        "u^2 t0 t1 t2", "u^2 u1 t0 t2"]


def test_e1_basis_vanishing_positions():
    w = Window(3, 3)
    assert len(e1_basis(1, 1, w)) == 0
    assert len(e1_basis(0, 2, w)) == 0
    assert len(e1_basis(2, 4, w)) == 0   # p <= q - 2 forces an order gap
    assert len(e1_basis(3, 1, w)) == 0


def test_d1_explicit_frozen():
    assert d1_explicit(poly("u1 t0 t2"), 2) == poly("-3/2 u1 t0 t1 t2")
    assert d1_explicit(poly("u u1 t0 t2"), 2) == poly("-3/2 u u1 t0 t1 t2")
    assert d1_explicit(poly("u1^2 t0 t2"), 2) == poly("-3 u1^2 t0 t1 t2")
    assert d1_explicit(poly("t0 t1 t2"), 2) == ZERO
    got = d1_explicit(poly("u2 t0 t3"), 3)
    assert got == poly("-5/2 u2 t0 t1 t3 + -5/2 u1 t0 t2 t3")


def test_d1_explicit_validates_input():
    with pytest.raises(ValueError):
        d1_explicit(poly("u1 t0 t2"), 1)
    with pytest.raises(ValueError):
        d1_explicit(poly("u1 t1 t2"), 2)      # missing t0
    with pytest.raises(ValueError):
        d1_explicit(poly("l u1 t0 t2"), 2)    # parameter not allowed
    with pytest.raises(ValueError):
        d1_explicit(poly("u2 t0 t2"), 2)      # cofactor order too high


# -- weighting and homotopy -----------------------------------------------------


def test_u_weight_frozen():
    assert u_weight(poly("u1 t0 t2").monomials()[0]) == poly("3/2").coeff(Monomial())
    assert u_weight(poly("t0 t1 t2").monomials()[0]) == 0
    assert u_weight(Monomial()) == 0
    assert u_weight(poly("l^3 u^5").monomials()[0]) == 0


def test_h_op_frozen():
    assert h_op(poly("-1 u1 t0 t1 t2"), 2, 2) == poly("2/3 u1 t0 t2")
    assert h_op(poly("u1^2 t0 t2"), 2, 2) == ZERO


def test_h_op_singularities():
    with pytest.raises(HomotopySingularityError):
        h_op(poly("u t0 t1 t2"), 1, 2)
    with pytest.raises(HomotopySingularityError):
        # weight of the differentiated monomial vanishes
        h_op(poly("u t0 t1 t2"), 2, 2)
    with pytest.raises(ValueError):
        h_op(poly("u1 t0 t2"), 0, 2)


def test_homotopy_identity_smoke():
    # contracted positions: h d1 + d1 h is the identity
    for text, p, q in [("u1^2 t0 t2", 2, 2), ("u1 t0 t1 t2", 2, 2),
                       ("u u1^2 t0 t2", 2, 2), ("u2 t0 t3", 2, 3)]:
        v = poly(text)
        back = h_op(d1_explicit(v, q), p + 1, q) + d1_explicit(h_op(v, p, q), q)
        assert back == v, text


# -- the filtered complex ---------------------------------------------------------


def test_pencil_filtered_slice_shapes():
    fs = pencil_filtered_slice(0, 1)
    assert fs.degrees == (0, 1, 2, 3)
    assert [fs.dim(n) for n in fs.degrees] == [2, 3, 3, 2]
    # reading a differential builds and checks it
    assert all(fs.diff(n) is not None for n in fs.degrees)
    fs1 = pencil_filtered_slice(1, 1)
    assert [fs1.dim(n) for n in fs1.degrees] == [1, 4, 6, 3]
    assert all(fs1.diff(n) is not None for n in fs1.degrees)
    assert pencil_filtered_slice(-2, 3).degrees == ()


def test_pencil_slice_degrees_share_one_basis():
    # every piece basis is enumerated once: the codomain of a differential
    # is the very basis object of the next degree
    for k in range(-1, 5):
        for c in range(8):
            fs = pencil_filtered_slice(k, c)
            for n in fs.degrees[:-1]:
                if n < 7:
                    assert fs.diff(n).codomain is fs.basis(n + 1), (k, c, n)
    # and every other user of a piece gets that same object too
    from kdvcohom.cohomeng import piece_homology
    for p, d, c in [(1, 1, 2), (2, 3, 1), (3, 3, 2), (2, 4, 3)]:
        mat = dlambda_piece_matrix(p, d, c)
        assert piece_homology("dlambda_A", p, d, c).basis is mat.domain, (p, d, c)
        assert d1_piece_matrix(p, d, c).domain is d2_piece_matrix(p, d, c).domain


def test_pencil_blocks_match_the_derivation():
    # the reference applies the pencil to every monomial, with no blocks
    pieces = 0
    for k in range(-1, 7):
        for bd in subcomplex_bidegrees(k):
            if bd.d > 7:
                continue
            for c in range(10):
                mat = dlambda_piece_matrix(bd.p, bd.d, c)
                up = Bidegree(bd.p + 1, bd.d + 1)
                want = operator_matrix(DLAMBDA, enumerate_piece_basis(bd, c),
                                       enumerate_piece_basis(up, c))
                assert mat.domain is want.domain and mat.codomain is want.codomain
                assert mat.cols == want.cols, (bd, c)
                assert repr(mat.cols) == repr(want.cols), (bd, c)
                pieces += 1
    assert pieces == 290


# The oracle of the substitution v = u - l.  P2 - l P1 = (u - l) t0 t1 / 2,
# and v has the jets of u, so v = u - l carries the pencil differential on
# the piece (p, d, c) to d2 on the sum over a of l^a times the l-free piece
# (p, d, c - a); it keeps jet orders, filtration levels and dtot.  The l-free
# side is built from d2 and dtot blocks alone: no lambda_lift, no d1 block.
# It cannot see a flipped sign, since d2 + l d1 is d2 again through v = u + l.


def _d2_homology(p, d, c, functionals):
    """dim H(d2) on the l-free piece (p, d, c), modulo dtot when
    functionals is set, from ranks alone."""
    def rels(p, d):
        return list(dtot_piece_matrix(p, d, c, False).cols) if functionals else []

    def rank_into(p, d):
        return rank_of([*d2_piece_matrix(p - 1, d - 1, c).cols, *rels(p, d)]) - rank_of(rels(p, d))

    size = len(enumerate_piece_basis(Bidegree(p, d), c, False)) - rank_of(rels(p, d))
    return size - rank_into(p + 1, d + 1) - rank_into(p, d)


def _d2_slice(k, c):
    """The l-free piece of count c with d2, filtered as pencil_filtered_slice
    filters the pencil pieces."""
    spots = {bd.d: bd for bd in subcomplex_bidegrees(k)}

    def piece(n):
        basis = enumerate_piece_basis(spots[n], c, False)
        return basis, tuple(n - m.max_jet() for m in basis.monomials)

    return FilteredSlice(tuple(spots), piece,
                         lambda n: d2_piece_matrix(spots[n].p, n, c), f"d2 k={k} c={c}")


def test_pencil_cohomology_is_the_sum_of_lambda_free_d2_cohomology():
    nonzero = {"dlambda_A": 0, "dlambda_F": 0}
    for bd in spots_up_to(5):
        for c in range(7):
            for kind in ("dlambda_A", "dlambda_F") if c <= 5 else ("dlambda_A",):
                want = sum(_d2_homology(*bd, c - a, kind == "dlambda_F") for a in range(c + 1))
                assert piece_homology(kind, *bd, c).dim == want, (kind, bd, c)
                nonzero[kind] += want > 0
    assert nonzero == {"dlambda_A": 14, "dlambda_F": 18}


def test_pencil_pages_are_the_sums_of_lambda_free_d2_pages():
    entries = 0
    for k in range(-1, 4):
        for c in range(6):
            fs = pencil_filtered_slice(k, c)
            parts = [_d2_slice(k, c - a) for a in range(c + 1)]
            for n in (n for n in fs.degrees if n <= 7):
                for p in sorted(set(fs.levels(n))):
                    for r in range(4):
                        want = sum(page(part, r, p, n - p).dim for part in parts)
                        assert page(fs, r, p, n - p).dim == want, (k, c, n, p, r)
                        entries += 1
    assert entries == 960


def test_pencil_slice_applies_no_pencil_to_monomials(monkeypatch):
    applied = {}
    apply_op = varcalc.apply_op

    def counting(op, a):
        applied[op.name] = applied.get(op.name, 0) + 1
        return apply_op(op, a)

    monkeypatch.setattr(varcalc, "apply_op", counting)
    monkeypatch.setattr(kdvpencil, "_PIECE_CACHE", {})
    fs = pencil_filtered_slice.__wrapped__(2, 6)
    got = [tuple(homology_at(fs, n)) for n in fs.degrees]
    assert DLAMBDA.name not in applied
    assert applied["d1"] > 0 and applied["d2"] > 0
    assert got == [tuple(homology_at(pencil_filtered_slice(2, 6), n)) for n in fs.degrees]


def _recording_enumeration(monkeypatch):
    """The degrees of every piece basis enumerated from now on, in order,
    with the piece matrices built anew."""
    from kdvcohom import linwin
    enumerated = []
    piece_basis = linwin._piece_basis

    def recording(bd, c, lam):
        enumerated.append(bd.d)
        return piece_basis(bd, c, lam)

    monkeypatch.setattr(linwin, "_piece_basis", recording)
    monkeypatch.setattr(kdvpencil, "_PIECE_CACHE", {})
    return enumerated


def test_a_fresh_slice_enumerates_no_basis_until_read(monkeypatch):
    enumerated = _recording_enumeration(monkeypatch)
    fs = pencil_filtered_slice.__wrapped__(2, 3)
    assert fs.degrees == (2, 3, 4, 5, 6) and enumerated == []
    # a degree's levels come with its basis, enumerated once
    assert len(fs.levels(4)) == fs.dim(4) == len(fs.basis(4))
    assert enumerated == [4]


def test_cut_slice_stops_at_its_top_basis(monkeypatch):
    # a slice read up to the differential out of degree 4 stops at the
    # basis of degree 5, its codomain
    enumerated = _recording_enumeration(monkeypatch)
    fs = pencil_filtered_slice.__wrapped__(2, 3)
    assert fs.diff(4).codomain is fs.basis(5)
    assert all(fs.diff(n).codomain is fs.basis(n + 1) for n in (2, 3))
    assert enumerated and max(enumerated) == 5
    # read whole, the top maps into the empty piece past it
    top = fs.degrees[-1]
    assert top == 6 and len(fs.diff(top).codomain) == 0 and fs.basis(top + 1) is None


def test_pencil_filtered_slice_levels():
    fs = pencil_filtered_slice(0, 1)
    b = fs.basis(3)
    assert all(lv == 3 - m.max_jet() for lv, m in zip(fs.levels(3), b.monomials))


def test_cached_piece_matrices_cannot_be_mutated():
    # cached matrices are shared by every later query in the process
    from kdvcohom.cohomeng import piece_homology, windowed_dim
    for c in range(6):
        mat = dlambda_piece_matrix(1, 1, c)
        for col in mat.cols:
            with pytest.raises(AttributeError):
                col.clear()
        with pytest.raises(dataclasses.FrozenInstanceError):
            mat.cols = ()
    # so are the bases they share
    basis = dlambda_piece_matrix(3, 3, 2).domain
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.monomials = ()
    with pytest.raises(TypeError):
        basis._index[basis.monomials[0]] = 1
    piece_homology.cache_clear()
    assert windowed_dim("dlambda_A", 1, 1, Window(2, 1)) == 0
    assert windowed_dim("dlambda_A", 3, 3, Window(2, 1)) == 3


def test_cached_filtered_slice_cannot_be_mutated():
    fs = pencil_filtered_slice(2, 3)
    with pytest.raises(TypeError):
        fs.levels(3)[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fs.degrees = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        fs.label = ""
    assert pencil_filtered_slice(2, 3) is fs
    assert [tuple(homology_at(fs, n)) for n in fs.degrees] == [
        (0, 0, 0), (5, 5, 0), (13, 13, 0), (12, 12, 0), (4, 4, 0)]
