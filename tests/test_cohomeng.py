"""Exact piece cohomology, windowed reporting, comparison and the LES."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvcohom import algebra, cohomeng, varcalc
from kdvcohom.algebra import Bidegree, mono, poly
from kdvcohom.cohomeng import (
    EXCEPTIONAL_BIDEGREES,
    KINDS,
    ExceptionalBidegreeError,
    class_coords,
    compare_bh_vs_lambda,
    dims_table,
    les_rank_audit,
    p_bound,
    piece_homology,
    spots_up_to,
    stabilized,
    windowed_dim,
)
from kdvcohom.linwin import (
    DEFAULT_LADDER,
    Window,
    dense,
    enumerate_piece_basis,
    operator_matrix,
    rank_of,
)


def test_p_bound():
    assert [p_bound(d) for d in range(7)] == [1, 2, 2, 3, 3, 3, 4]


def test_pencil_cohomology_pieces_frozen():
    for c in range(4):
        ph = piece_homology("dlambda_A", 0, 0, c)
        assert ph.dim == 1
        assert ph.reps[0][1] == mono(lam=c)
    for c in range(4):
        assert piece_homology("dlambda_A", 2, 1, c).dim == 0
        assert piece_homology("dlambda_A", 1, 1, c).dim == 0
        assert piece_homology("dlambda_A", 2, 2, c).dim == 0
    for c in range(4):
        ph = piece_homology("dlambda_A", 3, 3, c)
        assert ph.dim == 1
        assert ph.reps[0][1] == mono(u0=c, odd=(0, 1, 2))


def test_first_structure_homology_pieces():
    assert piece_homology("d1_A", 0, 0, 0).dim == 1
    assert piece_homology("d1_A", 1, 0, 0).reps[0][1] == mono(odd=(0,))
    for c in range(1, 4):
        assert piece_homology("d1_A", 0, 0, c).dim == 0
        assert piece_homology("d1_A", 1, 0, c).dim == 0
    for p, d in [(1, 1), (2, 1), (2, 2), (3, 3), (2, 3)]:
        for c in range(4):
            assert piece_homology("d1_A", p, d, c).dim == 0, (p, d, c)


def test_joint_kernel_pieces_frozen():
    assert piece_homology("bh_A", 0, 0, 0).dim == 1
    assert piece_homology("bh_A", 0, 0, 1).dim == 0
    for c in range(4):
        assert piece_homology("bh_A", 2, 1, c).reps[0][1] == mono(u0=c, odd=(0, 1))
        assert piece_homology("bh_A", 3, 3, c).reps[0][1] == mono(u0=c, odd=(0, 1, 2))
        assert piece_homology("bh_A", 1, 1, c).dim == 0
    assert piece_homology("bh_F", 0, 0, 0).dim == 1
    assert piece_homology("bh_F", 0, 0, 1).dim == 0
    assert piece_homology("bh_F", 1, 1, 0).dim == 0
    for c in range(1, 5):
        ph = piece_homology("bh_F", 1, 1, c)
        assert ph.dim == 1
        assert ph.reps[0][1] == mono(u0=c - 1, even=((1, 1),), odd=(0,))
    for c in range(4):
        assert piece_homology("bh_F", 2, 1, c).reps[0][1] == mono(u0=c, odd=(0, 1))
        assert piece_homology("bh_F", 2, 3, c).dim == 1
        assert piece_homology("bh_F", 3, 3, c).dim == 1


def test_functional_pencil_pieces():
    # the two low positions vanish here although the joint kernel does not
    for c in range(4):
        assert piece_homology("dlambda_F", 1, 1, c).dim == 0
        assert piece_homology("dlambda_F", 2, 1, c).dim == 0
        assert piece_homology("dlambda_F", 2, 3, c).dim == 1
        assert piece_homology("dlambda_F", 3, 3, c).dim == 1
    for c in range(4):
        ph = piece_homology("dlambda_F", 0, 0, c)
        assert ph.dim == 1 and ph.reps[0][1] == mono(lam=c)


def test_quotient_by_constants_pieces():
    for c in range(3):
        assert piece_homology("dlambda_Q", 0, 0, c).dim == 0
    # the connecting partner of the functional classes one degree up
    for c in range(3):
        assert piece_homology("dlambda_Q", 3, 3, c).dim == 1


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        piece_homology("dlambda_X", 0, 0, 0)


def test_windowed_dims_frozen():
    w = Window(3, 2)
    assert windowed_dim("dlambda_A", 0, 0, w) == 3
    assert windowed_dim("dlambda_A", 3, 3, w) == 4
    assert windowed_dim("dlambda_A", 2, 1, w) == 0
    assert windowed_dim("bh_A", 2, 1, w) == 4
    assert windowed_dim("bh_F", 1, 1, w) == 4
    assert windowed_dim("bh_F", 0, 0, w) == 1


@pytest.mark.parametrize("kind,p,d", [("dlambda_A", 3, 3), ("bh_F", 1, 1),
                                      ("bh_A", 2, 1)])
def test_windowed_dim_monotone(kind, p, d):
    assert windowed_dim(kind, p, d, Window(2, 2)) <= \
        windowed_dim(kind, p, d, Window(3, 2)) <= \
        windowed_dim(kind, p, d, Window(3, 3))


def test_dims_table_support():
    table = dims_table("bh_F", Window(2, 1), 3)
    nonzero = {bd for bd, v in table.items() if v}
    assert nonzero == {Bidegree(0, 0), Bidegree(1, 1), Bidegree(2, 1),
                       Bidegree(2, 3), Bidegree(3, 3)}
    assert table[Bidegree(0, 0)] == 1
    assert table[Bidegree(1, 1)] == 3


def test_stabilized_kinds():
    for kind, p, d, model, field, value in (
            ("dlambda_A", 0, 0, "linear-L", "slope_l", 1),
            ("dlambda_A", 3, 3, "linear-N", "slope_n", 1),
            ("dlambda_A", 2, 1, "constant", "intercept", 0),
            ("bh_F", 1, 1, "linear-N", "slope_n", 1),
            ("bh_A", 0, 0, "constant", "intercept", 1)):
        rep = stabilized(kind, p, d)
        assert (rep.kind, getattr(rep, field)) == (model, value), (kind, p, d, rep)


# strictly increasing ladders longer than the default one: each step raises
# N, L or both, and at least two step kinds occur, so the windows do not lie
# on one line and N- and L-growth can be told apart
st_long_ladder = st.tuples(
    st.integers(0, 2), st.integers(0, 2),
    st.lists(st.sampled_from([(1, 0), (0, 1), (1, 1)]),
             min_size=len(DEFAULT_LADDER), max_size=len(DEFAULT_LADDER) + 3
             ).filter(lambda steps: len(set(steps)) > 1),
).map(lambda t: _ladder(*t))


def _ladder(n, l, steps):
    out = [Window(n, l)]
    for dn, dl in steps:
        n, l = n + dn, l + dl
        out.append(Window(n, l))
    return tuple(out)


@settings(max_examples=50, deadline=None)
@given(st_long_ladder)
def test_stabilized_closed_forms_on_longer_ladders(ladder):
    assert len(ladder) > len(DEFAULT_LADDER)
    for kind, p, d, model, field in (("dlambda_A", 0, 0, "linear-L", "slope_l"),
                                     ("dlambda_A", 3, 3, "linear-N", "slope_n"),
                                     ("bh_F", 1, 1, "linear-N", "slope_n"),
                                     ("bh_A", 0, 0, "constant", "intercept")):
        rep = stabilized(kind, p, d, ladder)
        assert (rep.kind, getattr(rep, field)) == (model, 1), (kind, p, d, rep)
        assert rep.intercept == 1 and rep.points_used == len(ladder)


def test_class_coords():
    ph = piece_homology("bh_F", 1, 1, 3)
    assert class_coords(ph, poly("u^2 u1 t0")) == [1]
    # an exact density is the zero class
    assert class_coords(ph, poly("3 u^2 u1 t0 + u^3 t1")) == [0]
    ph2 = piece_homology("dlambda_A", 0, 0, 1)
    assert class_coords(ph2, poly("u")) is None  # not a cocycle


@pytest.mark.parametrize("kind", KINDS)
def test_relation_rows_span_the_boundaries(kind):
    # relation_rows are a spanning set, not a basis: their rank is the
    # boundary rank, and each of them is the zero class
    for bd in spots_up_to(4):
        for c in range(4):
            ph = piece_homology(kind, bd.p, bd.d, c)
            assert ph.boundary_rank == rank_of(ph.relation_rows), (bd, c)
            assert ph.dim == ph.cocycle_rank - ph.boundary_rank == len(ph.reps), (bd, c)
            zero = [0] * len(ph.reps)
            for row in ph.relation_rows:
                rel = ph.basis.poly_of(dense(row, len(ph.basis)))
                assert class_coords(ph, rel) == zero, (bd, c)


def test_compare_refuses_exceptional():
    assert EXCEPTIONAL_BIDEGREES == {Bidegree(0, 0), Bidegree(1, 0),
                                     Bidegree(1, 1), Bidegree(2, 1)}
    w = Window(3, 2)
    for p, d in EXCEPTIONAL_BIDEGREES:
        with pytest.raises(ExceptionalBidegreeError):
            compare_bh_vs_lambda(p, d, w)
    forced = compare_bh_vs_lambda(2, 1, w, presentation="F", force=True)
    assert (forced.bh_dim, forced.lambda_dim) == (4, 0)
    assert not forced.equal


def test_compare_agrees_off_the_exceptional_set():
    w = Window(2, 2)
    for p, d in [(3, 3), (2, 3), (2, 2), (0, 1), (1, 2), (3, 4)]:
        for presentation in ("A", "F"):
            r = compare_bh_vs_lambda(p, d, w, presentation=presentation)
            assert r.equal, (p, d, presentation, r)
    with pytest.raises(ValueError):
        compare_bh_vs_lambda(3, 3, w, presentation="x")


def test_les_rank_audit():
    for k in (-1, 0, 1):
        for c in (0, 1, 2):
            audit = les_rank_audit(k, c, d_max=4)
            assert audit.ok, (k, c)
    audit = les_rank_audit(1, 2, d_max=4)
    by_pos = {(n.kind, tuple(n.bidegree)): n for n in audit.nodes}
    assert by_pos[("dlambda_F", (2, 3))].rank_out == 1   # connecting map
    assert by_pos[("dlambda_Q", (3, 3))].rank_in == 1
    assert by_pos[("dlambda_Q", (3, 3))].dim == 1


def test_ladder_is_default():
    assert DEFAULT_LADDER[0] == Window(2, 2)
    assert len(DEFAULT_LADDER) >= 5


def test_functional_presentation_differentiates_no_parameter(monkeypatch):
    # the exact terms of a piece with l are built from the l-free blocks:
    # every monomial the one derivation kernel sees is free of l, on the
    # assembly path and behind the operator memos alike
    seen = []
    real = algebra.derivation_numerators

    def counting(a, even_image, odd_image):
        seen.extend(m.lam for m in a.terms)
        return real(a, even_image, odd_image)

    monkeypatch.setattr(algebra, "derivation_numerators", counting)
    monkeypatch.setattr(varcalc, "_DTOT_PIECE", {})
    rows = cohomeng._presentation_rows("dlambda_F", 2, 4, 3)
    assert seen and not any(seen)
    want = operator_matrix(varcalc.dtot_direct, enumerate_piece_basis(Bidegree(2, 3), 3),
                           enumerate_piece_basis(Bidegree(2, 4), 3))
    assert rows == list(want.cols)


def test_one_dtot_store_under_both_names():
    assert cohomeng._DTOT_CACHE is varcalc._DTOT_PIECE
