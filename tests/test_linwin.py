"""Slice enumeration and the exact elimination layer.

Basis enumerations are cross-checked against an independent brute-force
generator; elimination results against hand-reduced matrices.  The
elimination functions take and return sparse Rows; the matrices here are
written densely and converted with sparse() and dense().
"""

import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvcohom import linwin
from kdvcohom.algebra import Bidegree, DiffPoly, Monomial, dtot, partial, poly, theta, u_jet
from kdvcohom.linwin import (
    CompositionError,
    DEFAULT_LADDER,
    Echelon,
    HomologyDims,
    Kernel,
    OperatorMatrix,
    SliceBasis,
    Window,
    WindowOverflowError,
    added_pivots,
    dense,
    enumerate_piece_basis,
    in_span,
    intersect_with_coordinates,
    nullspace,
    operator_matrix,
    piece_sizes_total,
    quotient_representatives,
    rank_of,
    rref,
    quotient_coordinates,
    solve,
    sparse,
    stabilized_dims,
    transpose,
)
from kdvcohom.specseq import FilteredSlice, homology_at

F = Fraction


# -- independent brute-force enumeration ------------------------------------


def brute_monomials(p, d, n_max, l_max):
    """All monomials of bidegree (p, d) in the window, the slow way."""
    out = set()
    odd_choices = [c for r in range(p, p + 1)
                   for c in itertools.combinations(range(d + 1), r) if sum(c) <= d]
    if p == 0:
        odd_choices = [()]
    for odd in odd_choices:
        rest = d - sum(odd)
        for nparts in range(rest + 1):
            for parts in itertools.combinations_with_replacement(range(1, rest + 1), nparts):
                if sum(parts) != rest:
                    continue
                ev = {}
                for s in parts:
                    ev[s] = ev.get(s, 0) + 1
                for u0 in range(n_max + 1):
                    for lam in range(l_max + 1):
                        out.add(Monomial(lam, u0, tuple(sorted(ev.items())), odd))
        if rest == 0:
            for u0 in range(n_max + 1):
                for lam in range(l_max + 1):
                    out.add(Monomial(lam, u0, (), odd))
    return out


def window_basis(bd, w):
    """The window slice of bidegree bd, from the brute-force enumeration."""
    return SliceBasis(bd, w, tuple(sorted(brute_monomials(*bd, w.N, w.L))))


def test_enumerate_piece_basis_frozen():
    b = enumerate_piece_basis(Bidegree(3, 3), 2)
    assert [m.format() for m in b.monomials] == [
        "u^2 t0 t1 t2", "l u t0 t1 t2", "l^2 t0 t1 t2"]
    b = enumerate_piece_basis(Bidegree(1, 2), 1)
    assert set(m.format() for m in b.monomials) == {
        "u t2", "l t2", "u1 t1", "u2 t0"}
    assert all(m.ucount() == 1 for m in b.monomials)


def test_enumerate_piece_matches_window_union():
    # a piece is the fixed-count part of a big enough window
    bd = Bidegree(2, 4)
    for c in range(4):
        piece = set(enumerate_piece_basis(bd, c).monomials)
        big = {m for m in brute_monomials(*bd, c, c) if m.ucount() == c}
        assert piece == big


def test_piece_is_its_parameter_free_blocks_laid_end_to_end():
    # l sorts first, so the piece of count c lists l^a times the
    # parameter-free piece of count c - a for a = 0, 1, ..., each in order
    pieces = 0
    for p in range(6):
        for d in range(9):
            for c in range(12):
                bd = Bidegree(p, d)
                joined = tuple(n._replace(lam=a) for a in range(c + 1)
                               for n in enumerate_piece_basis(bd, c - a, False).monomials)
                assert enumerate_piece_basis(bd, c).monomials == joined, (bd, c)
                pieces += 1
    assert pieces == 648


def test_lambda_lift_lays_blocks_at_their_offsets():
    # the l-free blocks of dtot from (0, 0) to (0, 1), count 2: the piece
    # (0, 1) of count 2 is u u1, l u1 (c - a = 2, 1; u1 alone is count 1)
    up, bd = Bidegree(0, 1), Bidegree(0, 0)
    free = [operator_matrix(dtot, enumerate_piece_basis(bd, 2 - a, False),
                            enumerate_piece_basis(up, 2 - a, False)) for a in range(3)]
    lift = linwin.lambda_lift(bd, up, 2, [((m, a),) for a, m in enumerate(free)])
    assert [m.format() for m in lift.codomain.monomials] == ["u u1", "l u1"]
    assert lift.cols == operator_matrix(dtot, lift.domain, lift.codomain).cols
    # blocks are laid as they are: a negated block lands negated, and a
    # block sent one l-power up lands at its offset
    neg = [linwin.OperatorMatrix(m.domain, m.codomain,
                                 tuple(tuple((i, -x) for i, x in col) for col in m.cols))
           for m in free]
    lifted = linwin.lambda_lift(bd, up, 2, [((m, a),) for a, m in enumerate(neg)])
    assert lifted.cols == tuple(tuple((i, -x) for i, x in col) for col in lift.cols)
    with pytest.raises(CompositionError, match="do not make the pieces"):
        linwin.lambda_lift(bd, up, 2, [((m, a),) for a, m in enumerate(free[:2])])


def test_piece_without_lambda():
    b = enumerate_piece_basis(Bidegree(1, 1), 2, include_lambda=False)
    assert set(m.format() for m in b.monomials) == {"u u1 t0", "u^2 t1"}


def test_piece_basis_has_one_object_however_it_is_asked_for():
    # a keyword, a default and a plain-tuple bidegree reach the same basis
    assert enumerate_piece_basis(Bidegree(1, 1), 2, False) \
        is enumerate_piece_basis(Bidegree(1, 1), 2, include_lambda=False)
    assert enumerate_piece_basis(Bidegree(2, 3), 1) \
        is enumerate_piece_basis(Bidegree(2, 3), 1, True)
    assert enumerate_piece_basis((2, 3), 1, 1) is enumerate_piece_basis(Bidegree(2, 3), 1)


def test_piece_basis_from_a_plain_tuple_keeps_its_bidegree_type():
    enumerate_piece_basis((3, 4), 1, True)
    assert type(enumerate_piece_basis(Bidegree(3, 4), 1, True).bidegree) is Bidegree


def test_piece_sizes_total_counts_the_enumerated_bases():
    for p in range(-1, 5):
        for d in range(-1, 8):
            for top in range(-1, 6):
                for lam in (True, False):
                    want = sum(len(enumerate_piece_basis(Bidegree(p, d), c, lam))
                               for c in range(top + 1))
                    assert piece_sizes_total(Bidegree(p, d), top, lam) == want, \
                        (p, d, top, lam)


# -- elimination --------------------------------------------------------------


def rows_of(matrix):
    return [sparse(row) for row in matrix]


def cols_of(matrix):
    return [sparse(col) for col in zip(*matrix)]


def dense_rows(rows, n):
    return [dense(row, n) for row in rows]


def test_sparse_dense_round_trip():
    vec = [F(0), F(2), F(0), F(-1, 3)]
    assert sparse(vec) == ((1, F(2)), (3, F(-1, 3)))
    assert dense(sparse(vec), 4) == vec
    assert sparse([F(0), F(0)]) == () and dense((), 2) == [F(0), F(0)]


def test_rref_frozen():
    rows = [[F(2), F(4), F(2)], [F(1), F(2), F(3)], [F(0), F(0), F(4)]]
    red, piv = rref(rows_of(rows))
    assert dense_rows(red, 3) == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]
    assert piv == [0, 2]
    assert rank_of(rows_of(rows)) == 2


def test_solve_and_nullspace():
    rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    x = solve(cols_of(rows), sparse([F(3), F(2)]))
    assert x is not None
    for row, b in zip(rows, [F(3), F(2)]):
        assert sum(r * xi for r, xi in zip(row, x)) == b
    assert solve(cols_of([[F(1), F(1)], [F(2), F(2)]]), sparse([F(1), F(3)])) is None
    ker = nullspace(rows_of(rows), 3)
    assert len(ker) == 1
    assert dense(ker[0], 3) == [F(1), F(-1), F(1)]


st_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3).map(F), min_size=n, max_size=n),
        min_size=1, max_size=4))


@settings(max_examples=60)
@given(st_matrix)
def test_rank_nullity(rows):
    n = len(rows[0])
    assert rank_of(rows_of(rows)) + len(nullspace(rows_of(rows), n)) == n


@settings(max_examples=60)
@given(st_matrix)
def test_rref_spans_the_same_rowspace(rows):
    red, piv = rref(rows_of(rows))
    for r in rows:
        assert in_span(red, piv, sparse(r))
    assert rank_of(rows_of(rows) + red) == len(red)


def test_added_pivots_reports_each_new_pivot():
    rows = [sparse([0, 1, 1]), sparse([0, 2, 2]), sparse([1, 0, 0]), sparse([1, 1, 0])]
    # pivot 0 is reported as 0, not mistaken for a row already in the span
    assert added_pivots(rows) == [1, None, 0, 2]
    assert added_pivots([]) == []


def test_intersect_with_coordinates():
    rows = rows_of([[F(1), F(1), F(0)], [F(0), F(1), F(1)]])
    got = intersect_with_coordinates(rows, {0, 1})
    assert dense_rows(got, 3) == [[F(1), F(1), F(0)]]
    assert intersect_with_coordinates(rows, {0, 1, 2}) == rref(rows)[0]
    assert intersect_with_coordinates(rows, set()) == []


st_int_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=1, max_size=5))


def assert_forward_form(ech):
    """Stored rows, in insertion order, are primitive int rows with a
    positive pivot entry, each zero on the pivots stored before it."""
    before = set()
    for pc, row in ech._rows.items():
        assert min(row) == pc and row[pc] > 0
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert not before & set(row)
        before.add(pc)


def assert_reduced_form(rows):
    """Each row starts with a 1 at its pivot and no row is nonzero on
    another row's pivot."""
    pivots = [row[0][0] for row in rows]
    assert pivots == sorted(set(pivots))
    for row in rows:
        assert row[0][1] == 1
        assert not any(j in pivots for j, _ in row[1:])


@settings(max_examples=60)
@given(st_int_matrix, st.randoms(use_true_random=False))
def test_echelon_ignores_row_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    ech = Echelon(rows_of(rows))
    again = Echelon(rows_of(shuffled))
    assert_forward_form(ech)
    assert_forward_form(again)
    assert_reduced_form(ech.rows())
    red, piv = rref([sparse([F(x) for x in row]) for row in rows])
    assert again.rows() == ech.rows() == red
    assert all(type(x) is Fraction for row in ech.rows() for _, x in row)
    assert again.pivots() == ech.pivots() == piv
    assert len(ech) == rank_of(rows_of(rows))


def test_echelon_never_rewrites_a_stored_row():
    # the later pivots 1 and 2 lie on the first row; rows() reads the
    # reduced form off copies, so neither an insert nor a read touches it
    ech = Echelon([sparse([2, 4, 6])])
    first = ech._rows[0]
    assert first == {0: 1, 1: 2, 2: 3}
    assert ech.add(sparse([0, 1, 0])) and ech.add(sparse([0, 1, 1]))
    assert dense_rows(ech.rows(), 3) == [[F(1), F(0), F(0)], [F(0), F(1), F(0)],
                                         [F(0), F(0), F(1)]]
    assert ech._rows == {0: {0: 1, 1: 2, 2: 3}, 1: {1: 1}, 2: {2: 1}}
    assert ech._rows[0] is first
    # clearing e0 at pivot 0 leaves entries at the later pivots 1 and 2
    assert ech.contains(sparse([1, 0, 0])) and ech.reduce(sparse([1, 0, 0])) == ()


def test_integer_entries_give_fractions():
    red, piv = rref([sparse([2, 4, 3])])
    assert red == [((0, F(1)), (1, F(2)), (2, F(3, 2)))] and piv == [0]
    x = solve([sparse([2]), sparse([0])], sparse([3]))
    assert x == [F(3, 2), F(0)]
    ker = nullspace([sparse([2, 4, 3])], 3)
    assert ker == [((0, F(-2)), (1, F(1))), ((0, F(-3, 2)), (2, F(1)))]
    rem = Echelon([sparse([2, 4, 0])]).reduce(sparse([3, 0, 5]))
    assert rem == ((1, F(-6)), (2, F(5)))
    got = [*(x for row in red for _, x in row), *x,
           *(x for row in ker for _, x in row), *(x for _, x in rem)]
    assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("bad", [1.5, Decimal("1.5")], ids=["float", "Decimal"])
@pytest.mark.parametrize("call", [
    lambda row: rref([row]),
    lambda row: nullspace([row], 3),
    lambda row: Echelon([((0, F(1)),)]).reduce(row),
    lambda row: Echelon([((0, F(1)),)]).contains(row),
], ids=["rref", "nullspace", "reduce", "contains"])
def test_inexact_entries_raise_type_error(bad, call):
    with pytest.raises(TypeError, match="column 2"):
        call(((0, F(1)), (2, bad)))


def test_echelon_add_reduce_contains():
    ech = Echelon()
    assert ech.add(sparse([F(0), F(2), F(4)]))
    assert not ech.add(sparse([F(0), F(1), F(2)]))
    assert ech.add(sparse([F(3), F(3), F(0)]))
    assert dense_rows(ech.rows(), 3) == [[F(1), F(0), F(-2)], [F(0), F(1), F(2)]]
    assert ech.contains(sparse([F(1), F(1), F(0)]))
    assert not ech.contains(sparse([F(0), F(0), F(1)]))
    assert dense(ech.reduce(sparse([F(1), F(1), F(1)])), 3) == [F(0), F(0), F(1)]
    assert len(ech) == 2 and ech.pivots() == [0, 1]


def test_quotient_coordinates():
    reps = rows_of([[F(1), F(0), F(0)]])
    rels = rows_of([[F(0), F(1), F(1)]])
    assert quotient_coordinates(reps, rels, [sparse([F(2), F(3), F(3)])]) == [[F(2)]]
    assert quotient_coordinates(reps, rels, [sparse([F(0), F(0), F(1)])]) is None
    # with no representatives the answer only says whether vec is a relation
    assert quotient_coordinates([], rels, [sparse([F(0), F(2), F(2)])]) == [[]]
    assert quotient_coordinates([], rels, [sparse([F(1), F(0), F(0)])]) is None
    assert quotient_coordinates([], [], [sparse([F(0), F(0)])]) == [[]]
    assert quotient_coordinates([], [], [sparse([F(0), F(1)])]) is None
    # one escaping vector sinks the whole call
    assert quotient_coordinates(reps, rels, [sparse([F(2), F(3), F(3)]),
                                             sparse([F(0), F(0), F(1)])]) is None
    # one column per vector, from one elimination
    assert quotient_coordinates(reps, rels, [sparse([F(2), F(3), F(3)]), (),
                                             sparse([F(-1, 2), F(1), F(1)])]) \
        == [[F(2)], [F(0)], [F(-1, 2)]]


def test_quotient_coordinates_of_no_vectors_eliminates_nothing(monkeypatch):
    built = []
    monkeypatch.setattr(linwin, "Echelon",
                        lambda rows=(): built.append(rows) or Echelon(rows))
    assert quotient_coordinates(rows_of([[F(1)]]), [], []) == []
    assert not built
    assert quotient_coordinates(rows_of([[F(1)]]), [], [sparse([F(3)])]) == [[F(3)]]
    assert len(built) == 1


# -- operator matrices ---------------------------------------------------------


def d1_inline(a):
    """Independent copy of the first pencil differential for these tests."""
    out = DiffPoly.zero()
    orders = set()
    for m in a.terms:
        if m.u0:
            orders.add(0)
        for s, _ in m.even:
            orders.add(s)
    for s in sorted(orders):
        out = out + theta(s + 1) * partial(a, "u" if s == 0 else f"u{s}")
    return out


def test_operator_matrix_shape_and_rank():
    w = Window(1, 1)
    dom = window_basis(Bidegree(0, 0), w)
    cod = window_basis(Bidegree(1, 1), w)
    m = operator_matrix(d1_inline, dom, cod)
    assert len(m.cols) == 4
    assert rank_of(m.cols) == 2
    assert len(nullspace(transpose(m.cols), len(dom))) == 2


def test_operator_matrix_overflow():
    w = Window(2, 2)
    dom = window_basis(Bidegree(0, 0), w)
    with pytest.raises(WindowOverflowError) as err:
        operator_matrix(lambda a: u_jet(0) * a, dom, dom)
    assert str(err.value) == \
        "monomial u^3 not in slice (p=0, d=0) window Window(N=2, L=2)"


def test_index_of_names_the_slice():
    piece = enumerate_piece_basis(Bidegree(1, 1), 2)
    with pytest.raises(WindowOverflowError) as err:
        piece.index_of(Monomial(lam=5))
    assert str(err.value) == "monomial l^5 not in slice (p=1, d=1) c=2"
    with pytest.raises(WindowOverflowError) as err:
        SliceBasis(Bidegree(0, 0), None, ()).index_of(Monomial())
    assert str(err.value) == "monomial 1 not in slice (p=0, d=0)"


def test_apply_to_vector_matches_operator():
    w = Window(1, 1)
    dom = window_basis(Bidegree(1, 1), w)
    cod = window_basis(Bidegree(2, 2), w)
    m = operator_matrix(d1_inline, dom, cod)
    a = poly("u u1 t0 + 2 l t1")
    image = m.apply_all((dom.vector_of(a),))[0]
    assert cod.poly_of(dense(image, len(cod))) == d1_inline(a)


# -- homology ------------------------------------------------------------------


def _two_step(d_in, d_out):
    """The complex d_in then d_out, every basis vector at filtration level 0;
    its differentials are checked when a reader first reaches them."""
    bases = {0: d_in.domain, 1: d_in.codomain, 2: d_out.codomain}
    return FilteredSlice((0, 1, 2), lambda n: (bases[n], (0,) * len(bases[n])),
                         {0: d_in, 1: d_out}.get, "two-step")


def test_homology_dims_frozen():
    w = Window(1, 1)
    s0 = window_basis(Bidegree(0, 0), w)
    s1 = window_basis(Bidegree(1, 1), w)
    s2 = window_basis(Bidegree(2, 2), w)
    d_in = operator_matrix(d1_inline, s0, s1)
    d_out = operator_matrix(d1_inline, s1, s2)
    fs = _two_step(d_in, d_out)
    assert homology_at(fs, 1) == HomologyDims(kernel=4, image=2, homology=2)


def test_homology_rejects_nonzero_composite():
    w = Window(1, 1)
    s0 = window_basis(Bidegree(0, 0), w)
    s1 = window_basis(Bidegree(0, 1), w)
    s2 = window_basis(Bidegree(0, 2), w)
    fs = _two_step(operator_matrix(dtot, s0, s1), operator_matrix(dtot, s1, s2))
    with pytest.raises(CompositionError, match="does not square to zero"):
        homology_at(fs, 1)


def test_homology_rejects_mismatched_middle():
    w = Window(1, 1)
    s0 = window_basis(Bidegree(0, 0), w)
    s1 = window_basis(Bidegree(1, 1), w)
    s1b = window_basis(Bidegree(1, 1), Window(1, 0))
    s2 = window_basis(Bidegree(2, 2), w)
    fs = _two_step(operator_matrix(d1_inline, s0, s1),
                   operator_matrix(d1_inline, s1b, s2))
    with pytest.raises(CompositionError, match="domain mismatch"):
        homology_at(fs, 1)


# -- integer composites -----------------------------------------------------------


def abstract_basis(n):
    """A basis of n stand-in monomials, for matrices that are only numbers."""
    return SliceBasis(Bidegree(0, 0), None, tuple(Monomial(lam=i) for i in range(n)))


def matrix_of(dom, cod, cols):
    """The OperatorMatrix with the given dense columns."""
    return OperatorMatrix(dom, cod, tuple(sparse(col) for col in cols))


# entries are ints and Fractions over the denominators 2, 3 and 7
st_entry = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-6, 6), st.sampled_from([2, 3, 7])),
    st.builds(F, st.integers(-6, 6), st.sampled_from([6, 14, 21, 42])))


def st_columns(n_cols, n_rows):
    return st.lists(st.lists(st_entry, min_size=n_rows, max_size=n_rows),
                    min_size=n_cols, max_size=n_cols)


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.integers(1, 4)] * 3).flatmap(
    lambda n: st.tuples(st_columns(n[0], n[1]), st_columns(n[1], n[2]))))
def test_composite_matches_fraction_reference(pair):
    first_cols, second_cols = pair
    a, b, c = len(first_cols), len(second_cols), len(second_cols[0])
    first = matrix_of(abstract_basis(a), abstract_basis(b), first_cols)
    second = matrix_of(abstract_basis(b), abstract_basis(c), second_cols)
    want = []
    for col in first_cols:
        # sum over j of x_j times column j of the second matrix, in Fractions
        out = [F(0)] * c
        for x, other in zip(col, second_cols):
            for i, y in enumerate(other):
                out[i] += F(x) * F(y)
        want.append(sparse(out))
    got = second.apply_all(first.cols)
    assert got == want
    assert all(type(x) is Fraction and x for row in got for _, x in row)
    assert [second.apply_all((col,))[0] for col in first.cols] == want


def test_composite_float_entry_raises_naming_its_column():
    second = matrix_of(abstract_basis(3), abstract_basis(2),
                       [[1, 0], [F(1, 2), 3], [0, 1]])
    with pytest.raises(TypeError, match="entry 0.5 in column 2"):
        second.apply_all([((0, F(1)), (2, 0.5))])
    inexact = OperatorMatrix(abstract_basis(1), abstract_basis(2), (((1, 0.25),),))
    with pytest.raises(TypeError, match="entry 0.25 in column 1"):
        inexact.apply_all([((0, 1),)])


def _composite_pair(cancel):
    """d and d2 with d = (1/2, 1/3); d2 d is 1/6 at one entry, or zero
    when cancel, and either way the first entry cancels only over the
    common denominator 6 of the terms 1/2 * 1 and 1/3 * (-3/2)."""
    d = matrix_of(abstract_basis(1), abstract_basis(2), [[F(1, 2), F(1, 3)]])
    d2 = matrix_of(abstract_basis(2), abstract_basis(2),
                   [[1, F(1, 3)], [F(-3, 2), F(-1, 2) if cancel else 0]])
    return d, d2


def test_validate_catches_a_single_sixth():
    d, d2 = _composite_pair(cancel=False)
    assert d2.apply_all(d.cols) == [((1, F(1, 6)),)]
    fs = _two_step(d, d2)
    assert fs.diff(0) is d
    with pytest.raises(CompositionError, match="does not square to zero at degree 0"):
        fs.diff(1)


def test_validate_passes_a_pair_cancelling_over_the_common_denominator():
    d, d2 = _composite_pair(cancel=True)
    assert d2.apply_all(d.cols) == [()]
    assert _two_step(d, d2).diff(1) is d2


def test_quotient_representatives_prefers_monomials():
    w = Window(1, 1)
    s0 = window_basis(Bidegree(0, 0), w)
    s1 = window_basis(Bidegree(1, 1), w)
    s2 = window_basis(Bidegree(2, 2), w)
    d_in = operator_matrix(d1_inline, s0, s1)
    d_out = operator_matrix(d1_inline, s1, s2)
    kernel = nullspace(transpose(d_out.cols), len(s1))
    reps = quotient_representatives(s1, Echelon(kernel), d_in.cols)
    assert [m.format() for _, m in reps] == ["u t1", "l u t1"]


def test_quotient_rejects_relations_outside_space():
    amb = window_basis(Bidegree(0, 0), Window(1, 0))
    e0 = [sparse([F(1), F(0)])]
    e1 = [sparse([F(0), F(1)])]
    with pytest.raises(CompositionError):
        quotient_representatives(amb, Echelon(e0), e1)


def test_kernel_without_monomials_reads_its_rows():
    # x0 + x1 = 0 cuts out the span of e0 - e1, which holds no monomial, so
    # the transversal is the reduced kernel row
    amb = abstract_basis(2)
    kernel = Kernel([((0, F(1)),), ((0, F(1)),)])
    diff = ((0, F(1)), (1, F(-1)))
    assert len(kernel) == 1 and kernel.rows() == [diff]
    assert quotient_representatives(amb, kernel, []) == [(diff, None)]
    assert quotient_representatives(amb, kernel, [((0, F(-2)), (1, F(2)))]) == []


def test_kernel_contains_over_the_common_denominator():
    # x0/2 + x1/3 + x2/6: e0 - e1 - e2 lies in the kernel only over the
    # common denominator 6 of the columns, and e1 - e2 maps to a single sixth
    amb = abstract_basis(3)
    kernel = Kernel([((0, F(1, 2)),), ((0, F(1, 3)),), ((0, F(1, 6)),)])
    assert len(kernel) == 2
    assert kernel.contains(((0, F(1)), (1, F(-1)), (2, F(-1))))
    assert quotient_representatives(amb, kernel, [((0, F(1)), (1, F(-1)), (2, F(-1)))]) \
        == [(((0, F(1)), (2, F(-3))), None)]
    with pytest.raises(CompositionError, match="not contained"):
        quotient_representatives(amb, kernel, [((1, F(1)), (2, F(-1)))])


# -- stabilization -------------------------------------------------------------


LADDER = list(DEFAULT_LADDER)


def _dims(f):
    return [(w, f(w)) for w in LADDER]


def test_stabilized_constant():
    rep = stabilized_dims(_dims(lambda w: 5))
    assert rep.kind == "constant" and rep.intercept == 5
    assert rep.points_used == len(LADDER)


def test_stabilized_linear_n():
    rep = stabilized_dims(_dims(lambda w: 2 * w.N + 1))
    assert rep.kind == "linear-N" and rep.slope_n == 2 and rep.intercept == 1


def test_stabilized_linear_l():
    rep = stabilized_dims(_dims(lambda w: w.L + 1))
    assert rep.kind == "linear-L" and rep.slope_l == 1 and rep.intercept == 1


def test_stabilized_affine():
    rep = stabilized_dims(_dims(lambda w: w.N + w.L + 1))
    assert rep.kind == "affine"
    assert (rep.slope_n, rep.slope_l, rep.intercept) == (1, 1, 1)


def test_stabilized_eventually_constant():
    pts = _dims(lambda w: 5)
    pts[0] = (pts[0][0], 7)
    rep = stabilized_dims(pts)
    assert rep.kind == "constant" and rep.intercept == 5
    assert rep.points_used == len(LADDER) - 1


def test_stabilized_unstable_and_inconclusive():
    vals = iter([1, 2, 4, 8, 16, 32])
    rep = stabilized_dims([(w, next(vals)) for w in LADDER])
    assert rep.kind == "unstable"
    assert stabilized_dims(_dims(lambda w: 1)[:2]).kind == "inconclusive"


def test_stabilized_rejects_bad_ladder():
    with pytest.raises(ValueError):
        stabilized_dims([(Window(2, 2), 1), (Window(2, 2), 1), (Window(3, 2), 1)])
    with pytest.raises(ValueError):
        stabilized_dims([(Window(3, 2), 1), (Window(2, 3), 1), (Window(3, 3), 1)])


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4))
def test_stabilized_recovers_exact_models(a, b, c):
    rep = stabilized_dims(_dims(lambda w: a * w.N + b * w.L + c))
    if a == 0 and b == 0:
        assert rep.kind == "constant" and rep.intercept == c
    elif b == 0:
        assert rep.kind == "linear-N" and (rep.slope_n, rep.intercept) == (a, c)
    elif a == 0:
        assert rep.kind == "linear-L" and (rep.slope_l, rep.intercept) == (b, c)
    else:
        assert rep.kind == "affine"
        assert (rep.slope_n, rep.slope_l, rep.intercept) == (a, b, c)
