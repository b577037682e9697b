"""The elimination kernel against sympy's exact linear algebra.

sympy shares no code with the package, so agreement on random small
rational matrices pins every view of the Echelon kernel: the reduced form
and its pivots, the rank, the canonical kernel basis, the exact remainder
of a vector against a reduced basis, the particular solution with free
variables set to zero, the unique class coordinates of many vectors at
once, the intersection of a row space with a coordinate subspace, and
the size of a quotient transversal taken modulo unreduced relations, and
the transversal of a Kernel, the space a map cuts out, against the one of
its spanned basis, and an Echelon read between inserts: each answer is
the one for the rows inserted so far, and each insert adds the pivot of
its row's remainder.
Entries mix Fractions and ints, small and wide, and every result must
come back as Fractions.  Matrices are drawn dense, go in through sparse()
and come back through dense().
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kdvcohom.algebra import Bidegree, Monomial
from kdvcohom.linwin import (
    CompositionError,
    Echelon,
    Kernel,
    SliceBasis,
    dense,
    in_span,
    intersect_with_coordinates,
    nullspace,
    quotient_coordinates,
    quotient_representatives,
    rank_of,
    reduce_against,
    rref,
    solve,
    sparse,
    transpose,
)

sympy = pytest.importorskip("sympy")

F = Fraction

# mostly zeros and small entries, like the operator matrices the package
# eliminates, so that ranks fall short; plus plain ints and wide entries
# with mixed denominators, which the integer kernel scales and cross-
# multiplies before it divides anything out
st_entry = st.one_of(
    st.just(F(0)), st.just(F(0)), st.fractions(-3, 3, max_denominator=4),
    st.integers(-3, 3), st.integers(-10**12, 10**12),
    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 97)))

st_matrix = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: st.lists(st.lists(st_entry, min_size=mn[1], max_size=mn[1]),
                        min_size=mn[0], max_size=mn[0]))


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def is_fraction_row(row):
    return all(type(x) is Fraction for _, x in row)


def to_fraction(x) -> Fraction:
    return F(int(x.p), int(x.q))


def sympy_rref_rows(matrix):
    red, pivots = matrix.rref()
    return [[to_fraction(red[i, j]) for j in range(red.cols)]
            for i in range(len(pivots))], list(pivots)


def rows_of(matrix):
    return [sparse(row) for row in matrix]


def sympy_solution(rows, b):
    """The solution of rows @ x = b with free variables zero, or None."""
    n = len(rows[0])
    red, pivots = to_sympy([row + [bi] for row, bi in zip(rows, b)]).rref()
    if n in pivots:
        return None
    want = [F(0)] * n
    for i, pc in enumerate(pivots):
        want[pc] = to_fraction(red[i, n])
    return want


def solve_dense(rows, b):
    return solve([sparse(col) for col in zip(*rows)], sparse(b))


@settings(max_examples=150)
@given(st_matrix)
def test_rref_and_rank_match_sympy(rows):
    red, pivots = rref(rows_of(rows))
    n = len(rows[0])
    assert ([dense(r, n) for r in red], pivots) == sympy_rref_rows(to_sympy(rows))
    assert all(map(is_fraction_row, red))
    assert rank_of(rows_of(rows)) == to_sympy(rows).rank()


@settings(max_examples=150)
@given(st_matrix)
def test_nullspace_matches_sympy(rows):
    n = len(rows[0])
    want = [[to_fraction(x) for x in v] for v in to_sympy(rows).nullspace()]
    got = nullspace(rows_of(rows), n)
    assert [dense(v, n) for v in got] == want
    assert all(map(is_fraction_row, got))


@settings(max_examples=150)
@given(st_matrix, st.data())
def test_reduce_against_matches_sympy(rows, data):
    n = len(rows[0])
    red, pivots = to_sympy(rows).rref()
    basis = [red.row(i) for i in range(len(pivots))]
    if data.draw(st.booleans()):
        # a vector in the row space
        c = data.draw(st.lists(st_entry, min_size=len(rows), max_size=len(rows)))
        v = [sum((ci * row[j] for ci, row in zip(c, rows)), F(0)) for j in range(n)]
    else:
        v = data.draw(st.lists(st_entry, min_size=n, max_size=n))
    # the exact remainder v - sum v[pc] * row_pc, not a multiple of it
    want = to_sympy([v])
    for pc, row in zip(pivots, basis):
        want -= want[0, pc] * row
    want = [to_fraction(x) for x in want]
    basis_rows = [sparse([to_fraction(x) for x in row]) for row in basis]
    got = reduce_against(basis_rows, list(pivots), sparse(v))
    assert dense(got, n) == want
    assert is_fraction_row(got)
    assert in_span(basis_rows, list(pivots), sparse(v)) == (not any(want))


@settings(max_examples=150)
@given(st_matrix, st.data())
def test_solve_matches_sympy(rows, data):
    m, n = len(rows), len(rows[0])
    if data.draw(st.booleans()):
        # a right-hand side in the column space
        c = data.draw(st.lists(st_entry, min_size=n, max_size=n))
        b = [sum((a * x for a, x in zip(row, c)), F(0)) for row in rows]
    else:
        b = data.draw(st.lists(st_entry, min_size=m, max_size=m))
    got = solve_dense(rows, b)
    assert got == sympy_solution(rows, b)
    assert got is None or all(type(x) is Fraction for x in got)


@pytest.mark.parametrize("rows,b", [
    # an all-zero column is a free variable and comes back zero
    ([[F(0), F(2)], [F(0), F(1)]], [F(4), F(2)]),
    # the right-hand side is nonzero on a row no column touches
    ([[F(1), F(1)], [F(0), F(0)]], [F(1), F(3)]),
    ([[F(0), F(0)]], [F(1)]),
    # free variables are set to zero
    ([[F(1), F(2), F(3)], [F(0), F(1), F(1)]], [F(6), F(2)]),
    ([[F(0), F(1), F(1), F(0)]], [F(5)]),
])
def test_solve_edge_cases_match_sympy(rows, b):
    want = sympy_solution(rows, b)
    assert solve_dense(rows, b) == want
    if want is not None:
        assert [sum((a * x for a, x in zip(row, want)), F(0)) for row in rows] == b


def sympy_rank(rows):
    return to_sympy(rows).rank() if rows else 0


@settings(max_examples=150)
@given(st.data())
def test_quotient_coordinates_match_sympy(data):
    n = data.draw(st.integers(1, 5))
    st_vec = st.lists(st_entry, min_size=n, max_size=n)
    relations = data.draw(st.lists(st_vec, max_size=3))
    reps = data.draw(st.lists(st_vec, max_size=3))
    # reps independent modulo the relations, so coordinates are unique
    assume(sympy_rank(reps + relations) == len(reps) + sympy_rank(relations))
    vecs, drawn = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            c = data.draw(st.lists(st_entry, min_size=len(reps), max_size=len(reps)))
            e = data.draw(st.lists(st_entry, min_size=len(relations),
                                   max_size=len(relations)))
            vecs.append([sum((x * g[i] for x, g in zip(c + e, reps + relations)), F(0))
                         for i in range(n)])
            drawn.append([F(x) for x in c])
        else:
            vecs.append(data.draw(st_vec))
            drawn.append(None)
    # the matrix with the generators as columns, one row per coordinate
    gens = [[g[i] for g in reps + relations] for i in range(n)]
    want = [sympy_solution(gens, v) for v in vecs]
    got = quotient_coordinates(rows_of(reps), rows_of(relations), rows_of(vecs))
    if any(x is None for x in want):
        assert got is None
        return
    want = [x[:len(reps)] for x in want]
    assert got == want
    assert all(type(x) is Fraction for col in got for x in col)
    assert all(c is None or c == col for c, col in zip(drawn, got))


@settings(max_examples=150)
@given(st_matrix, st.data())
def test_intersect_with_coordinates_matches_sympy(rows, data):
    n = len(rows[0])
    allowed = data.draw(st.sets(st.integers(0, n - 1)))
    banned = [j for j in range(n) if j not in allowed]
    a = to_sympy(rows)
    # y @ rows vanishes on the banned columns exactly for y in this kernel
    if banned:
        ys = a.extract(list(range(a.rows)), banned).T.nullspace()
        combos = [list(y.T * a) for y in ys]
    else:
        combos = [list(a.row(i)) for i in range(a.rows)]
    want = sympy_rref_rows(sympy.Matrix(combos))[0] if combos else []
    got = intersect_with_coordinates(rows_of(rows), allowed)
    assert [dense(r, n) for r in got] == want
    assert all(map(is_fraction_row, got))


@settings(max_examples=150)
@given(st_matrix, st.data())
def test_quotient_representatives_reduce_any_spanning_relations(rows, data):
    n = len(rows[0])
    ambient = SliceBasis(Bidegree(0, 0), None, tuple(Monomial(lam=j) for j in range(n)))
    space = Echelon(rows_of(rows))
    # random combinations of the space rows, one of them repeated, and zero rows
    coeffs = data.draw(st.lists(
        st.lists(st_entry, min_size=len(rows), max_size=len(rows)), max_size=4))
    combos = [[sum((ci * row[j] for ci, row in zip(c, rows)), F(0)) for j in range(n)]
              for c in coeffs]
    relations = [sparse(v) for v in combos + combos[:1]] + [()] * data.draw(st.integers(0, 2))
    reps = quotient_representatives(ambient, space, relations)
    assert reps == quotient_representatives(ambient, space, rref(relations)[0])
    rank_rel = to_sympy(combos).rank() if combos else 0
    assert len(reps) == to_sympy(rows).rank() - rank_rel
    # a unit vector outside the space makes the relations escape it
    outside = [j for j in range(n)
               if to_sympy(rows + [[F(int(i == j)) for i in range(n)]]).rank()
               > to_sympy(rows).rank()]
    if outside:
        with pytest.raises(CompositionError):
            quotient_representatives(ambient, space, relations + [((outside[0], F(1)),)])


# the entries of a map: zeros, ints, and Fractions over the denominators 2, 3 and 7
st_map_entry = st.one_of(st.just(F(0)), st.just(F(0)), st.integers(-3, 3),
                         st.builds(F, st.integers(-6, 6), st.sampled_from([2, 3, 7])))
st_nonzero = st_map_entry.filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 5), st.booleans()), st.data())
def test_kernel_transversal_matches_its_spanned_basis(shape, data):
    m, n, full = shape
    matrix = data.draw(st.lists(st.lists(st_map_entry, min_size=n, max_size=n),
                                min_size=m, max_size=m))
    if full:
        # no empty column, so no monomial lies in the kernel and the
        # transversal is read off Kernel.rows()
        matrix.append(data.draw(st.lists(st_nonzero, min_size=n, max_size=n)))
    cols = [sparse(col) for col in zip(*matrix)]
    basis = nullspace(transpose(cols), n)
    kernel = Kernel(cols)
    assert len(kernel) == n - rank_of(cols) == len(basis)
    # relations: combinations of the kernel basis, one repeated, and zero rows
    coeffs = data.draw(st.lists(
        st.lists(st_map_entry, min_size=len(basis), max_size=len(basis)), max_size=3))
    combos = [[sum((c * dict(v).get(j, F(0)) for c, v in zip(cs, basis)), F(0))
               for j in range(n)] for cs in coeffs]
    relations = [sparse(v) for v in combos + combos[:1]] + [()] * data.draw(st.integers(0, 2))
    ambient = SliceBasis(Bidegree(0, 0), None, tuple(Monomial(lam=j) for j in range(n)))
    reps = quotient_representatives(ambient, kernel, relations)
    assert reps == quotient_representatives(ambient, Echelon(basis), relations)
    assert kernel.rows() == rref(basis)[0]
    # against sympy: every representative lies in the kernel, and they are
    # independent modulo the relations and as many as the quotient's dimension
    vecs = [dense(row, n) for row, _ in reps]
    assert all(not any(to_sympy(matrix) * to_sympy([v]).T) for v in vecs)
    rank_rel = sympy_rank(combos)
    assert sympy_rank(vecs + combos) == len(reps) + rank_rel
    assert len(reps) == n - to_sympy(matrix).rank() - rank_rel
    if full:
        assert all(mono is None for _, mono in reps)


def sympy_remainder(rows, v):
    """v minus its component in the span of rows: v - sum v[pc] * row_pc
    over the reduced rows, as Fractions."""
    want = to_sympy([v])
    if rows:
        red, pivots = to_sympy(rows).rref()
        for i, pc in enumerate(pivots):
            want -= v[pc] * red.row(i)
    return [to_fraction(x) for x in want]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_echelon_between_inserts_matches_sympy(n, data):
    # forward-reduced rows answer every query; rows() back-substitutes on
    # demand, so reads and inserts are mixed in a random order
    ech, inserted = Echelon(), []
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(["add", "insert", "contains", "reduce", "rows"]),
        st.lists(st_map_entry, min_size=n, max_size=n)), min_size=1, max_size=12))
    for op, v in ops:
        if op == "rows":
            got = ech.rows()
            want = sympy_rref_rows(to_sympy(inserted)) if inserted else ([], [])
            assert ([dense(r, n) for r in got], ech.pivots()) == want
            assert all(map(is_fraction_row, got))
            continue
        rem = sympy_remainder(inserted, v)
        lead = next((j for j, x in enumerate(rem) if x), None)
        if op == "add":
            assert ech.add(sparse(v)) == (lead is not None)
        elif op == "insert":
            assert ech._insert(sparse(v)) == lead
        elif op == "contains":
            assert ech.contains(sparse(v)) == (lead is None)
        else:
            got = ech.reduce(sparse(v))
            assert dense(got, n) == rem and is_fraction_row(got)
        if op in ("add", "insert"):
            inserted.append(v)
        assert len(ech) == sympy_rank(inserted)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 3), st.integers(1, 5)), st.data())
def test_kernel_len_matches_the_plain_rank(shape, data):
    # the columns of specseq.z_cols: a band of a map, and unit entries that
    # pin coordinates; a pinned row may be shared or lie inside the band,
    # and only a single entry in a row of its own skips the elimination
    m, n = shape
    matrix = data.draw(st.lists(st.lists(st_map_entry, min_size=n, max_size=n),
                                min_size=m, max_size=m))
    cols = [sparse(col) for col in zip(*matrix)] if m else [()] * n
    for j in data.draw(st.sets(st.integers(0, n - 1))):
        cols[j] = ((data.draw(st.integers(0, m + n - 1)), data.draw(st_nonzero)),)
    dense_cols = [dense(col, m + n) for col in cols]
    assert len(Kernel(cols)) == n - to_sympy(dense_cols).rank() == n - rank_of(cols)
