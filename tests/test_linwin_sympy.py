"""The elimination kernel against sympy's exact linear algebra.

sympy shares no code with the package, so agreement on random small
rational matrices pins every view of the Echelon kernel: the reduced form
and its pivots, the rank, the canonical kernel basis, the particular
solution with free variables set to zero, and the intersection of a row
space with a coordinate subspace.  Matrices are drawn dense, go in through
sparse() and come back through dense().
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvcohom.linwin import (
    dense,
    intersect_with_coordinates,
    nullspace,
    rank_of,
    rref,
    solve,
    sparse,
)

sympy = pytest.importorskip("sympy")

F = Fraction

# mostly zeros, like the operator matrices the package eliminates
st_entry = st.one_of(st.just(F(0)), st.just(F(0)),
                     st.fractions(-3, 3, max_denominator=4))

st_matrix = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: st.lists(st.lists(st_entry, min_size=mn[1], max_size=mn[1]),
                        min_size=mn[0], max_size=mn[0]))


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


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
    assert rank_of(rows_of(rows)) == to_sympy(rows).rank()


@settings(max_examples=150)
@given(st_matrix)
def test_nullspace_matches_sympy(rows):
    n = len(rows[0])
    want = [[to_fraction(x) for x in v] for v in to_sympy(rows).nullspace()]
    assert [dense(v, n) for v in nullspace(rows_of(rows), n)] == want


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
    assert solve_dense(rows, b) == sympy_solution(rows, b)


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
