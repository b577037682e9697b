"""Core superalgebra: products, signs, derivatives, text round trip.

Every frozen value below was computed by hand from the sign conventions
(odd factors in increasing order, left derivative for odd variables)
before the implementation existed.
"""

import functools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvcohom.algebra import (
    Bidegree,
    DiffPoly,
    Monomial,
    ONE,
    ZERO,
    apply_memoized,
    bidegree,
    dtot,
    format_poly,
    integer_image,
    lam_var,
    mono,
    monomial_partials,
    mul,
    parse_poly,
    partial,
    poly,
    subst_lam,
    theta,
    u_jet,
)
from kdvcohom.kdvpencil import D1, D2, DLAMBDA
from kdvcohom.varcalc import OperatorSpec, apply_op, delta_theta, delta_u


# -- monomial bookkeeping --------------------------------------------------


def test_mono_normalizes_and_validates():
    m = mono(even=[(2, 1), (1, 2)], odd=[3, 0])
    assert m.even == ((1, 2), (2, 1))
    assert m.odd == (0, 3)
    with pytest.raises(ValueError):
        mono(odd=[1, 1])
    with pytest.raises(ValueError):
        mono(even=[(0, 1)])
    with pytest.raises(ValueError):
        mono(lam=-1)


def test_gradations():
    m = mono(lam=2, u0=1, even=[(1, 2), (3, 1)], odd=[0, 2])
    # d counts jet orders with multiplicity, p counts odd factors
    assert m.degree() == 2 * 1 + 3 + 0 + 2
    assert m.super_degree() == 2
    assert m.bidegree() == Bidegree(2, 7)
    assert m.max_jet() == 3
    assert m.ucount() == 2 + 1 + 3


def test_window_membership():
    m = mono(lam=2, u0=3)
    assert m.in_window(3, 2)
    assert not m.in_window(2, 2)
    assert not m.in_window(3, 1)


def test_canonical_term_order():
    # sort key is (lam, u0, even, odd)
    ms = [poly(s).monomials()[0] for s in ("l t1", "u t1", "t1", "l u")]
    assert sorted(ms) == [poly(s).monomials()[0] for s in ("t1", "u t1", "l t1", "l u")]


# -- products and Koszul signs ----------------------------------------------


def test_odd_product_signs():
    assert theta(1) * theta(0) == poly("-1 t0 t1")
    assert theta(0) * theta(1) == poly("t0 t1")
    assert theta(0) * theta(0) == ZERO
    assert poly("u t1") * poly("u1 t0") == poly("-1 u u1 t0 t1")
    # three factors: t2 t0 t1 needs two transpositions
    assert theta(2) * poly("t0 t1") == poly("t0 t1 t2")
    assert poly("t1 t2") * theta(0) == poly("t0 t1 t2")


def test_even_factors_commute():
    a = poly("1/2 u u1")
    b = poly("l u2")
    assert a * b == b * a == poly("1/2 l u u1 u2")


st_monomial = st.builds(
    lambda lam, u0, evs, odd: mono(lam=lam, u0=u0,
                                   even=[(s, e) for s, e in evs.items()],
                                   odd=odd),
    st.integers(0, 2),
    st.integers(0, 2),
    st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2),
    st.sets(st.integers(0, 3), max_size=2).map(sorted),
)

st_poly = st.lists(
    st.tuples(st_monomial, st.fractions(max_denominator=6)), max_size=3
).map(lambda ts: DiffPoly({m: c for m, c in ts}))


def brute_product(m1, m2):
    """m1 * m2 from the definition: the factors of m1 followed by those of
    m2, the odd ones bubble-sorted with a sign flip per swap, and zero when
    an odd factor repeats."""
    odd = list(m1.odd + m2.odd)
    sign = 1
    for end in range(len(odd) - 1, 0, -1):
        for i in range(end):
            if odd[i] > odd[i + 1]:
                odd[i], odd[i + 1] = odd[i + 1], odd[i]
                sign = -sign
    if any(x == y for x, y in zip(odd, odd[1:])):
        return ZERO
    return DiffPoly.monomial(
        mono(m1.lam + m2.lam, m1.u0 + m2.u0, m1.even + m2.even, odd), sign)


# up to five odd factors of orders 0..7 and jets up to order 4, so that
# products meet repeated odd factors and long Koszul reorderings
st_monomial_wide = st.builds(
    lambda lam, u0, evs, odd: mono(lam=lam, u0=u0, even=list(evs.items()), odd=odd),
    st.integers(0, 2),
    st.integers(0, 2),
    st.dictionaries(st.integers(1, 4), st.integers(1, 2), max_size=3),
    st.sets(st.integers(0, 7), max_size=5).map(sorted),
)
st_poly_wide = st.lists(
    st.tuples(st_monomial_wide, st.fractions(max_denominator=6)), max_size=4
).map(lambda ts: DiffPoly({m: c for m, c in ts}))


@settings(max_examples=300)
@given(st_monomial_wide, st_monomial_wide)
def test_monomial_product_matches_brute_force(m1, m2):
    assert DiffPoly.monomial(m1) * DiffPoly.monomial(m2) == brute_product(m1, m2)


@settings(max_examples=100)
@given(st_poly_wide, st_poly_wide)
def test_polynomial_product_matches_brute_force(a, b):
    expected = ZERO
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            expected = expected + (c1 * c2) * brute_product(m1, m2)
    assert a * b == expected


@given(st_monomial, st_monomial)
def test_graded_commutativity(m1, m2):
    a, b = DiffPoly.monomial(m1), DiffPoly.monomial(m2)
    sign = -1 if (m1.super_degree() * m2.super_degree()) % 2 else 1
    assert a * b == sign * (b * a)


@settings(max_examples=60)
@given(st_poly, st_poly, st_poly)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


# -- partial derivatives -----------------------------------------------------


def test_even_partials():
    assert partial(poly("u^3"), "u") == poly("3 u^2")
    assert partial(poly("u2^2 t0"), "u2") == poly("2 u2 t0")
    assert partial(poly("l^2 u"), "l") == poly("2 l u")
    assert partial(poly("u1"), "u2") == ZERO


def test_left_odd_derivative_signs():
    # d/dt1 (t0 t1): t1 sits behind one odd factor, hence the minus
    assert partial(poly("t0 t1"), "t1") == poly("-1 t0")
    assert partial(poly("t0 t1"), "t0") == poly("t1")
    assert partial(poly("t0 t1 t2"), "t2") == poly("t0 t1")
    assert partial(poly("t0 t1 t2"), "t1") == poly("-1 t0 t2")
    assert partial(poly("u t1"), "t1") == poly("u")


@given(st_monomial, st_monomial)
def test_odd_partial_is_left_antiderivation(m1, m2):
    a, b = DiffPoly.monomial(m1), DiffPoly.monomial(m2)
    sign = -1 if m1.super_degree() % 2 else 1
    lhs = partial(a * b, "t1")
    rhs = partial(a, "t1") * b + sign * (a * partial(b, "t1"))
    assert lhs == rhs


SUPER_VARIABLES = ("l", "u", "u1", "u2", "u3", "t0", "t1", "t2", "t3")


@pytest.mark.parametrize("var", SUPER_VARIABLES)
@settings(max_examples=40)
@given(a=st_poly, b=st_poly, parity=st.integers(0, 1))
def test_partial_is_a_super_derivation(var, a, b, parity):
    # d(a b) = da b + (-1)^(|var| |a|) a db, for a of one parity
    a = DiffPoly({m: c for m, c in a.terms.items() if m.super_degree() % 2 == parity})
    sign = -1 if var.startswith("t") and parity else 1
    assert partial(a * b, var) == partial(a, var) * b + sign * (a * partial(b, var))


@pytest.mark.parametrize("text, var, expected", [
    ("l^3 u t0", "l", "3 l^2 u t0"),
    ("u^2 u1^3 t2", "u1", "3 u^2 u1^2 t2"),
    ("u1 u3^2", "u3", "2 u1 u3"),
    ("u2^4 t0 t2", "u2", "4 u2^3 t0 t2"),
    ("u t0 t1 t2 t3", "t3", "-1 u t0 t1 t2"),
    ("u t0 t1 t2 t3", "t2", "u t0 t1 t3"),
    ("u t0 t1 t2 t3", "t0", "u t1 t2 t3"),
    ("u1 t1 t2", "t2", "-1 u1 t1"),
    ("u1 t1 t2", "u", "0"),
])
def test_partial_frozen_for_every_kind(text, var, expected):
    assert partial(poly(text), var) == poly(expected)


def test_rejects_unknown_variables():
    with pytest.raises(ValueError):
        partial(ONE, "x")
    with pytest.raises(ValueError):
        partial(ONE, "u0")


# -- total derivative ---------------------------------------------------------


def test_dtot_on_generators():
    assert dtot(u_jet(0)) == u_jet(1)
    assert dtot(u_jet(3)) == u_jet(4)
    assert dtot(theta(0)) == theta(1)
    assert dtot(lam_var()) == ZERO
    assert dtot(ONE) == ZERO


def test_dtot_frozen_example():
    assert dtot(poly("u t0 t1")) == poly("u1 t0 t1 + u t0 t2")
    assert dtot(poly("1/2 t0 t1")) == poly("1/2 t0 t2")
    assert dtot(poly("u^2")) == poly("2 u u1")


@settings(max_examples=60)
@given(st_poly, st_poly)
def test_dtot_is_an_even_derivation(a, b):
    assert dtot(a * b) == dtot(a) * b + a * dtot(b)


@given(st_monomial)
def test_dtot_grading(m):
    a = DiffPoly.monomial(m)
    da = dtot(a)
    if not da.is_zero():
        assert bidegree(da) == Bidegree(m.super_degree(), m.degree() + 1)
        assert all(mm.ucount() == m.ucount() for mm in da.monomials())


def derivation_reference(a, even_image, odd_image):
    """The derivation term by term in Fraction arithmetic: each term of each
    variable's image times the rest of its monomial, by brute_product."""
    out = ZERO
    for m, c in a.terms.items():
        for (kind, s), factor, rest in monomial_partials(m):
            if kind != "lam":
                image = even_image(s) if kind == "u" else odd_image(s)
                for mi, ci in image.terms.items():
                    out = out + (c * factor * ci) * brute_product(mi, rest)
    return out


# an odd field whose seeds carry the denominators 2, 3 and 7
FIELD_237 = OperatorSpec(poly("1/2 u t1 + 2/3 u1 t0"), poly("3/7 t0 t1 + -1/3 u t0 t2"))

# monomials and polynomials with jets up to order 5, even and odd
st_monomial_5 = st.builds(
    lambda lam, u0, evs, odd: mono(lam=lam, u0=u0, even=list(evs.items()), odd=odd),
    st.integers(0, 2),
    st.integers(0, 2),
    st.dictionaries(st.integers(1, 5), st.integers(1, 2), max_size=2),
    st.sets(st.integers(0, 5), max_size=2).map(sorted),
)
st_poly_5 = st.lists(
    st.tuples(st_monomial_5, st.fractions(max_denominator=6)), max_size=3
).map(lambda ts: DiffPoly({m: c for m, c in ts}))


@settings(max_examples=60, deadline=None)
@given(st_poly_5)
def test_derivation_matches_fraction_reference(a):
    # the prescaled integer images of an operator and the integral images of
    # dtot against the same derivation summed term by term in Fractions
    for got, even_image, odd_image in (
            (apply_op(FIELD_237, a), FIELD_237.even_gen, FIELD_237.odd_gen),
            (dtot(a), lambda s: u_jet(s + 1), lambda s: theta(s + 1))):
        assert got == derivation_reference(a, even_image, odd_image)
        assert all(type(c) is Fraction and c for c in got.terms.values())


# every memoized operator the package applies, with the images the
# reference derivation reads: the pencil operators, a field with
# denominators, the corrupted structure of the negative control, and dtot
CORRUPTED = OperatorSpec(poly("u t1"), poly("1/2 t0 t1"), name="corrupted")
MEMOIZED = [(op, op.even_gen, op.odd_gen) for op in (D1, D2, DLAMBDA, FIELD_237, CORRUPTED)]
MEMOIZED.append((dtot, lambda s: u_jet(s + 1), lambda s: theta(s + 1)))


def fresh_memo(op):
    """The same operator with a memo of its own, still empty."""
    if op is dtot:
        return functools.partial(apply_memoized, memo={},
                                 even_image=lambda s: integer_image(u_jet(s + 1)),
                                 odd_image=lambda s: integer_image(theta(s + 1)))
    return OperatorSpec(op.even_seed, op.odd_seed, op.name)


@settings(max_examples=25, deadline=None)
@given(st_poly_5, st.integers(1, 3), st.booleans())
def test_memoized_operators_match_fraction_reference(a, shift, lifted_first):
    # l^shift a reads the images of a's parameter-free monomials: each
    # operator, with its shared memo and with an empty one, touches l^shift m
    # before m or after it, and a caller then spoils every result it got
    lifted = DiffPoly.monomial(Monomial(lam=shift)) * a
    for op, even_image, odd_image in MEMOIZED:
        want = {id(a): derivation_reference(a, even_image, odd_image),
                id(lifted): derivation_reference(lifted, even_image, odd_image)}
        order = (lifted, a) if lifted_first else (a, lifted)
        for f in (op, fresh_memo(op)):
            for x in order + order:
                got = f(x)
                assert got == want[id(x)]
                assert all(type(c) is Fraction and c for c in got.terms.values())
                for m in got.terms:
                    got.terms[m] = Fraction(7)
                got.terms[Monomial(u0=9)] = Fraction(1)
            assert [f(x) for x in order] == [want[id(x)] for x in order]


def test_lambda_powers_shift_the_stored_image():
    x = poly("1/2 u u1 t0 + u2 t1")
    lifted = poly("l^2") * x
    want = derivation_reference(lifted, DLAMBDA.even_gen, DLAMBDA.odd_gen)
    assert want and any(m.lam == 3 for m in want.terms)
    for first in (x, lifted):
        op = fresh_memo(DLAMBDA)
        op(first)
        assert op(lifted) == want
        assert op(x + lifted) == op(x) + want


def test_each_operator_keeps_its_own_memo():
    x = poly("u u1 t0")
    ops = [fresh_memo(op) for op, _, _ in MEMOIZED]
    for op, (_, even_image, odd_image) in zip(ops, MEMOIZED):
        assert op(x) == derivation_reference(x, even_image, odd_image)
    assert len({str(op(x)) for op in ops}) == len(ops)


@settings(max_examples=60, deadline=None)
@given(st_poly_5, st_poly_5, st.sets(st.integers(0, 5), min_size=1, max_size=2))
def test_results_hold_only_nonzero_fractions(a, b, shared):
    # forced cancellations: a - a, a + b - b, and products whose factors
    # share the odd factors of t, which square to zero
    t = DiffPoly.monomial(mono(odd=shared))
    assert not (a - a).terms
    assert (a + b) - b == a
    operands = [a, b, a - a, a + b - b, a * t, t * b + a]
    results = [x + y for x in operands for y in operands]
    results += [x - y for x in operands for y in operands]
    results += [x * y for x in operands for y in operands]
    results += [-x for x in operands]
    for x in operands:
        results += [dtot(x), apply_op(FIELD_237, x), delta_u(x), delta_theta(x)]
        results += [partial(x, var) for var in SUPER_VARIABLES]
    for r in results:
        assert all(type(c) is Fraction and c for c in r.terms.values()), r.terms


# -- substitution -------------------------------------------------------------


def test_subst_lam():
    assert subst_lam(poly("l^2 u t1"), u_jet(0)) == poly("u^3 t1")
    assert subst_lam(poly("u t1 + -1 l t1"), u_jet(0)) == ZERO
    assert subst_lam(poly("l u1 t0"), poly("u + 1")) == poly("u u1 t0 + u1 t0")


# -- text format --------------------------------------------------------------


def test_format_examples():
    assert format_poly(ZERO) == "0"
    assert format_poly(ONE) == "1"
    assert format_poly(poly("-1/2 u t0 t1 + 2 u1")) == "2 u1 + -1/2 u t0 t1"
    assert format_poly(poly("l^2 u^2 u1^2 t3")) == "1 l^2 u^2 u1^2 t3"


def test_parse_oddities():
    assert poly("t1 t0") == -poly("t0 t1")
    assert poly("-u") == poly("-1 u")
    assert poly("0") == ZERO
    assert poly("3/2") == DiffPoly.scalar(Fraction(3, 2))
    with pytest.raises(ValueError):
        poly("t1^2")
    with pytest.raises(ValueError):
        poly("")


@settings(max_examples=80)
@given(st_poly)
def test_format_parse_round_trip(a):
    assert parse_poly(format_poly(a)) == a


# -- exact coefficients ---------------------------------------------------------


def test_fraction_coefficients_are_kept_and_ints_converted():
    m = Monomial(u0=1)
    c = Fraction(3, 7)
    assert DiffPoly({m: c}).terms[m] is c
    for a in (DiffPoly.monomial(m, 2), DiffPoly.scalar(2), DiffPoly({m: 2}),
              poly("u") * 2, 2 * poly("u"), poly("u") * True):
        assert all(type(x) is Fraction for x in a.terms.values())
    assert DiffPoly.monomial(m, 2) == poly("2 u") == poly("u") * 2


@pytest.mark.parametrize("bad", [0.1, 0.5, Decimal("0.1"), "1", complex(1, 0)])
def test_inexact_coefficients_raise_type_error(bad):
    m = Monomial(u0=1, odd=(0,))
    with pytest.raises(TypeError, match="u t0"):
        DiffPoly.monomial(m, bad)
    with pytest.raises(TypeError, match="u t0"):
        DiffPoly({m: bad})
    with pytest.raises(TypeError, match="1"):
        DiffPoly.scalar(bad)


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "2"])
def test_inexact_scalars_do_not_multiply(bad):
    with pytest.raises(TypeError):
        poly("u") * bad
    with pytest.raises(TypeError):
        bad * poly("u")


@pytest.mark.parametrize("other", [1, 0.5, Fraction(1, 2), "u"])
def test_non_polynomials_do_not_add_or_subtract(other):
    with pytest.raises(TypeError):
        poly("u") + other
    with pytest.raises(TypeError):
        other + poly("u")
    with pytest.raises(TypeError):
        poly("u") - other
    with pytest.raises(TypeError):
        other - poly("u")


def test_mul_matches_spec_alias():
    a, b = poly("u t0"), poly("u1 t1")
    assert mul(a, b) == a * b
