"""Variational derivatives, evolutionary fields, functional arithmetic.

Frozen values were worked out by hand from the definitions before
implementation: each Euler operator example, the two seed computations
for the pencil densities, and the bracket symmetry example.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kdvcohom.algebra import (
    Bidegree,
    DiffPoly,
    ZERO,
    dtot,
    lam_var,
    mono,
    partial,
    poly,
    theta,
    u_jet,
)
from kdvcohom.linwin import enumerate_piece_basis, operator_matrix
from kdvcohom.varcalc import (
    FunctionalClass,
    OperatorSpec,
    apply_op,
    build_dp,
    delta_theta,
    delta_u,
    dtot_piece_matrix,
    dtot_preimage,
    integral_class,
    schouten,
)

from test_algebra import st_poly


# -- Euler operators ---------------------------------------------------------


def test_delta_u_frozen():
    assert delta_u(poly("1/2 u^2")) == poly("u")
    assert delta_u(poly("1/2 u1^2")) == poly("-1 u2")
    assert delta_u(poly("u u1")) == ZERO
    assert delta_u(poly("1/2 u t0 t1")) == poly("1/2 t0 t1")


def test_delta_theta_frozen():
    assert delta_theta(poly("1/2 t0 t1")) == theta(1)
    assert delta_theta(poly("1/2 u t0 t1")) == poly("u t1 + 1/2 u1 t0")
    assert delta_theta(poly("u1 t1")) == poly("-1 u2")


def test_delta_theta_second_order():
    # d/dt2 contributes with dtot applied twice and a plus sign
    assert delta_theta(poly("u t2")) == poly("u2")


def euler_power_sum(a, kind):
    """Sum over s of (-1)^s dtot^s applied to d a / d kind^s, one power of
    dtot at a time: the definition, kept as an oracle for Horner's rule."""
    out = ZERO
    for s in range(a.max_jet() + 1):
        term = partial(a, f"t{s}" if kind == "t" else ("u" if s == 0 else f"u{s}"))
        for _ in range(s):
            term = dtot(term)
        out = out + (term if s % 2 == 0 else -term)
    return out


@settings(max_examples=50)
@given(st_poly)
def test_euler_kills_total_derivatives(a):
    assert delta_u(dtot(a)) == ZERO
    assert delta_theta(dtot(a)) == ZERO


# -- evolutionary fields -------------------------------------------------------


def test_build_dp_first_structure():
    op = build_dp(poly("1/2 t0 t1"))
    assert op.even_seed == theta(1)
    assert op.odd_seed == ZERO
    assert apply_op(op, u_jet(0)) == theta(1)
    assert apply_op(op, poly("1/2 u1^2")) == poly("u1 t2")
    assert apply_op(op, theta(3)) == ZERO


def test_build_dp_second_structure():
    op = build_dp(poly("1/2 u t0 t1"))
    assert op.even_seed == poly("u t1 + 1/2 u1 t0")
    assert op.odd_seed == poly("1/2 t0 t1")
    assert apply_op(op, u_jet(0)) == poly("u t1 + 1/2 u1 t0")
    assert apply_op(op, theta(0)) == poly("1/2 t0 t1")
    # prolongation: the order-1 coefficient is the total derivative of the seed
    assert op.even_gen(1) == poly("3/2 u1 t1 + u t2 + 1/2 u2 t0")


def test_operator_is_a_derivation_on_products():
    op = build_dp(poly("1/2 u t0 t1"))
    a, b = poly("u u1"), poly("u^2")
    assert apply_op(op, a * b) == apply_op(op, a) * b + a * apply_op(op, b)


def st_homogeneous(parity, top=3, size=2):
    """Nonzero polynomials of up to size terms whose terms have a number of
    odd factors of the given parity (up to three) and jets of order <= top."""
    odd = st.sampled_from([parity, parity + 2]).flatmap(
        lambda n: st.lists(st.integers(0, top), min_size=n, max_size=n, unique=True))
    term = st.tuples(
        st.builds(lambda lam, u0, ev, od: mono(lam=lam, u0=u0, even=ev.items(), odd=od),
                  st.integers(0, 1), st.integers(0, 2),
                  st.dictionaries(st.integers(1, top), st.integers(1, 2), max_size=2),
                  odd),
        st.fractions(max_denominator=6).filter(bool))
    return st.lists(term, min_size=1, max_size=size).map(lambda ts: DiffPoly(dict(ts)))


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_euler_operators_match_the_power_sum(parity, data):
    a = data.draw(st_homogeneous(parity, top=5, size=4))
    assume(a.max_jet() >= 4)
    assert delta_u(a) == euler_power_sum(a, "u")
    assert delta_theta(a) == euler_power_sum(a, "t")


# a field of parity e takes the seed of parity e for u and the other for t
st_seeds = st.tuples(st_homogeneous(0), st_homogeneous(1))
st_graded = st.integers(0, 1).flatmap(
    lambda p: st.tuples(st.just(p), st_homogeneous(p)))


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=40, deadline=None)
@given(seeds=st_seeds, graded=st_graded, b=st_poly)
def test_operator_obeys_leibniz_with_its_parity(parity, seeds, graded, b):
    # X(a b) = X(a) b + (-1)^(e |a|) a X(b) for a field X of parity e
    op = OperatorSpec(seeds[parity], seeds[1 - parity])
    a_parity, a = graded
    sign = -1 if parity and a_parity else 1
    assert apply_op(op, a * b) == apply_op(op, a) * b + sign * (a * apply_op(op, b))


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=15, deadline=None)
@given(seeds=st_seeds)
def test_operator_sends_generators_to_prolonged_seeds(parity, seeds):
    even_seed, odd_seed = seeds[parity], seeds[1 - parity]
    op = OperatorSpec(even_seed, odd_seed)
    assert apply_op(op, lam_var()) == ZERO
    assert apply_op(op, u_jet(0)) == even_seed
    assert apply_op(op, theta(0)) == odd_seed
    for s in range(1, 4):
        assert apply_op(op, u_jet(s)) == op.even_gen(s) == dtot(op.even_gen(s - 1))
        assert apply_op(op, theta(s)) == op.odd_gen(s) == dtot(op.odd_gen(s - 1))


def test_operator_commutes_with_dtot():
    # evolutionary fields commute with the total derivative by construction
    op = build_dp(poly("1/2 u t0 t1"))
    for text in ("u u1", "u t1", "u1 t0 t2", "1/2 u^2 t0"):
        a = poly(text)
        assert apply_op(op, dtot(a)) == dtot(apply_op(op, a))


def test_operator_spec_caches_are_out_of_callers_reach():
    op = build_dp(poly("1/2 t0 t1"), name="d1")
    assert op.name == "d1"
    want = poly("-1 u1 t0 t1 + -1 u t0 t2")
    assert op(poly("u u1 t0")) == want
    # what a caller is handed is a fresh polynomial, never the cached image
    op.even_gen(1).terms.clear()
    op.even_seed.terms.clear()
    op.odd_gen(0).terms[mono(u0=1)] = Fraction(1)
    assert op(poly("u u1 t0")) == want
    assert op.even_gen(1) == theta(2)
    for attr, value in (("even_seed", ZERO), ("odd_seed", ZERO), ("name", "d2"),
                        ("_images", {})):
        with pytest.raises(AttributeError):
            setattr(op, attr, value)
    with pytest.raises(AttributeError):
        del op.name
    assert op(poly("u u1 t0")) == want


def test_each_prolonged_image_is_scaled_once(monkeypatch):
    from kdvcohom import varcalc
    from kdvcohom.acceptance import _battery
    from kdvcohom.kdvpencil import D2, P2_DENSITY

    xs = _battery(6, 3, 2)[-50:]
    want = [D2(x) for x in xs]
    scaled = []
    real = varcalc.integer_image

    def counting(a):
        scaled.append(a)
        return real(a)

    monkeypatch.setattr(varcalc, "integer_image", counting)
    op = build_dp(P2_DENSITY, name="d2")
    first = [op(x) for x in xs]
    assert first == want
    # the seeds and every prolongation the battery reached, once each
    assert len(op._images) > 2 and len(scaled) == len(op._images)
    assert [op(x) for x in xs] == first
    assert len(scaled) == len(op._images)


# -- functionals ----------------------------------------------------------------


def test_dtot_preimage_frozen():
    assert dtot_preimage(poly("u u2 + u1^2")) == poly("u u1")
    assert dtot_preimage(poly("u1")) == poly("u")
    assert dtot_preimage(poly("u1 t0")) is None
    assert dtot_preimage(poly("u")) is None
    assert dtot_preimage(ZERO) == ZERO


def test_dtot_piece_matrix_matches_the_derivation():
    # the reference differentiates every monomial, l-powers included
    pieces = 0
    for p in range(-1, 6):
        for d in range(9):
            for c in range(-1, 12):
                for lam in (False, True):
                    mat = dtot_piece_matrix(p, d, c, lam)
                    want = operator_matrix(
                        dtot, enumerate_piece_basis(Bidegree(p, d - 1), c, lam),
                        enumerate_piece_basis(Bidegree(p, d), c, lam))
                    assert mat.domain is want.domain and mat.codomain is want.codomain
                    assert mat.cols == want.cols, (p, d, c, lam)
                    assert repr(mat.cols) == repr(want.cols), (p, d, c, lam)
                    pieces += 1
    assert pieces == 1638


def test_functional_equality():
    assert integral_class(poly("u u1")).is_zero()
    assert not integral_class(poly("t0 t1")).is_zero()
    assert integral_class(poly("u u2")) == integral_class(poly("-1 u1^2"))
    assert integral_class(poly("u u2")) != integral_class(poly("u1^2"))


def test_functional_arithmetic():
    a = integral_class(poly("u t1"))
    b = integral_class(poly("u1 t0"))
    # integration by parts: int u t1 = -int u1 t0
    assert a + b == integral_class(ZERO)
    assert 2 * a == integral_class(poly("2 u t1"))
    assert -a == b


st_small_mono = st.builds(
    lambda lam, u0, ev, odd: DiffPoly.monomial(mono(lam=lam, u0=u0, even=ev, odd=odd)),
    st.integers(0, 1),
    st.integers(0, 1),
    st.sampled_from([(), ((1, 1),), ((1, 2),), ((2, 1),), ((1, 1), (2, 1))]),
    st.sampled_from([(), (0,), (1,), (0, 1), (0, 2)]),
)

st_small_poly = st.lists(st_small_mono, max_size=2).map(
    lambda ps: sum(ps, ZERO))


@settings(max_examples=25, deadline=None)
@given(st_small_poly)
def test_total_derivatives_integrate_to_zero(a):
    assert integral_class(dtot(a)).is_zero()


def test_functional_not_hashable():
    with pytest.raises(TypeError):
        hash(integral_class(ZERO))


# -- Schouten bracket ------------------------------------------------------------


def test_bracket_of_first_structure_with_itself_vanishes():
    p1 = poly("1/2 t0 t1")
    assert schouten(p1, p1).is_zero()


def test_bracket_with_hamiltonian_frozen():
    # the quadratic Hamiltonian generates a nonzero flow against the
    # constant structure; the density is fixed up to integration by parts
    h = poly("1/2 u^2")
    p1 = poly("1/2 t0 t1")
    br = schouten(h, p1)
    assert not br.is_zero()
    assert br == integral_class(poly("-1 u1 t0"))
    # graded symmetry for this degree combination: the two orders agree
    assert schouten(p1, h) == br
