"""The dispersionless KdV Poisson pencil and its filtered complex.

The two compatible structures have densities t0 t1 / 2 and u t0 t1 / 2.
Their difference with the central parameter, u t0 t1 / 2 - l t0 t1 / 2,
generates the pencil differential.  The filtration by top jet order turns
each fixed even-count piece of the complex into a finite filtered complex;
this module provides the pencil operators, the filtration bookkeeping, the
explicit page-one differential, and the weighted homotopy that contracts
almost all of page one.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from . import varcalc
from .algebra import (
    Bidegree,
    DiffPoly,
    Monomial,
    ZERO,
    lam_var,
    mul,
    partial,
    poly,
    subst_lam,
    theta,
    u_jet,
)
from .linwin import (
    OperatorMatrix,
    SliceBasis,
    Window,
    _partitions,
    enumerate_piece_basis,
    lambda_lift,
    operator_matrix,
)
from .specseq import FilteredSlice
from .varcalc import OperatorSpec, build_dp

P1_DENSITY = poly("1/2 t0 t1")
P2_DENSITY = poly("1/2 u t0 t1")
PENCIL_DENSITY = P2_DENSITY - lam_var() * P1_DENSITY

D1 = build_dp(P1_DENSITY, name="d1")
D2 = build_dp(P2_DENSITY, name="d2")
DLAMBDA = build_dp(PENCIL_DENSITY, name="dlambda")


def d_lambda(a: DiffPoly) -> DiffPoly:
    """Pencil differential: second structure minus l times the first."""
    return DLAMBDA(a)


class HomotopySingularityError(ArithmeticError):
    """The weighted homotopy divides by a vanishing weight here."""


# -- filtration ------------------------------------------------------------


def filtration_level(x: Union[Monomial, DiffPoly]) -> Optional[int]:
    """Standard degree minus top jet order; for a polynomial the minimum.

    Returns None for the zero polynomial (member of every filtration step).
    """
    if isinstance(x, Monomial):
        return x.degree() - x.max_jet()
    if not x.terms:
        return None
    return min(m.degree() - m.max_jet() for m in x.terms)


def subcomplex_bidegrees(k: int) -> List[Bidegree]:
    """Bidegrees (p, p+k) of the subcomplex preserved by the pencil.

    The exclusion d >= p(p-1)/2 is not monotonic in p, so every candidate
    up to the quadratic bound is tested.
    """
    if k < -1:
        return []
    p_bound = (3 + math.isqrt(9 + 8 * k)) // 2 + 1
    out = []
    for p in range(p_bound + 1):
        d = p + k
        if d >= 0 and 2 * d >= p * (p - 1):
            out.append(Bidegree(p, d))
    return out


# -- page one --------------------------------------------------------------


def _t0tq(q: int) -> DiffPoly:
    return theta(0) * theta(q)


def _page_one_split(m: Monomial, q: int) -> Tuple[Monomial, int]:
    """Split a page-one monomial into cofactor and embedding sign.

    The monomial must contain t0 and t^q and no central parameter, and the
    cofactor must have top order at most q - 1.
    """
    if m.lam:
        raise ValueError(f"page-one element must be parameter free: {m.format()}")
    if 0 not in m.odd or q not in m.odd:
        raise ValueError(f"expected both t0 and t{q} in {m.format()}")
    odd_f = tuple(s for s in m.odd if s not in (0, q))
    f = Monomial(0, m.u0, m.even, odd_f)
    if f.max_jet() > q - 1:
        raise ValueError(f"cofactor of {m.format()} exceeds top order {q - 1}")
    return f, (-1 if len(odd_f) % 2 else 1)


def _cofactor_max_jet(m: Monomial, q: int) -> int:
    odd_f = tuple(s for s in m.odd if s not in (0, q))
    return Monomial(0, m.u0, m.even, odd_f).max_jet()


def e1_basis(p: int, q: int, w: Window) -> SliceBasis:
    """Windowed model basis of the first page at position (p, q).

    Position (0, 0) is spanned by powers of the parameter up to L.  For
    p >= 1, q >= 2 the basis consists of monomials f t0 t^q with f free of
    the parameter and of t0, of standard degree p, top order exactly q - 1,
    and u-power at most N.  Every other position is empty; in particular
    the smooth one-dimensional family in the corner column is dropped by
    the polynomial coefficient model.
    """
    bd = Bidegree(p, p + q)
    if (p, q) == (0, 0):
        monos = tuple(Monomial(lam=j) for j in range(w.L + 1))
        return SliceBasis(Bidegree(0, 0), w, monos, "E1(0,0)")
    monos = []
    if p >= 1 and q >= 2:
        for f in _cofactors(p, q, u0_max=w.N):
            monos.append(Monomial(0, f.u0, f.even, tuple(sorted(f.odd + (0, q)))))
    return SliceBasis(bd, w, tuple(sorted(monos)), f"E1({p},{q})")


def _cofactors(p: int, q: int, u0_max: int):
    """Cofactor monomials: degree p, top order exactly q - 1, no t0, no l."""
    top = q - 1
    for r in range(p + 1):
        for odd in itertools.combinations(range(1, top + 1), r):
            rest = p - sum(odd)
            if rest < 0:
                continue
            for even in _partitions(rest):
                if even and even[-1][0] > top:
                    continue
                jet_top = max([s for s, _ in even] + list(odd), default=0)
                if jet_top != top:
                    continue
                for u0 in range(u0_max + 1):
                    yield Monomial(0, u0, even, odd)


def d1_explicit(x: DiffPoly, q: int) -> DiffPoly:
    """Page-one differential in the model basis of column q.

    Computed from the closed formula: apply the pencil differential to the
    cofactor, set the parameter to u, add (q - 2)/2 times t1 times the
    cofactor, multiply back by t0 t^q, and keep only the part whose
    cofactor has top order exactly q - 1.
    """
    if q < 2:
        raise ValueError("page-one columns start at q = 2")
    out = ZERO
    u0_poly = u_jet(0)
    embed = _t0tq(q)
    for m, c in x.terms.items():
        f_mono, sign = _page_one_split(m, q)
        f = DiffPoly.monomial(f_mono, c * sign)
        g = subst_lam(DLAMBDA(f), u0_poly) + Fraction(q - 2, 2) * (theta(1) * f)
        full = mul(g, embed)
        kept = {}
        for mm, cc in full.terms.items():
            top = _cofactor_max_jet(mm, q)
            if top > q - 1:
                raise AssertionError(
                    f"page-one image leaked above the diagonal: {mm.format()}")
            if top == q - 1:
                kept[mm] = cc
        out = out + DiffPoly(kept)
    return out


# -- weighted homotopy -------------------------------------------------------


def u_weight(m: Monomial) -> Fraction:
    """Eigenvalue of the rescaling that fixes u, l and t1.

    Jets of order s weigh (s + 2)/2 when even and (s - 1)/2 when odd, so
    t0 weighs -1/2 and the weight can vanish on mixed monomials.
    """
    w = Fraction(0)
    for s, e in m.even:
        w += e * Fraction(s + 2, 2)
    for s in m.odd:
        w += Fraction(s - 1, 2)
    return w


def h_op(x: DiffPoly, p: int, q: int) -> DiffPoly:
    """Contracting homotopy on page one at position (p, q).

    Inverts the weighting after differentiating by t1.  Position (1, 2)
    carries the surviving classes and is refused outright; elsewhere a
    vanishing weight is a genuine singularity and raises as well.
    """
    if p < 1 or q < 2:
        raise ValueError("homotopy applies to columns q >= 2 at rows p >= 1")
    if (p, q) == (1, 2):
        raise HomotopySingularityError(
            "the homotopy is singular at position (1, 2)")
    b = partial(x, "t1")
    terms = {}
    for m, c in b.terms.items():
        w = u_weight(m)
        if w == 0:
            raise HomotopySingularityError(
                f"vanishing weight on {m.format() or '1'}")
        terms[m] = c / w
    return DiffPoly(terms)


# -- piece matrices and the filtered complex ---------------------------------


_PIECE_CACHE: Dict[Tuple[str, int, int, int], OperatorMatrix] = {}


def _op_piece_matrix(op: OperatorSpec, bd: Bidegree, c: int, c_out: int) -> OperatorMatrix:
    """Matrix of d1 or d2 on the parameter-free piece, cached by op name.

    Assembled through varcalc.apply_op, which reads no memo: the cached
    matrix holds the columns, so a memo of monomial images would only
    duplicate them.  It is read off the module at each miss, so a wrapper
    set on varcalc.apply_op sees assembly.
    """
    key = (op.name, bd.p, bd.d, c)
    if key not in _PIECE_CACHE:
        up = Bidegree(bd.p + 1, bd.d + 1)
        _PIECE_CACHE[key] = operator_matrix(
            functools.partial(varcalc.apply_op, op), enumerate_piece_basis(bd, c, False),
            enumerate_piece_basis(up, c_out, False))
    return _PIECE_CACHE[key]


def _minus_d1_piece_matrix(p: int, d: int, c: int) -> OperatorMatrix:
    """The d1 block negated, cached, so each entry is negated once."""
    key = ("-d1", p, d, c)
    if key not in _PIECE_CACHE:
        d1 = d1_piece_matrix(p, d, c)
        _PIECE_CACHE[key] = OperatorMatrix(d1.domain, d1.codomain, tuple(
            tuple((i, -x) for i, x in col) for col in d1.cols))
    return _PIECE_CACHE[key]


def dlambda_piece_matrix(p: int, d: int, c: int) -> OperatorMatrix:
    """Pencil differential on the even-count piece (preserves the count).

    The pencil sends l^a m to l^a d2(m) - l^(a+1) d1(m), so its matrix is
    the lambda_lift of the cached d2 block of count c - a into l^a and the
    cached negated d1 block into l^(a+1).  No monomial is differentiated
    here, and each block rejects its own codomain overflow.
    """
    key = ("dlambda", p, d, c)
    if key not in _PIECE_CACHE:
        _PIECE_CACHE[key] = lambda_lift(Bidegree(p, d), Bidegree(p + 1, d + 1), c, [
            ((d2_piece_matrix(p, d, c - a), a), (_minus_d1_piece_matrix(p, d, c - a), a + 1))
            for a in range(c + 1)])
    return _PIECE_CACHE[key]


def d1_piece_matrix(p: int, d: int, c: int) -> OperatorMatrix:
    """First structure on the parameter-free piece; lowers the count."""
    return _op_piece_matrix(D1, Bidegree(p, d), c, c - 1)


def d2_piece_matrix(p: int, d: int, c: int) -> OperatorMatrix:
    """Second structure on the parameter-free piece; preserves the count."""
    return _op_piece_matrix(D2, Bidegree(p, d), c, c)


@lru_cache(maxsize=None)
def pencil_filtered_slice(k: int, c: int) -> FilteredSlice:
    """The finite filtered complex of one even-count piece.

    k is the difference of standard and super degree, preserved by the
    pencil differential; together with the even-factor count it cuts the
    complex into finite pieces with no truncation anywhere.  The top slice
    maps into an empty one, which doubles as a check that the differential
    really ends there.  No basis is enumerated and no matrix is built
    until a reader of the slice reaches its degree.
    """
    spots = {bd.d: bd for bd in subcomplex_bidegrees(k)}

    def piece(n: int) -> Tuple[SliceBasis, Tuple[int, ...]]:
        basis = enumerate_piece_basis(spots[n], c)
        return basis, tuple(n - m.max_jet() for m in basis.monomials)

    return FilteredSlice(tuple(spots), piece,
                         lambda n: dlambda_piece_matrix(spots[n].p, n, c),
                         f"pencil k={k} c={c}")
