"""Variational calculus: Euler operators, evolutionary fields, functionals.

A local functional is a density modulo total derivatives.  Equality of
functionals is decided exactly: the difference is split into bihomogeneous
pieces of fixed even-factor count and a preimage under the total derivative
is solved for piece by piece.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .algebra import (
    Bidegree,
    DiffPoly,
    IntegerImage,
    ZERO,
    apply_memoized,
    derivation,
    dtot,
    dtot_direct,
    image_poly,
    integer_image,
    monomial_partials,
)
from .linwin import (F0, OperatorMatrix, enumerate_piece_basis, lambda_lift,
                     operator_matrix, solve)


def _euler(a: DiffPoly, kind: str) -> DiffPoly:
    """Sum over s of (-dtot)^s d a / d kind^s, by Horner's rule in dtot.

    The partials are grouped by order s; from the top order down,
    out = part_s - dtot(out), so each order costs one total derivative.
    """
    by_order: Dict[int, dict] = {}
    for m, c in a.terms.items():
        for (k, s), factor, rest in monomial_partials(m):
            if k == kind:
                part = by_order.setdefault(s, {})
                part[rest] = part.get(rest, F0) + c * factor
    out = ZERO
    for s in range(max(by_order, default=-1), -1, -1):
        part = DiffPoly(by_order.get(s))
        out = part - dtot(out) if out else part
    return out


def delta_u(a: DiffPoly) -> DiffPoly:
    """Variational derivative in the even field: sum of (-dtot)^s d/du^s."""
    return _euler(a, "u")


def delta_theta(a: DiffPoly) -> DiffPoly:
    """Variational derivative in the odd field: sum of (-dtot)^s d/dt^s."""
    return _euler(a, "t")


class OperatorSpec:
    """Evolutionary superfield given by its action on the two generators.

    The operator sends u to even_seed and t to odd_seed, and extends as the
    unique derivation commuting with the total derivative:

        op(a) = sum_s dtot^s(even_seed) da/du^s + dtot^s(odd_seed) da/dt^s.

    An OperatorSpec is frozen.  It keeps two stores of integer images
    (algebra.integer_image), each entry scaled once and kept for every
    later application:

    * its seeds and their prolongations dtot^s, the seeds scaled on
      construction and each prolongation when first needed;
    * its memo: the image of each parameter-free monomial it has been
      applied to.  Calling the operator applies it term by term through
      the memo (algebra.apply_memoized); a miss runs the derivation kernel
      on the monomial alone.  apply_op reads no memo; piece-matrix
      assembly uses it, since a piece matrix caches its own columns.

    even_seed, odd_seed, even_gen and odd_gen build a fresh polynomial on
    every call, and every call builds a fresh result, so nothing a caller
    holds reaches either store.
    """

    __slots__ = ("name", "_images", "_memo")

    def __init__(self, even_seed: DiffPoly, odd_seed: DiffPoly, name: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_images", {("u", 0): integer_image(even_seed),
                                             ("t", 0): integer_image(odd_seed)})
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, attr, value):
        raise AttributeError(f"OperatorSpec is frozen; cannot set {attr}")

    def __delattr__(self, attr):
        raise AttributeError(f"OperatorSpec is frozen; cannot delete {attr}")

    def _image(self, kind: str, s: int) -> IntegerImage:
        """The integer image of u^s (kind "u") or t^s (kind "t")."""
        key = (kind, s)
        if key not in self._images:
            self._images[key] = integer_image(dtot(image_poly(self._image(kind, s - 1))))
        return self._images[key]

    def _even_image(self, s: int) -> IntegerImage:
        return self._image("u", s)

    def _odd_image(self, s: int) -> IntegerImage:
        return self._image("t", s)

    @property
    def even_seed(self) -> DiffPoly:
        return self.even_gen(0)

    @property
    def odd_seed(self) -> DiffPoly:
        return self.odd_gen(0)

    def even_gen(self, s: int) -> DiffPoly:
        """dtot^s(even_seed), the image of u^s."""
        return image_poly(self._image("u", s))

    def odd_gen(self, s: int) -> DiffPoly:
        """dtot^s(odd_seed), the image of t^s."""
        return image_poly(self._image("t", s))

    def __call__(self, a: DiffPoly) -> DiffPoly:
        return apply_memoized(a, self._memo, self._even_image, self._odd_image)

    def __repr__(self) -> str:
        return (f"OperatorSpec({self.even_seed!r}, {self.odd_seed!r}, "
                f"name={self.name!r})")


def apply_op(op: OperatorSpec, a: DiffPoly) -> DiffPoly:
    return derivation(a, op._even_image, op._odd_image)


def build_dp(density: DiffPoly, name: str = "") -> OperatorSpec:
    """Evolutionary field of a local functional with the given density.

    The even seed is the odd variational derivative and vice versa; this is
    the Hamiltonian pairing for the odd symplectic structure on jets.
    """
    return OperatorSpec(delta_theta(density), delta_u(density), name)


# -- functionals -----------------------------------------------------------


def _components(a: DiffPoly) -> Dict[Tuple[int, int, int], DiffPoly]:
    """Split into pieces of fixed (super degree, standard degree, count)."""
    groups: Dict[Tuple[int, int, int], dict] = {}
    for m, c in a.terms.items():
        groups.setdefault((m.super_degree(), m.degree(), m.ucount()), {})[m] = c
    return {key: DiffPoly(terms) for key, terms in groups.items()}


# the one store of total-derivative piece matrices
_DTOT_PIECE: Dict[Tuple[int, int, int, bool], OperatorMatrix] = {}


def dtot_piece_matrix(p: int, d: int, c: int, include_lambda: bool) -> OperatorMatrix:
    """The total derivative from the piece (p, d - 1) of count c to (p, d).

    dtot is constant on the parameter, so on pieces with l the matrix is
    the lambda_lift of the parameter-free blocks of counts c - a, each into
    l^a; only parameter-free monomials are differentiated, by dtot_direct,
    since the matrix caches its own columns.  Empty pieces give an empty
    matrix.
    """
    key = (p, d, c, include_lambda)
    if key not in _DTOT_PIECE:
        bd, up = Bidegree(p, d - 1), Bidegree(p, d)
        if include_lambda:
            mat = lambda_lift(bd, up, c, [((dtot_piece_matrix(p, d, c - a, False), a),)
                                          for a in range(c + 1)])
        else:
            mat = operator_matrix(dtot_direct, enumerate_piece_basis(bd, c, False),
                                  enumerate_piece_basis(up, c, False))
        _DTOT_PIECE[key] = mat
    return _DTOT_PIECE[key]


def dtot_preimage(a: DiffPoly) -> Optional[DiffPoly]:
    """Exact y with dtot(y) = a, or None when a is not a total derivative.

    Solved piecewise; free coordinates are set to zero, so the result is
    canonical for the monomial order.
    """
    out = ZERO
    for (p, d, c), comp in _components(a).items():
        mat = dtot_piece_matrix(p, d, c, True)
        x = solve(mat.cols, mat.codomain.vector_of(comp))
        if x is None:
            return None
        out = out + mat.domain.poly_of(x)
    return out


class FunctionalClass:
    """A local functional: density modulo exact total derivatives."""

    __slots__ = ("density",)

    def __init__(self, density: DiffPoly):
        self.density = density

    def is_zero(self) -> bool:
        return dtot_preimage(self.density) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionalClass):
            return NotImplemented
        return (self - other).is_zero()

    def __add__(self, other: "FunctionalClass") -> "FunctionalClass":
        return FunctionalClass(self.density + other.density)

    def __sub__(self, other: "FunctionalClass") -> "FunctionalClass":
        return FunctionalClass(self.density - other.density)

    def __neg__(self) -> "FunctionalClass":
        return FunctionalClass(-self.density)

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return FunctionalClass(self.density * c)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"FunctionalClass({self.density!r})"

    def __hash__(self):
        raise TypeError("functional classes are not hashable; compare with ==")


def integral_class(a: DiffPoly) -> FunctionalClass:
    return FunctionalClass(a)


def schouten(p_density: DiffPoly, q_density: DiffPoly) -> FunctionalClass:
    """Variational Schouten bracket of two local functionals.

    Computed as the integral of the evolutionary field of the first density
    applied to the second; the result is well defined as a functional.
    """
    return integral_class(apply_op(build_dp(p_density), q_density))
