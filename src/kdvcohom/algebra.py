"""Supercommutative algebra of local densities in one even field.

The algebra is generated, over rational polynomials in the field value u
and a central even parameter l (lambda), by even jet variables u1, u2, ...
and odd variables t0, t1, t2, ... (t is the odd super-partner of u).  A
monomial is written in the canonical factor order

    l^k u^a u1^b u2^c ... t0 t1 ...

and a polynomial is a finite rational combination of such monomials.

Two gradations are used throughout the package:

* standard degree d: the jet variable of order s (u^s or t^s) counts s,
  while u, l and rational coefficients count 0;
* super degree p: the number of odd factors.

Every derivative of the algebra rests on one Leibniz rule, written once in
monomial_partials: for each variable present in a monomial it gives the
exponent (or, for an odd variable, the left-derivative sign) and the
monomial with one copy of the variable removed.  partial filters it to one
variable, and derivation() places the image of each variable on the left
of the rest, which is how dtot and the evolutionary fields of varcalc are
built.  The images reach it already scaled to integers, once per operator,
so its term map runs on ints; _integers is the one scaling from exact
numbers to integers, here and in linwin.  Both derivation and DiffPoly *
multiply through one kernel, _times: a whole image times one monomial on
the right, with Koszul signs and repeated odd factors found by bisection on
the sorted odd tuples.

The term map of derivation, on integer numerators over one denominator,
is derivation_numerators, the one derivation kernel.  An operator applied
to polynomials (dtot, and every varcalc.OperatorSpec when called) is
applied term by term through a memo of its own (apply_memoized): the
kernel computes the image of each parameter-free monomial once, the memo
keeps its numerators and denominator, and a term l^a m shifts the image of
m by l^a, since l is central, even and constant.  The monomials of stored
images are interned in one table shared by all memos.  Piece-matrix
assembly calls derivation directly (dtot_direct, varcalc.apply_op): a
piece matrix caches its own columns.

Everything here is exact; coefficients are fractions.Fraction (an int is
converted, anything else raises TypeError) and no floating point is ever
produced.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from operator import index
from typing import Callable, Iterable, NamedTuple, Optional, Tuple, Union

Scalar = Union[int, Fraction]

_F0 = Fraction(0)


class Bidegree(NamedTuple):
    """Super degree p and standard degree d of a homogeneous element."""

    p: int
    d: int


class Monomial(NamedTuple):
    """One monomial, normalized.

    lam  -- exponent of the central parameter l
    u0   -- exponent of the undifferentiated field u
    even -- tuple of (order, exponent) pairs for jets u^order, order >= 1,
            sorted by order, exponents >= 1
    odd  -- strictly increasing tuple of orders s of the odd factors t^s

    Field order doubles as the canonical sort key for terms.
    """

    lam: int = 0
    u0: int = 0
    even: tuple = ()
    odd: tuple = ()

    def degree(self) -> int:
        """Standard degree: total jet order counted with multiplicity."""
        return sum(s * e for s, e in self.even) + sum(self.odd)

    def super_degree(self) -> int:
        """Number of odd factors."""
        return len(self.odd)

    def bidegree(self) -> Bidegree:
        return Bidegree(self.super_degree(), self.degree())

    def max_jet(self) -> int:
        """Largest jet order present; u, l and t0 count as order 0."""
        top = 0
        if self.even:
            top = self.even[-1][0]
        if self.odd and self.odd[-1] > top:
            top = self.odd[-1]
        return top

    def ucount(self) -> int:
        """Number of even factors: u0-power + jet multiplicities + l-power.

        The pencil differentials are homogeneous for this count (D2 and the
        total derivative preserve it, D1 lowers it by one), which is what
        makes every fixed-count slice finite dimensional.
        """
        return self.lam + self.u0 + sum(e for _, e in self.even)

    def in_window(self, n_max: int, l_max: int) -> bool:
        """Membership in the reporting window u0 <= n_max, lam <= l_max."""
        return self.u0 <= n_max and self.lam <= l_max

    def format(self) -> str:
        parts = []
        if self.lam:
            parts.append("l" + (f"^{self.lam}" if self.lam > 1 else ""))
        if self.u0:
            parts.append("u" + (f"^{self.u0}" if self.u0 > 1 else ""))
        for s, e in self.even:
            parts.append(f"u{s}" + (f"^{e}" if e > 1 else ""))
        for s in self.odd:
            parts.append(f"t{s}")
        return " ".join(parts)


ONE_MONO = Monomial()


def mono(lam: int = 0, u0: int = 0, even: Iterable = (), odd: Iterable = ()) -> Monomial:
    """Build a normalized monomial; validates and sorts the factor data."""
    ev = {}
    for s, e in even:
        if s < 1 or e < 0:
            raise ValueError(f"bad even jet factor u{s}^{e}")
        if e:
            ev[s] = ev.get(s, 0) + e
    od = tuple(sorted(odd))
    if any(s < 0 for s in od):
        raise ValueError("odd orders must be >= 0")
    if len(set(od)) != len(od):
        raise ValueError("repeated odd factor")
    if lam < 0 or u0 < 0:
        raise ValueError("negative exponent")
    return Monomial(lam, u0, tuple(sorted(ev.items())), od)


_new = tuple.__new__  # a Monomial without NamedTuple's slower __new__


def _times(image, m: Monomial) -> list:
    """The (monomial, signed coefficient) terms of image * m, image being
    (monomial, coefficient) pairs; a term repeating an odd factor of m
    vanishes.  Its Koszul sign is the parity of the sum, over its odd
    factors s, of the number of m's odd factors below s, found by bisection
    on the sorted tuples, as is a repeat."""
    lam, u0, even, odd = m
    n = len(odd)
    out = []
    for (ilam, iu0, ieven, iodd), c in image:
        if iodd and odd:
            flips = 0
            for s in iodd:
                k = bisect_left(odd, s)
                if k < n and odd[k] == s:
                    flips = -1
                    break
                flips += k
            if flips < 0:
                continue
            if flips & 1:
                c = -c
            iodd = tuple(sorted(iodd + odd))
        if ieven and even:
            ev = dict(ieven)
            for s, e in even:
                ev[s] = ev.get(s, 0) + e
            ieven = tuple(sorted(ev.items()))
        out.append((_new(Monomial, (ilam + lam, iu0 + u0, ieven or even, iodd or odd)), c))
    return out


def _parse_var(var: str):
    """Variable token -> ('lam', None) | ('u', s) | ('t', s)."""
    if var == "l":
        return ("lam", None)
    if var == "u":
        return ("u", 0)
    if len(var) > 1 and var[0] == "u" and var[1:].isdigit():
        s = int(var[1:])
        if s < 1:
            raise ValueError(f"bad variable {var!r} (use plain 'u' for order 0)")
        return ("u", s)
    if len(var) > 1 and var[0] == "t" and var[1:].isdigit():
        return ("t", int(var[1:]))
    raise ValueError(f"unknown variable {var!r}")


class DiffPoly:
    """Polynomial in the jet superalgebra; immutable by convention.

    Internally a map monomial -> nonzero Fraction.  Supports +, -, scalar
    and polynomial multiplication (with Koszul signs), equality, and the
    canonical text format (see parse/format below).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(c, Fraction):
                    if not isinstance(c, int):
                        raise TypeError(
                            f"coefficient {c!r} of {m.format() or '1'} is not "
                            f"an int or a Fraction")
                    c = Fraction(c)
                if c:
                    clean[m] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "DiffPoly":
        return cls()

    @classmethod
    def scalar(cls, c: Scalar) -> "DiffPoly":
        return cls({ONE_MONO: c})

    @classmethod
    def monomial(cls, m: Monomial, c: Scalar = 1) -> "DiffPoly":
        return cls({m: c})

    # -- ring structure -----------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, _F0) + c
        return _poly({m: c for m, c in terms.items() if c})

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "DiffPoly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DiffPoly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, DiffPoly):
            return NotImplemented
        terms = {}
        for m2, c2 in other.terms.items():
            for m, c in _times(self.terms.items(), m2):
                terms[m] = terms.get(m, _F0) + c * c2
        return _poly({m: c for m, c in terms.items() if c})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPoly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- inspection ----------------------------------------------------

    def items(self):
        """Terms in canonical monomial order."""
        return sorted(self.terms.items())

    def monomials(self):
        return sorted(self.terms)

    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(m, _F0)

    def bidegree(self) -> Optional[Bidegree]:
        """Bidegree if homogeneous in both gradations, else None."""
        degs = {m.bidegree() for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def max_jet(self) -> int:
        return max((m.max_jet() for m in self.terms), default=0)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"DiffPoly({format_poly(self)!r})"


def _poly(terms: dict) -> DiffPoly:
    """The polynomial of nonzero Fractions built here, left unchecked."""
    a = DiffPoly.__new__(DiffPoly)
    a.terms = terms
    return a


ZERO = DiffPoly.zero()
ONE = DiffPoly.scalar(1)


def lam_var() -> DiffPoly:
    return DiffPoly.monomial(Monomial(lam=1))


def u_jet(s: int) -> DiffPoly:
    """The even generator u (s = 0) or u^s (s >= 1) as a polynomial."""
    if s == 0:
        return DiffPoly.monomial(Monomial(u0=1))
    return DiffPoly.monomial(Monomial(even=((s, 1),)))


def theta(s: int) -> DiffPoly:
    """The odd generator t^s as a polynomial."""
    return DiffPoly.monomial(Monomial(odd=(s,)))


# -- spec operations ----------------------------------------------------


def mul(a: DiffPoly, b: DiffPoly) -> DiffPoly:
    """Supercommutative product with Koszul signs."""
    return a * b


def monomial_partials(m: Monomial) -> list:
    """The partial derivatives of one monomial, one per variable present.

    A list of (variable, factor, rest) with d m / d variable = factor * rest.
    variable is named as _parse_var names it: ('lam', None), ('u', s) or
    ('t', s); rest is m with one copy of the variable removed.  The factor
    is the exponent for l, u and u^s; for t^s it is the left-derivative
    sign (-1)^k, k the number of odd factors preceding t^s.
    """
    lam, u0, even, odd = m
    out = []
    if lam:
        out.append((("lam", None), lam, _new(Monomial, (lam - 1, u0, even, odd))))
    if u0:
        out.append((("u", 0), u0, _new(Monomial, (lam, u0 - 1, even, odd))))
    for i, (s, e) in enumerate(even):
        fewer = even[:i] + (((s, e - 1),) if e > 1 else ()) + even[i + 1:]
        out.append((("u", s), e, _new(Monomial, (lam, u0, fewer, odd))))
    for k, s in enumerate(odd):
        out.append((("t", s), -1 if k % 2 else 1,
                    _new(Monomial, (lam, u0, even, odd[:k] + odd[k + 1:]))))
    return out


def partial(a: DiffPoly, var: str) -> DiffPoly:
    """Partial derivative by one generator.

    Even variables follow the usual exponent rule.  Odd variables use the
    left derivative: differentiating t^s in a monomial contributes the sign
    (-1)^k where k is the number of odd factors preceding t^s.
    """
    target = _parse_var(var)
    terms = {}
    for m, c in a.terms.items():
        for v, factor, rest in monomial_partials(m):
            if v == target:
                terms[rest] = terms.get(rest, _F0) + c * factor
    return DiffPoly(terms)


def _integers(pairs: Iterable[Tuple[object, Scalar]]) -> Tuple[dict, int]:
    """(key, exact number) pairs as a key -> int dict v and a positive int
    den with v[key] / den the number; den is the lcm of the denominators.
    pairs is a Row or the items of a dict: it is read twice on an error.

    This is the one place where exact numbers are scaled to integers: the
    terms of a polynomial here, the entries of a Row in linwin.  An entry
    without an integer numerator and denominator (a float, say) raises
    TypeError naming its key.
    """
    try:
        den = lcm(*[x.denominator for _, x in pairs])
        return {j: index(x.numerator) * (den // x.denominator) for j, x in pairs}, den
    except (AttributeError, TypeError):
        for j, x in pairs:
            try:
                index(x.numerator), index(x.denominator)
            except (AttributeError, TypeError):
                raise TypeError(f"entry {x!r} in column {j} is not an int "
                                f"or a Fraction") from None
        raise


# The image of one variable under a derivation, scaled to integers: a tuple
# of (monomial, integer numerator) pairs and their positive denominator.
IntegerImage = Tuple[Tuple[Tuple[Monomial, int], ...], int]


def integer_image(a: DiffPoly) -> IntegerImage:
    """a scaled once to integers over the lcm of its denominators."""
    v, den = _integers(a.terms.items())
    return tuple(v.items()), den


def image_poly(image: IntegerImage) -> DiffPoly:
    """The polynomial of an integer image, built fresh."""
    pairs, den = image
    return DiffPoly({m: Fraction(n, den) for m, n in pairs})


def derivation_numerators(a: DiffPoly, even_image: Callable[[int], IntegerImage],
                          odd_image: Callable[[int], IntegerImage]) -> Tuple[dict, int]:
    """The term map of derivation: integer numerators over one denominator.

    Returns (terms, den), terms mapping each monomial the derivation
    reaches to an integer numerator (zero where terms cancel) and den a
    positive int, so that the derivation of a is the sum of n / den times
    each monomial.  The parameter l is constant.  On a monomial the
    derivation is the sum over its variables of the image times the
    partial derivative, the image multiplied on the left, so an odd image
    gives an odd derivation.

    The images come already scaled to integers (see integer_image), so a
    caller applying one operator many times scales each image once.  The
    term map accumulates integer numerators, one _times call per variable
    and rest, over the lcm denominators of a and of the images.
    """
    v, den_a = _integers(a.terms.items())
    images = {}
    steps = []
    for m, n in v.items():
        for var, factor, rest in monomial_partials(m):
            kind, s = var
            if kind == "lam":
                continue
            image = images.get(var)
            if image is None:
                image = images[var] = (even_image if kind == "u" else odd_image)(s)
            steps.append((image, n * factor, rest))
    den_i = lcm(*[den for _, den in images.values()])
    terms: dict = {}
    for (pairs, den), n, rest in steps:
        if den != den_i:
            n *= den_i // den
        for mm, ni in _times(pairs, rest):
            terms[mm] = terms.get(mm, 0) + n * ni
    return terms, den_a * den_i


def derivation(a: DiffPoly, even_image: Callable[[int], IntegerImage],
               odd_image: Callable[[int], IntegerImage]) -> DiffPoly:
    """The derivation sending u^s to even_image(s) and t^s to odd_image(s).

    Its term map is derivation_numerators; one Fraction is built per
    nonzero output term.
    """
    terms, den = derivation_numerators(a, even_image, odd_image)
    return _poly({mm: Fraction(n, den) for mm, n in terms.items() if n})


# The monomials of every memoized image (and every memo key), one object
# per distinct monomial, shared by the memos of all operators.
_INTERNED: dict = {}

_F1 = Fraction(1)


def apply_memoized(a: DiffPoly, memo: dict, even_image: Callable[[int], IntegerImage],
                   odd_image: Callable[[int], IntegerImage]) -> DiffPoly:
    """derivation(a, even_image, odd_image), term by term through memo.

    The parameter l is central, even and constant, so the derivation sends
    l^a m to l^a times the image of m.  memo, which must serve this one
    pair of images alone, maps a parameter-free monomial m to that image
    as the derivation kernel gives it: the interned monomials with nonzero
    numerators, those numerators, and their positive denominator.  A miss
    runs derivation_numerators on m alone.  A term l^a m reads the image of
    m and shifts it by l^a.  Numerators accumulate over the lcm of the
    denominators of a and of the images read, and one Fraction is built
    per nonzero output term, as in derivation.  The stored images are
    tuples of monomials and ints, so nothing a caller holds reaches the
    memo.
    """
    v, den_a = _integers(a.terms.items())
    steps = []
    for m, n in v.items():
        lam = m[0]
        key = _new(Monomial, (0, m[1], m[2], m[3])) if lam else m
        image = memo.get(key)
        if image is None:
            num, den = derivation_numerators(_poly({key: _F1}), even_image, odd_image)
            intern = _INTERNED.setdefault
            num = [(mm, ni) for mm, ni in num.items() if ni]
            image = memo[intern(key, key)] = (
                tuple([intern(mm, mm) for mm, _ in num]), tuple([ni for _, ni in num]), den)
        if image[0]:
            steps.append((image, n, lam))
    den_i = lcm(*[image[2] for image, _, _ in steps])
    terms: dict = {}
    for (monos, nums, den), n, lam in steps:
        if den != den_i:
            n *= den_i // den
        if lam:
            for (ml, u0, even, odd), ni in zip(monos, nums):
                mm = _new(Monomial, (ml + lam, u0, even, odd))
                terms[mm] = terms.get(mm, 0) + n * ni
        else:
            for mm, ni in zip(monos, nums):
                terms[mm] = terms.get(mm, 0) + n * ni
    den = den_a * den_i
    return _poly({mm: Fraction(n, den) for mm, n in terms.items() if n})


def _next_jet(s: int) -> IntegerImage:
    return ((Monomial(even=((s + 1, 1),)), 1),), 1


def _next_theta(s: int) -> IntegerImage:
    return ((Monomial(odd=(s + 1,)), 1),), 1


def dtot_direct(a: DiffPoly) -> DiffPoly:
    """dtot computed by derivation alone, reading and filling no memo.

    Piece-matrix assembly calls it: a piece matrix caches its own columns.
    Its images are integral, so they need no scaling.
    """
    return derivation(a, _next_jet, _next_theta)


_DTOT_MEMO: dict = {}


def dtot(a: DiffPoly) -> DiffPoly:
    """Total x-derivative: sum over s of u^{s+1} d/du^s + t^{s+1} d/dt^s.

    Annihilates l.  Raises the standard degree by one and preserves both
    the super degree and the even-factor count.  Applied through a memo of
    the images of parameter-free monomials (apply_memoized).
    """
    return apply_memoized(a, _DTOT_MEMO, _next_jet, _next_theta)


def bidegree(a: DiffPoly) -> Optional[Bidegree]:
    """Bidegree of a homogeneous polynomial, None if inhomogeneous."""
    return a.bidegree()


def subst_lam(a: DiffPoly, value: DiffPoly) -> DiffPoly:
    """Substitute the central parameter l by an even polynomial."""
    out = DiffPoly.zero()
    for m, c in a.terms.items():
        base = DiffPoly.monomial(Monomial(0, m.u0, m.even, m.odd), c)
        pw = value
        for _ in range(m.lam):
            base = base * pw
        out = out + base
    return out


# -- text format ---------------------------------------------------------


def format_poly(a: DiffPoly) -> str:
    """Canonical text form: terms in monomial order, explicit coefficients.

    Example: "-1/2 u t0 t1 + 2 u1".  The zero polynomial prints as "0".
    """
    if not a.terms:
        return "0"
    parts = []
    for m, c in a.items():
        body = m.format()
        parts.append(f"{c} {body}".rstrip())
    return " + ".join(parts)


def parse_poly(text: str) -> DiffPoly:
    """Inverse of format_poly; also accepts omitted unit coefficients."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    total = {}
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"empty term in {text!r}")
        tokens = term.split()
        coeff = Fraction(1)
        start = 0
        try:
            coeff = Fraction(tokens[0])
            start = 1
        except ValueError:
            if tokens[0].startswith("-"):
                coeff = Fraction(-1)
                tokens[0] = tokens[0][1:]
                if not tokens[0]:
                    start = 1
        lam = u0 = 0
        even = []
        odd = []
        for tok in tokens[start:]:
            name, _, exp = tok.partition("^")
            e = int(exp) if exp else 1
            kind, s = _parse_var(name)
            if kind == "lam":
                lam += e
            elif kind == "u":
                if s == 0:
                    u0 += e
                else:
                    even.append((s, e))
            else:
                if e != 1:
                    raise ValueError(f"odd variable with exponent: {tok!r}")
                odd.append(s)
        if start == 1 and len(tokens) == 1 and coeff == 0:
            continue
        m = mono(lam, u0, even, odd)
        # odd factors were collected left to right; normalize the sign
        sign = 1
        seen = []
        for s in odd:
            k = sum(1 for x in seen if x > s)
            if k % 2:
                sign = -sign
            seen.append(s)
        total[m] = total.get(m, Fraction(0)) + sign * coeff
    return DiffPoly(total)


def poly(text: str) -> DiffPoly:
    """Shorthand constructor used pervasively in tests and demos."""
    return parse_poly(text)
