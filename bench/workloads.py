"""Queries and independent oracles of the three benchmark workloads.

A workload is a list of queries.  Each query is a (qid, call, check) triple:
``call()`` asks the engine one question through its public functions, and
``check(answer)`` returns None when the answer is right or a one-line reason
when it is not.  The oracles share no code with the engine: the cohomology
tables come from the paper's closed forms, page one from a counting formula
for the cofactor model, and every identity must vanish.  The generator text
of every table entry is also compared with a digest recorded in
``digests.json``, so a changed representative fails even when the dimension
is right.

The seed only shuffles the query order.  Every answer is canonical, so all
seeds compute the same set of pieces and do the same total work.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

Query = Tuple[str, Callable[[], object], Callable[[object], Optional[str]]]

# Each workload at the size the timed runs use and at a tiny size for the
# smoke test.  The full sizes keep one pass between three and five seconds
# on a 2-core x86 host, so a run pools many fresh processes, each issuing
# the queries in another order: single latencies spread over four decades,
# and one order alone leaves the median and the tail unsteady.
SIZES = {
    "full": {
        "tables": {"window": (3, 2), "max_d": 4},
        "pages": {"window": (2, 1), "max_total": 4},
        "identities": {"window": (2, 1), "max_d": 5},
    },
    "tiny": {
        "tables": {"window": (1, 1), "max_d": 2},
        "pages": {"window": (1, 1), "max_total": 3},
        "identities": {"window": (1, 1), "max_d": 2},
    },
}

TABLE_KINDS = ("dlambda_A", "dlambda_F", "bh_A", "bh_F")

DIGESTS_PATH = Path(__file__).with_name("digests.json")


# -- closed forms ---------------------------------------------------------------


def table_dim(kind: str, p: int, d: int, n_cap: int, l_cap: int) -> int:
    """Windowed cohomology dimension from the paper's closed forms."""
    poly_l, smooth = l_cap + 1, n_cap + 1
    forms = {
        "dlambda_A": {(0, 0): poly_l, (3, 3): smooth},
        "dlambda_F": {(0, 0): poly_l, (2, 3): smooth, (3, 3): smooth},
        "bh_A": {(0, 0): 1, (2, 1): smooth, (3, 3): smooth},
        "bh_F": {(0, 0): 1, (1, 1): smooth, (2, 1): smooth, (2, 3): smooth,
                 (3, 3): smooth},
    }
    return forms[kind].get((p, d), 0)


def _jet_choices(max_order: int, weight: int) -> int:
    """Ways to pick even jet multiplicities and distinct odd jets of orders
    1..max_order whose orders add up to weight."""
    ways = [1] + [0] * weight
    for s in range(1, max_order + 1):
        # the odd jet of order s is taken at most once
        ways = [ways[w] + (ways[w - s] if w >= s else 0) for w in range(weight + 1)]
        # the even jet of order s any number of times
        for w in range(s, weight + 1):
            ways[w] += ways[w - s]
    return ways[weight]


def page_one_dim(p: int, q: int, n_cap: int, l_cap: int) -> int:
    """Windowed page-one dimension of the cofactor model.

    (0, 0) holds the parameter powers.  For p >= 1 and q >= 2 the classes
    are f t0 t^q with f free of l and t0, of standard degree p and top jet
    order exactly q - 1, times u^a for a <= N.  Every other spot is empty.
    """
    if (p, q) == (0, 0):
        return l_cap + 1
    if p < 1 or q < 2:
        return 0
    exact_top = _jet_choices(q - 1, p) - _jet_choices(q - 2, p)
    return (n_cap + 1) * exact_top


def page_two_dim(p: int, q: int, n_cap: int, l_cap: int) -> int:
    """Page two keeps only the parameter polynomials and one smooth family.

    The sequence collapses there, so every later page is the same.
    """
    return {(0, 0): l_cap + 1, (1, 2): n_cap + 1}.get((p, q), 0)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> Dict[str, str]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)["tables"]


# -- tables ------------------------------------------------------------------


def table_generators(kind: str, p: int, d: int, w) -> Tuple[int, List[str]]:
    """What one ``kdvcohom bh`` table entry prints: dim and generator text."""
    from kdvcohom import format_poly, piece_homology, windowed_dim
    from kdvcohom.cohomeng import piece_count_range

    dim = windowed_dim(kind, p, d, w)
    gens = []
    for c in piece_count_range(kind, d, w):
        ph = piece_homology(kind, p, d, c)
        for vec, m in ph.reps:
            if m is not None:
                if m.in_window(w.N, w.L):
                    gens.append(m.format() or "1")
            else:
                monos = [ph.basis.monomials[i] for i, x in enumerate(vec) if x]
                if all(mm.in_window(w.N, w.L) for mm in monos):
                    gens.append(format_poly(ph.basis.poly_of(list(vec))) or "1")
    return dim, gens


def table_spots(max_d: int):
    """Every (p, d) with a nonempty bidegree, d <= max_d: p(p-1)/2 <= d."""
    for d in range(max_d + 1):
        p = 0
        while p * (p - 1) // 2 <= d:
            yield p, d
            p += 1


def table_qid(kind: str, p: int, d: int, w) -> str:
    return f"{kind} {w.N}:{w.L} {p},{d}"


def tables_queries(window, max_d: int, digests: Dict[str, str]) -> List[Query]:
    from kdvcohom import Window

    w = Window(*window)
    out = []
    for kind in TABLE_KINDS:
        for p, d in table_spots(max_d):
            qid = table_qid(kind, p, d, w)

            def call(kind=kind, p=p, d=d):
                return table_generators(kind, p, d, w)

            def check(ans, kind=kind, p=p, d=d, qid=qid):
                dim, gens = ans
                want = table_dim(kind, p, d, w.N, w.L)
                if dim != want:
                    return f"dim {dim}, closed form {want}"
                if len(gens) != dim:
                    return f"{len(gens)} generators for dim {dim}"
                got = text_digest(", ".join(gens))
                if digests.get(qid) != got:
                    return f"generator digest {got}, recorded {digests.get(qid)}"
                return None

            out.append((qid, call, check))
    return out


# -- pages -------------------------------------------------------------------


def pages_queries(window, max_total: int) -> List[Query]:
    from kdvcohom import Window
    from kdvcohom.acceptance import windowed_page_count

    w = Window(*window)
    oracle = {1: page_one_dim, 2: page_two_dim, 3: page_two_dim}
    out = []
    for r in (1, 2, 3):
        for n in range(max_total + 1):
            for p in range(n + 1):
                q = n - p

                def call(r=r, p=p, q=q):
                    return windowed_page_count(r, p, q, w)

                def check(ans, r=r, p=p, q=q):
                    want = oracle[r](p, q, w.N, w.L)
                    return None if ans == want else f"count {ans}, model {want}"

                out.append((f"E{r} {w.N}:{w.L} ({p},{q})", call, check))
    return out


# -- identities ----------------------------------------------------------------


def battery(window, max_d: int):
    """Every window monomial of standard degree <= max_d, as a polynomial."""
    from kdvcohom import Bidegree, DiffPoly, enumerate_piece_basis

    n_cap, l_cap = window
    out = []
    for d in range(max_d + 1):
        for p in range(d + 2):
            for c in range(n_cap + l_cap + d + 1):
                for m in enumerate_piece_basis(Bidegree(p, d), c, True).monomials:
                    if m.in_window(n_cap, l_cap):
                        out.append(DiffPoly.monomial(m))
    return out


def _vanishes(ans) -> Optional[str]:
    return None if all(not x.terms for x in ans) else "identity does not vanish"


def identities_queries(window, max_d: int) -> Tuple[List[Query], "_ControlVerdict"]:
    """One query per (suite, battery element), plus the negative control.

    The control applies the square of a corrupted second structure to every
    battery monomial.  The corrupted bracket is not Poisson, so the control
    passes only when at least one of its queries does not vanish; if none
    breaks, every control query counts as failed.
    """
    from kdvcohom import (D1, D2, P1_DENSITY, P2_DENSITY, DiffPoly, OperatorSpec,
                          Window, build_dp, d1_explicit, d_lambda, delta_theta,
                          delta_u, dtot, e1_basis, h_op, poly)
    from kdvcohom.varcalc import apply_op

    xs = battery(window, max_d)
    suites = {
        "d1_squared": lambda x: (D1(D1(x)),),
        "d2_squared": lambda x: (D2(D2(x)),),
        "d1d2_anticommute": lambda x: (D1(D2(x)) + D2(D1(x)),),
        "dlambda_squared": lambda x: (d_lambda(d_lambda(x)),),
        "variational_descent": lambda x: (delta_u(dtot(x)), delta_theta(dtot(x))),
    }
    out = []
    for name, fn in suites.items():
        for i, x in enumerate(xs):
            out.append((f"{name} #{i}", lambda fn=fn, x=x: fn(x), _vanishes))

    for a, b, tag in ((P1_DENSITY, P1_DENSITY, "P1,P1"), (P2_DENSITY, P2_DENSITY, "P2,P2"),
                      (P1_DENSITY, P2_DENSITY, "P1,P2"), (P2_DENSITY, P1_DENSITY, "P2,P1")):
        # a bracket density vanishes as a functional exactly when both
        # variational derivatives vanish (it has no constant term)
        def bracket(a=a, b=b):
            dens = apply_op(build_dp(a), b)
            return delta_u(dens), delta_theta(dens)
        out.append((f"schouten_relations [{tag}]", bracket, _vanishes))

    # like ``kdvcohom verify``, the homotopy suite covers p + q <= 6 whatever
    # the degree bound of the battery
    w = Window(*window)
    for p in range(1, 6):
        for q in range(2, 7 - p):
            if (p, q) == (1, 2):
                continue
            for m in e1_basis(p, q, w).monomials:
                x = DiffPoly.monomial(m)

                def homotopy(x=x, p=p, q=q):
                    lhs = h_op(d1_explicit(x, q), p + 1, q) + d1_explicit(h_op(x, p, q), q)
                    return (lhs - x,)
                out.append((f"homotopy_identity {m.format()}", homotopy, _vanishes))

    corrupted = OperatorSpec(poly("u t1"), poly("1/2 t0 t1"), name="corrupted")
    control = _ControlVerdict()
    for i, x in enumerate(xs):
        def square(x=x):
            return corrupted(corrupted(x))
        out.append((f"control #{i}", square, control.observe))
    return out, control


class _ControlVerdict:
    """Collects the negative control's answers; judged once after the pass."""

    def __init__(self):
        self.queries = 0
        self.broken = 0

    def observe(self, ans) -> Optional[str]:
        self.queries += 1
        self.broken += bool(ans.terms)
        return None

    def failures(self) -> int:
        return 0 if self.broken else self.queries


# -- assembly ------------------------------------------------------------------


def build(workload: str, size: str, seed: int):
    """Shuffled queries of one workload, and a callable giving the failures
    that can only be judged after the whole pass."""
    params = SIZES[size][workload]
    late = lambda: 0
    if workload == "tables":
        queries = tables_queries(params["window"], params["max_d"], load_digests())
    elif workload == "pages":
        queries = pages_queries(params["window"], params["max_total"])
    elif workload == "identities":
        queries, control = identities_queries(params["window"], params["max_d"])
        late = control.failures
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(queries)
    return queries, late
