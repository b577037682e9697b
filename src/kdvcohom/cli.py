"""Command line reports for the pencil cohomology engine.

Four subcommands: verify runs the operator-identity suites, pages reports
windowed spectral page dimensions, bh prints cohomology tables with their
canonical generators, and acceptance runs the full criterion battery.
Exit status is 0 when everything requested passed, 1 when a check failed,
and 2 for usage errors.  JSON output is stable: keys are sorted, entries
are listed in canonical order and timing is omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .acceptance import (
    ALL_CHECKS,
    VERIFY_SUITES,
    _MAX_TOTAL,
    format_results,
    page_spots,
    run_acceptance,
    run_verify_suite,
    windowed_page_counts,
)
from .algebra import Bidegree, format_poly
from .cohomeng import (
    KINDS,
    _LAMBDA_KINDS,
    p_bound,
    piece_count_range,
    piece_homology,
    spots_up_to,
    windowed_dim,
)
from .linwin import DEFAULT_LADDER, Window, piece_sizes_total, window_reps

_SCHEMA = 1

# verify, pages and bh refuse a run whose pieces hold more monomials than
# this.  The largest size that the defaults, the acceptance battery, the
# demos and the benchmark reach is 31583 (the battery's pages, to total 6
# over the default ladder; page_spots counts every piece the slices read,
# an upper bound on the 30826 monomials built); bh --kind bh_F near the
# budget runs for minutes.
_COST_BUDGET = 100_000


def _parse_window(text: str) -> Window:
    try:
        n, l = text.split(":")
        w = Window(int(n), int(l))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must look like N:L, got {text!r}")
    if w.N < 0 or w.L < 0:
        raise argparse.ArgumentTypeError("window caps must be nonnegative")
    return w


def _parse_windows(text: str) -> Tuple[Window, ...]:
    # a repeated window is reported once, where it first appears
    return tuple(dict.fromkeys(_parse_window(part) for part in text.split(",")))


def _parse_bidegree(text: str) -> Bidegree:
    try:
        p, d = text.split(",")
        bd = Bidegree(int(p), int(d))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bidegree must look like p,d, got {text!r}")
    return bd


def _windowed_reps(kind: str, p: int, d: int, w: Window) -> List[str]:
    """Formatted canonical generators of one table entry, smallest count first."""
    out = []
    for c in piece_count_range(kind, d, w):
        ph = piece_homology(kind, p, d, c)
        for vec, m in window_reps(ph.basis, ph.reps, w):
            text = m.format() if m is not None else format_poly(ph.basis.poly_of(vec))
            out.append(text or "1")
    return out


def _affordable(parser, flag: str, bound: int, spots: Iterable[Bidegree],
                families: Callable[[int], Sequence[Tuple[int, bool]]]) -> List[Bidegree]:
    """The spots (all within flag at bound) as a list; exit 2, before any
    matrix is built, when their pieces hold more monomials than the budget.

    families(d) lists the largest count and the parameter flag of each piece
    family at standard degree d.  The count stops at the first spot past the
    budget, so the spots of a huge bound, by increasing degree, stop at once.
    """
    out = []
    cost = 0
    for bd in spots:
        cost += sum(piece_sizes_total(bd, top, lam) for top, lam in families(bd.d))
        if cost > _COST_BUDGET:
            parser.error(f"the requested pieces up to {flag} {bound} hold at least "
                         f"{cost} monomials, above the budget of {_COST_BUDGET}; "
                         f"lower {flag} or the window")
        out.append(bd)
    return out


def build_parser() -> argparse.ArgumentParser:
    # the output flags are declared twice, once on the top level parser with
    # real defaults and once on every subparser with SUPPRESS defaults, so
    # they are accepted on either side of the subcommand name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS,
                        help="write the report to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="kdvcohom",
        description="exact cohomology reports for the Poisson pencil of "
                    "the dispersionless KdV equation")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run operator identity suites",
                              parents=[common])
    p_verify.add_argument("--suite", action="append", choices=VERIFY_SUITES,
                          help="restrict to one suite (repeatable)")
    p_verify.add_argument("--max-d", type=int, default=6,
                          help="degree bound of the monomial battery")
    p_verify.add_argument("--window", type=_parse_window, default=Window(3, 2),
                          help="battery window as N:L")

    p_pages = sub.add_parser("pages", help="windowed spectral page dimensions",
                            parents=[common])
    p_pages.add_argument("--page", type=int, default=1,
                         help="page index r >= 1")
    p_pages.add_argument("--max-total", type=int, default=4,
                         help=f"largest p+q reported (at most {_MAX_TOTAL})")
    p_pages.add_argument("--windows", type=_parse_windows,
                         default=tuple(DEFAULT_LADDER),
                         help="comma separated list of N:L windows")

    p_bh = sub.add_parser("bh", help="cohomology tables with generators",
                         parents=[common])
    p_bh.add_argument("--kind", action="append", choices=KINDS,
                      help="table kind (repeatable, default both joint-kernel tables)")
    p_bh.add_argument("--window", type=_parse_window, default=Window(3, 2))
    p_bh.add_argument("--max-d", type=int, default=5)
    p_bh.add_argument("--bidegree", action="append", type=_parse_bidegree,
                      help="restrict to one p,d spot (repeatable)")

    p_acc = sub.add_parser("acceptance", help="run the acceptance battery",
                          parents=[common])
    p_acc.add_argument("--check", action="append",
                       help="restrict to one named criterion (repeatable)")
    return parser


def _cmd_verify(args, parser) -> Tuple[dict, bool, str]:
    if args.max_d < 0:
        parser.error("--max-d must be at least 0")
    w = args.window
    # the monomial battery enumerates every piece of counts up to N + L + d
    _affordable(parser, "--max-d", args.max_d, spots_up_to(args.max_d),
                lambda d: ((w.N + w.L + d, True),))
    names = tuple(dict.fromkeys(args.suite)) if args.suite else VERIFY_SUITES
    results = [run_verify_suite(nm, max_d=args.max_d, window=args.window)
               for nm in names]
    ok = all(r.passed for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
             for r in results]
    lines.append("OK" if ok else "FAILED")
    payload = {
        "schema": _SCHEMA,
        "command": "verify",
        "window": [args.window.N, args.window.L],
        "max_d": args.max_d,
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results],
        "ok": ok,
    }
    return payload, ok, "\n".join(lines)


def _cmd_pages(args, parser) -> Tuple[dict, bool, str]:
    if args.page < 1:
        parser.error("--page must be at least 1")
    if not 0 <= args.max_total <= _MAX_TOTAL:
        parser.error(f"--max-total must lie in 0..{_MAX_TOTAL}")
    top = max(w.N + w.L for w in args.windows) + args.max_total
    _affordable(parser, "--max-total", args.max_total, page_spots(args.max_total),
                lambda d: ((top, True),))
    headers = [f"{w.N}:{w.L}" for w in args.windows]
    entries = []
    lines = [f"page {args.page} window counts by (p, q); windows "
             + " ".join(headers)]
    for n in range(args.max_total + 1):
        for p in range(n + 1):
            q = n - p
            counts = dict(zip(headers,
                              windowed_page_counts(args.page, p, q, args.windows)))
            entries.append({"p": p, "q": q, "counts": counts})
            if any(counts.values()):
                row = " ".join(str(counts[h]).rjust(len(h)) for h in headers)
                lines.append(f"  ({p},{q}): {row}")
    if len(lines) == 1:
        lines.append("  all positions vanish in the requested range")
    payload = {
        "schema": _SCHEMA,
        "command": "pages",
        "page": args.page,
        "windows": [[w.N, w.L] for w in args.windows],
        "entries": entries,
    }
    return payload, True, "\n".join(lines)


def _cmd_bh(args, parser) -> Tuple[dict, bool, str]:
    if args.max_d < 0:
        parser.error("--max-d must be at least 0")
    for p, d in args.bidegree or ():
        if d > args.max_d:
            parser.error(f"--bidegree {p},{d} lies above --max-d {args.max_d}")
        if d < 0 or not 0 <= p <= p_bound(d):
            parser.error(f"--bidegree {p},{d} is empty: no monomial has "
                         f"super degree {p} and standard degree {d}")
    kinds = tuple(dict.fromkeys(args.kind)) if args.kind else ("bh_A", "bh_F")
    w = args.window
    # a spot named twice is computed and reported once
    spots = _affordable(
        parser, "--max-d", args.max_d,
        sorted(set(args.bidegree)) if args.bidegree else spots_up_to(args.max_d),
        lambda d: tuple((piece_count_range(kind, d, w)[-1], kind in _LAMBDA_KINDS)
                        for kind in kinds))
    tables = {}
    lines = []
    for kind in kinds:
        table = tables[kind] = {bd: windowed_dim(kind, bd.p, bd.d, w) for bd in spots}
        lines.append(f"{kind} window ({w.N},{w.L}) degrees <= {args.max_d}")
        shown = 0
        for bd in sorted(table):
            dim = table[bd]
            if dim == 0:
                continue
            gens = _windowed_reps(kind, bd.p, bd.d, w)
            lines.append(f"  ({bd.p},{bd.d}) dim {dim}: " + ", ".join(gens))
            shown += 1
        if shown == 0:
            lines.append("  every requested spot vanishes")
        zero = sum(1 for dim in table.values() if dim == 0)
        lines.append(f"  {zero} further spots vanish" if shown else "")
    payload = {
        "schema": _SCHEMA,
        "command": "bh",
        "window": [w.N, w.L],
        "max_d": args.max_d,
        "tables": {kind: {f"{bd.p},{bd.d}": dim for bd, dim in table.items()}
                   for kind, table in tables.items()},
    }
    return payload, True, "\n".join(line for line in lines if line)


def _cmd_acceptance(args, parser) -> Tuple[dict, bool, str]:
    known = {name for name, _ in ALL_CHECKS}
    names = None
    if args.check:
        unknown = [nm for nm in args.check if nm not in known]
        if unknown:
            parser.error(f"unknown acceptance checks: {', '.join(unknown)}")
        names = tuple(args.check)
    results = run_acceptance(names)
    ok = all(r.passed for r in results)
    payload = {
        "schema": _SCHEMA,
        "command": "acceptance",
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results],
        "ok": ok,
    }
    return payload, ok, format_results(results)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # refuse an unwritable --out before any matrix is built; the report is
    # still written only once it is complete
    if args.out:
        folder = os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out) or not (os.path.isdir(folder)
                                           and os.access(folder, os.W_OK)):
            parser.error(f"--out {args.out} is a directory or lies in no writable directory")
    if args.command == "verify":
        payload, ok, text = _cmd_verify(args, parser)
    elif args.command == "pages":
        payload, ok, text = _cmd_pages(args, parser)
    elif args.command == "bh":
        payload, ok, text = _cmd_bh(args, parser)
    else:
        payload, ok, text = _cmd_acceptance(args, parser)
    if args.format == "json":
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = text + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
