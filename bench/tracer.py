"""Per-layer spans and counters, recorded from outside the package.

The tracer wraps the public functions of each ``kdvcohom`` module and
patches every module that binds them: a name brought in with
``from .linwin import rref`` is a separate binding in ``specseq`` and
``cohomeng``, and patching only ``linwin`` would miss those callers.
Functions behind ``functools.lru_cache`` are wrapped outside the cache, so
a span is a call as the caller sees it, hit or miss, and the hit counts are
read from the cache itself.

Spans are kept in memory as flat integer records (function, parent span,
start, end) and reduced when the pass ends: a span's self time is its
duration minus the durations of its direct children, and a layer's self
time is the sum over its spans.  The process has one thread and no queue,
so no time is spent waiting.  A layer's failures are the exceptions that
cross its boundary.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

# layer -> (module, attribute) pairs; "Class.method" patches the class
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "algebra": (("algebra", "mul"), ("algebra", "dtot"), ("algebra", "partial")),
    "varcalc": (("varcalc", "apply_op"), ("varcalc", "delta_u"),
                ("varcalc", "delta_theta"), ("varcalc", "dtot_preimage")),
    "linwin.assembly": (("linwin", "enumerate_piece_basis"),
                        ("linwin", "operator_matrix")),
    "linwin.elim": (("linwin", "rref"), ("linwin", "nullspace"), ("linwin", "solve"),
                    ("linwin", "rank_of"), ("linwin", "in_span"),
                    ("linwin", "reduce_against"),
                    ("linwin", "intersect_with_coordinates"),
                    ("linwin", "quotient_representatives")),
    "kdvpencil": (("kdvpencil", "pencil_filtered_slice"),
                  ("kdvpencil", "dlambda_piece_matrix"),
                  ("kdvpencil", "d1_piece_matrix"), ("kdvpencil", "d2_piece_matrix"),
                  ("kdvpencil", "d1_explicit"), ("kdvpencil", "h_op"),
                  ("kdvpencil", "e1_basis")),
    "specseq": (("specseq", "z_rows"), ("specseq", "b_rows"), ("specseq", "page"),
                ("specseq", "page_dr_matrix"), ("specseq", "homology_at"),
                ("specseq", "PageEntry.window_count")),
    "cohomeng": (("cohomeng", "piece_homology"), ("cohomeng", "windowed_dim"),
                 ("cohomeng", "dims_table"), ("cohomeng", "PieceHomology.window_count")),
    "acceptance": (("acceptance", "windowed_page_count"),),
}

# short counter names for a few long function names
ALIASES = {
    "intersect_with_coordinates": "intersect",
    "pencil_filtered_slice": "slice",
    "piece_homology": "piece",
}

# memo tables that are plain dicts, sized at the end of a pass
DICT_CACHES = (("kdvpencil", "_PIECE_CACHE"), ("cohomeng", "_DTOT_CACHE"),
               ("varcalc", "_DTOT_PIECE"))


class BindingError(RuntimeError):
    """A traced function is still reachable through an unpatched binding."""


def _nnz(rows) -> int:
    return sum(1 for row in rows for x in row if x)


class Tracer:
    """Wraps the package's layer functions and aggregates their spans."""

    def __init__(self, package: str = "kdvcohom"):
        self.package = package
        self.names: List[str] = []        # function id -> "layer:attr"
        self.layer_of: List[str] = []
        self.spans = array("q")           # fid, parent, start_ns, end_ns
        self.stack = [-1]
        self.fails: List[int] = []
        self.counters: Dict[str, int] = {}
        self.originals: Dict[str, object] = {}
        self._cache_start: Dict[str, Tuple[int, int]] = {}

    # -- installation ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def install(self) -> None:
        modules = self._modules()
        for layer, specs in LAYERS.items():
            for mod, attr in specs:
                self._install_one(layer, mod, attr, modules)
        self.audit()

    def _install_one(self, layer, mod, attr, modules) -> None:
        home = sys.modules[f"{self.package}.{mod}"]
        fid = len(self.names)
        key = f"{layer}.{ALIASES.get(attr, attr)}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(fid, orig, key))
        else:
            orig = getattr(home, attr)
            wrapped = self._wrap(fid, orig, key)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, name, wrapped)
        self.names.append(key)
        self.layer_of.append(layer)
        self.fails.append(0)
        self.counters[key + ".calls"] = 0
        self.originals[key] = orig

    def audit(self) -> None:
        """Every binding of every traced function must now be the wrapper."""
        targets = {id(o): k for k, o in self.originals.items()}
        for module in self._modules():
            for name, value in vars(module).items():
                if id(value) in targets:
                    raise BindingError(
                        f"{module.__name__}.{name} still binds {targets[id(value)]}")

    def _wrap(self, fid: int, fn: Callable, key: str) -> Callable:
        spans, stack, fails, counters = self.spans, self.stack, self.fails, self.counters
        clock = time.perf_counter_ns
        calls = key + ".calls"
        pre, post = self._hooks(key)

        def traced(*args, **kwargs):
            counters[calls] += 1
            if pre is not None:
                pre(args)
            idx = len(spans) >> 2
            spans.extend((fid, stack[-1], clock(), 0))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                fails[fid] += 1
                raise
            finally:
                spans[4 * idx + 3] = clock()
                stack.pop()
            if post is not None:
                post(args, out)
            return out

        functools.update_wrapper(traced, fn)
        return traced

    def _hooks(self, key: str):
        c = self.counters
        if key == "linwin.elim.rref":
            for k in ("cells", "nnz", "max_cells"):
                c[f"{key}.{k}"] = 0

            def pre(args):
                rows = args[0]
                cells = len(rows) * len(rows[0]) if len(rows) else 0
                c["linwin.elim.rref.cells"] += cells
                c["linwin.elim.rref.nnz"] += _nnz(rows)
                if cells > c["linwin.elim.rref.max_cells"]:
                    c["linwin.elim.rref.max_cells"] = cells
            return pre, None
        if key == "linwin.assembly.operator_matrix":
            c[key + ".cols"] = 0

            def pre(args):
                c["linwin.assembly.operator_matrix.cols"] += len(args[1])
            return pre, None
        if key == "linwin.elim.quotient_representatives":
            c["linwin.elim.transversal.reps"] = 0
            c["linwin.elim.transversal.tried"] = 0

            def post(args, reps):
                # the greedy pass stops right after the last monomial it
                # accepts, unless some representative is not a monomial
                ambient = args[0]
                if not reps:
                    tried = 0
                elif all(m is not None for _, m in reps):
                    tried = ambient.index_of(reps[-1][1]) + 1
                else:
                    tried = len(ambient)
                c["linwin.elim.transversal.reps"] += len(reps)
                c["linwin.elim.transversal.tried"] += tried
            return None, post
        return None, None

    # -- one pass --------------------------------------------------------------

    def _lru_caches(self) -> Dict[str, object]:
        """Every lru_cache in the package, reached through the originals and
        named by where it is defined."""
        out = {}
        for module in self._modules():
            for value in vars(module).values():
                if not hasattr(value, "cache_info"):
                    value = getattr(value, "__wrapped__", None)
                if hasattr(value, "cache_info"):
                    home = value.__module__.split(".")[-1]
                    out[f"{home}.{value.__qualname__}"] = value
        return out

    def reset(self) -> None:
        del self.spans[:]
        for i in range(len(self.fails)):
            self.fails[i] = 0
        for k in self.counters:
            self.counters[k] = 0
        self._cache_start = {k: self._hits_misses(f)
                             for k, f in self._lru_caches().items()}

    @staticmethod
    def _hits_misses(fn) -> Tuple[int, int]:
        info = fn.cache_info()
        return info.hits, info.misses

    def summary(self, wall_s: float) -> Tuple[Dict[str, float], List[dict]]:
        """Per-layer metrics and a per-function table for the pass just run."""
        n = len(self.spans) // 4
        sp = self.spans
        child = [0] * n
        for i in range(n):
            parent = sp[4 * i + 1]
            if parent >= 0:
                child[parent] += sp[4 * i + 3] - sp[4 * i + 2]
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        for i in range(n):
            fid = sp[4 * i]
            dur = sp[4 * i + 3] - sp[4 * i + 2]
            self_ns[fid] += dur - child[i]
            total_ns[fid] += dur
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            fids = [f for f in range(len(self.names)) if self.layer_of[f] == layer]
            metrics[f"{layer}.self_s"] = sum(self_ns[f] for f in fids) / 1e9
            metrics[f"{layer}.failed"] = sum(self.fails[f] for f in fids)
        c = self.counters
        for key, value in c.items():
            if key.endswith((".calls", ".cells", ".nnz", ".max_cells", ".cols")):
                metrics[key] = value
        metrics["linwin.elim.share"] = metrics["linwin.elim.self_s"] / wall_s
        tried = c["linwin.elim.transversal.tried"]
        metrics["linwin.elim.transversal_yield"] = (
            c["linwin.elim.transversal.reps"] / tried if tried else 0.0)

        caches = self._lru_caches()
        hits = misses = entries = 0
        for name, fn in caches.items():
            h0, m0 = self._cache_start.get(name, (0, 0))
            h, m = self._hits_misses(fn)
            hits += h - h0
            misses += m - m0
            entries += fn.cache_info().currsize
        for key, name in (("kdvpencil.slice", "kdvpencil.pencil_filtered_slice"),
                          ("cohomeng.piece", "cohomeng.piece_homology")):
            h0, m0 = self._cache_start[name]
            h, m = self._hits_misses(caches[name])
            h, m = h - h0, m - m0
            metrics[f"{key}.misses"] = m
            metrics[f"{key}.hit_ratio"] = h / (h + m) if h + m else 0.0
        for mod, attr in DICT_CACHES:
            entries += len(getattr(sys.modules[f"{self.package}.{mod}"], attr))
        metrics["cache.entries"] = entries
        metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

        self_total = sum(self_ns) / 1e9
        metrics["trace.unattributed_s"] = wall_s - self_total
        metrics["trace.spans"] = n
        table = [{"function": self.names[f], "calls": c[self.names[f] + ".calls"],
                  "self_s": self_ns[f] / 1e9, "total_s": total_ns[f] / 1e9,
                  "failed": self.fails[f]}
                 for f in range(len(self.names))]
        return metrics, table

    def layer_calls(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for f, key in enumerate(self.names):
            out[self.layer_of[f]] += self.counters[key + ".calls"]
        return out
