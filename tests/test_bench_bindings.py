"""The benchmark tracer's bindings into the package.

bench/tracer.py reaches the package by name: it patches each function in
LAYERS, sizes each dict in DICT_CACHES and reads the hit counts of two
lru_caches.  A rename under src/ would otherwise only break a traced
benchmark run.  The tracer module is loaded here but never installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def package_module(name):
    return importlib.import_module(f"kdvcohom.{name}")


def test_every_traced_function_resolves():
    missing = []
    for specs in tracer.LAYERS.values():
        for mod, attr in specs:
            # a Class.method must be defined in that class's own body
            owner, _, name = attr.rpartition(".")
            home = package_module(mod)
            scope = vars(getattr(home, owner)) if owner else vars(home)
            if not callable(scope.get(name)):
                missing.append(f"{mod}.{attr}")
    assert not missing


def test_dict_caches_are_sized():
    for mod, attr in tracer.DICT_CACHES:
        assert len(getattr(package_module(mod), attr)) >= 0


def test_counted_lru_caches_report_hits():
    for mod, attr in (("kdvpencil", "pencil_filtered_slice"),
                      ("cohomeng", "piece_homology")):
        assert hasattr(getattr(package_module(mod), attr), "cache_info")
