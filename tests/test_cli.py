import json
import re
import time
from pathlib import Path

import pytest

from kdvcohom.acceptance import page_spots
from kdvcohom.algebra import Bidegree
from kdvcohom.cli import _COST_BUDGET, main
from kdvcohom.cohomeng import KINDS, p_bound, piece_count_range, piece_homology
from kdvcohom.linwin import DEFAULT_LADDER, Window, piece_sizes_total


README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_verify_text(capsys):
    rc, out = run(capsys, "verify", "--suite", "d1_squared",
                  "--max-d", "3", "--window", "2:1")
    assert rc == 0
    assert "PASS verify:d1_squared" in out
    assert out.rstrip().endswith("OK")


def test_verify_json_is_deterministic(capsys):
    args = ("--format", "json", "verify", "--suite", "variational_descent",
            "--max-d", "3", "--window", "2:1")
    rc1, out1 = run(capsys, *args)
    rc2, out2 = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert doc["ok"] is True
    assert doc["results"][0]["name"] == "verify:variational_descent"


def test_output_flags_allowed_after_subcommand(capsys):
    before = ("--format", "json", "bh", "--kind", "bh_A",
              "--bidegree", "2,1", "--window", "2:1")
    after = ("bh", "--kind", "bh_A", "--bidegree", "2,1",
             "--window", "2:1", "--format", "json")
    rc1, out1 = run(capsys, *before)
    rc2, out2 = run(capsys, *after)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_fail_exit_code(capsys, monkeypatch):
    # shrink the battery and corrupt one suite result through a tiny window
    from kdvcohom import acceptance as acc
    real = acc.run_verify_suite

    def fake(name, **kw):
        res = real(name, **kw)
        res.passed = False
        return res

    monkeypatch.setattr("kdvcohom.cli.run_verify_suite", fake)
    rc, out = run(capsys, "verify", "--suite", "d1_squared",
                  "--max-d", "2", "--window", "2:1")
    assert rc == 1
    assert "FAILED" in out


def test_pages_counts(capsys):
    rc, out = run(capsys, "--format", "json", "pages",
                  "--max-total", "2", "--windows", "2:1")
    assert rc == 0
    doc = json.loads(out)
    counts = {(e["p"], e["q"]): e["counts"]["2:1"] for e in doc["entries"]}
    assert counts[(0, 0)] == 2
    assert all(v == 0 for key, v in counts.items() if key != (0, 0))


def test_pages_rejects_out_of_range_total():
    with pytest.raises(SystemExit) as err:
        main(["pages", "--max-total", "9"])
    assert err.value.code == 2


def test_pages_rejects_page_zero():
    with pytest.raises(SystemExit) as err:
        main(["pages", "--page", "0"])
    assert err.value.code == 2


def test_bad_window_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--window", "banana"])
    assert err.value.code == 2


def test_bh_table_with_generators(capsys):
    rc, out = run(capsys, "bh", "--window", "2:1", "--max-d", "3")
    assert rc == 0
    assert "(0,0) dim 1: 1" in out          # the empty monomial prints as 1
    assert "(1,1) dim 3: u1 t0, u u1 t0, u^2 u1 t0" in out
    assert "(2,1) dim 3: t0 t1, u t0 t1, u^2 t0 t1" in out


def test_bh_json_and_bidegree_filter(capsys):
    rc, out = run(capsys, "--format", "json", "bh", "--kind", "bh_F",
                  "--window", "2:1", "--max-d", "3", "--bidegree", "1,1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["tables"] == {"bh_F": {"1,1": 3}}


def test_bh_bidegree_computes_only_its_spots(capsys):
    # (0,0) at window 3:2 has the four counts 0..3, whatever --max-d is
    piece_homology.cache_clear()
    rc, out = run(capsys, "bh", "--kind", "bh_F", "--max-d", "8", "--bidegree", "0,0")
    assert rc == 0 and "(0,0) dim 1: 1" in out
    assert piece_homology.cache_info().misses == 4


def test_acceptance_single_check(capsys):
    rc, out = run(capsys, "acceptance", "--check", "first-structure-cohomology")
    assert rc == 0
    assert out.startswith("PASS first-structure-cohomology")
    assert "1/1 checks passed" in out


def test_acceptance_unknown_check():
    with pytest.raises(SystemExit) as err:
        main(["acceptance", "--check", "nope"])
    assert err.value.code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out = run(capsys, "--format", "json", "--out", str(target),
                  "bh", "--kind", "bh_A", "--window", "2:1", "--max-d", "2")
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "bh"
    assert doc["tables"]["bh_A"]["0,0"] == 1


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # refused before any matrix is built, with the usage exit code
    from kdvcohom import cli

    def no_run(names=None):
        raise AssertionError("the battery ran before --out was checked")

    monkeypatch.setattr(cli, "run_acceptance", no_run)
    plain = tmp_path / "plain"
    plain.write_text("")
    for out in (tmp_path / "missing" / "report.txt", tmp_path, plain / "report.txt"):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out), "acceptance"])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [plain] and plain.read_text() == ""


@pytest.mark.parametrize("argv", [
    # a spot above the degree bound was never computed
    ["bh", "--kind", "dlambda_A", "--bidegree", "3,3", "--max-d", "2",
     "--window", "2:1"],
    # no monomial has super degree 3 at standard degree 2
    ["bh", "--bidegree", "3,2", "--max-d", "2"],
    ["bh", "--bidegree=-1,0"],
    ["bh", "--max-d", "-1"],
    ["verify", "--max-d", "-1"],
])
def test_uncomputed_spots_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("repeated, once", [
    (["bh", "--kind", "bh_A", "--kind", "bh_A", "--max-d", "1", "--window", "1:1"],
     ["bh", "--kind", "bh_A", "--max-d", "1", "--window", "1:1"]),
    (["bh", "--kind", "bh_F", "--kind", "bh_A", "--kind", "bh_F", "--max-d", "1",
      "--window", "1:1"],
     ["bh", "--kind", "bh_F", "--kind", "bh_A", "--max-d", "1", "--window", "1:1"]),
    (["pages", "--max-total", "2", "--windows", "2:1,2:1"],
     ["pages", "--max-total", "2", "--windows", "2:1"]),
    (["pages", "--max-total", "2", "--windows", "2:1,1:1,2:1"],
     ["pages", "--max-total", "2", "--windows", "2:1,1:1"]),
    (["verify", "--suite", "d1_squared", "--suite", "d1_squared", "--max-d", "2",
      "--window", "2:1"],
     ["verify", "--suite", "d1_squared", "--max-d", "2", "--window", "2:1"]),
])
def test_repeated_selections_report_once(capsys, fmt, repeated, once):
    # a repeat is dropped and the first-occurrence order kept
    rc1, out1 = run(capsys, "--format", fmt, *repeated)
    rc2, out2 = run(capsys, "--format", fmt, *once)
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["bh", "--kind", "bh_F", "--max-d", "40", "--window", "3:2"],
    ["verify", "--max-d", "40"],
    ["pages", "--windows", "100:100"],
])
def test_oversized_runs_are_refused_at_once(capsys, argv):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert time.perf_counter() - start < 1.0
    assert err.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    estimate = re.search(r"hold at least (\d+) monomials, above the budget of (\d+)",
                         lines[-1])
    assert estimate, lines[-1]
    assert int(estimate.group(1)) > int(estimate.group(2)) == _COST_BUDGET


def test_default_runs_pass_the_cost_guard(capsys):
    rc, out = run(capsys, "verify")
    assert rc == 0 and out.rstrip().endswith("OK")
    rc, out = run(capsys, "bh")
    assert rc == 0 and out.startswith("bh_A window (3,2) degrees <= 5")
    rc, out = run(capsys, "pages")
    assert rc == 0 and out.startswith(
        "page 1 window counts by (p, q); windows 2:2 3:2 4:2 5:2 5:3 5:4")


def test_cost_budget_clears_the_largest_shipped_size():
    # every table kind to degree 5 at the widest window of the default
    # ladder, as the acceptance battery computes them
    w = Window(5, 4)
    cost = sum(piece_sizes_total(Bidegree(p, d), piece_count_range(kind, d, w)[-1],
                                 kind.startswith("dlambda"))
               for kind in KINDS for d in range(6) for p in range(p_bound(d) + 1))
    assert cost == 29298
    assert 3 * cost < _COST_BUDGET


def test_cost_budget_clears_the_battery_pages():
    # the page checks of the acceptance battery count every position up to
    # total 6 over the default ladder; the default pages run stops at 4
    top = max(w.N + w.L for w in DEFAULT_LADDER)
    sizes = [sum(piece_sizes_total(bd, top + max_total, True)
                 for bd in page_spots(max_total))
             for max_total in (4, 6)]
    assert sizes == [8425, 31583]
    assert 3 * sizes[-1] < _COST_BUDGET


@pytest.mark.parametrize("max_total", [4, 6])
def test_pages_cost_count_covers_the_pieces_built(monkeypatch, capsys, max_total):
    # the pieces with l that a fresh pages run enumerates, slices and piece
    # matrices built anew, hold no more monomials than the guard counts
    import functools
    from kdvcohom import acceptance, kdvpencil, linwin
    built = set()
    piece_basis = linwin._piece_basis

    def recording(bd, c, lam):
        if lam:
            built.add((bd, c))
        return piece_basis(bd, c, lam)

    monkeypatch.setattr(linwin, "_piece_basis", recording)
    monkeypatch.setattr(kdvpencil, "_PIECE_CACHE", {})
    monkeypatch.setattr(acceptance, "pencil_filtered_slice", functools.lru_cache(None)(
        kdvpencil.pencil_filtered_slice.__wrapped__))
    rc, _ = run(capsys, "pages", "--max-total", str(max_total))
    assert rc == 0
    top = max(w.N + w.L for w in DEFAULT_LADDER) + max_total
    counted = sum(piece_sizes_total(bd, top, True) for bd in page_spots(max_total))
    assert counted >= sum(len(piece_basis(bd, c, True)) for bd, c in built) > 0


def test_readme_sample_table_is_what_bh_prints(capsys):
    sample = re.search(r"Sample table output:\n\n```\n(.*?)```", README.read_text(),
                       re.S)
    assert sample, "README.md lost its sample table block"
    rc, out = run(capsys, "bh", "--kind", "bh_F", "--window", "3:2", "--max-d", "5")
    assert rc == 0
    assert out == sample.group(1), "README.md sample table differs from bh output"
