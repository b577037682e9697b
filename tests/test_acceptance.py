"""End-to-end acceptance: every headline criterion must pass exactly.

The full battery runs once per test session; the per-criterion tests then
read its results so each criterion gets its own pass/fail line.
"""

import dataclasses
import json

import pytest

from kdvcohom import acceptance
from kdvcohom.acceptance import (
    ALL_CHECKS,
    VERIFY_SUITES,
    _pencil_page,
    format_results,
    run_acceptance,
    run_verify_suite,
    windowed_page_count,
    windowed_page_counts,
)
from kdvcohom.algebra import poly
from kdvcohom.cli import main
from kdvcohom.kdvpencil import e1_basis
from kdvcohom.linwin import Window
from kdvcohom.varcalc import OperatorSpec


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_acceptance()}


@pytest.mark.parametrize("name", [name for name, _ in ALL_CHECKS])
def test_criterion(results, name):
    r = results[name]
    assert r.passed, f"{name}: {r.detail}"


def test_every_suite_passes_standalone():
    for nm in VERIFY_SUITES:
        res = run_verify_suite(nm)
        assert res.passed, res.detail


def test_negative_control_rejects_corrupted_bracket():
    corrupted = OperatorSpec(poly("u t1"), poly("1/2 t0 t1"), name="corrupted")
    res = run_verify_suite("d2_squared", second_structure=corrupted)
    assert not res.passed
    assert "failed on u" in res.detail


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_verify_suite("bogus")


def test_format_results_one_line_per_criterion(results):
    text = format_results(list(results.values()))
    lines = text.splitlines()
    assert len(lines) == len(results) + 1
    assert all(line.startswith(("PASS ", "FAIL ")) for line in lines[:-1])
    assert lines[-1] == f"OK: {len(results)}/{len(results)} checks passed"


def test_run_acceptance_subset():
    picked = run_acceptance(names=["first-structure-cohomology"])
    assert [r.name for r in picked] == ["first-structure-cohomology"]
    assert picked[0].passed
    with pytest.raises(ValueError):
        run_acceptance(names=["not-a-check"])


def test_cached_page_entries_cannot_be_mutated():
    entry = _pencil_page(0, 0, 2, 1, 3)
    with pytest.raises(AttributeError):
        entry.reps.append(entry.reps[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.dim = 0
    assert windowed_page_count(2, 1, 2, Window(2, 1)) == 3


def test_two_window_ladder_builds_each_nonzero_page_once(monkeypatch, capsys):
    builds = []
    page = acceptance.page

    def counting_page(fs, r, p, q):
        entry = page(fs, r, p, q)
        if entry.dim:
            builds.append((fs.label, r, p, q))
        return entry

    monkeypatch.setattr(acceptance, "page", counting_page)
    ladder = (Window(2, 1), Window(3, 2))
    positions = [(p, n - p) for n in range(4) for p in range(n + 1)]
    assert main(["--format", "json", "pages", "--max-total", "3",
                 "--windows", "2:1,3:2"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    once = list(builds)
    assert once and len(once) == len(set(once))

    # one window at a time builds the entries shared by both windows twice
    builds.clear()
    per_window = [[windowed_page_count(1, p, q, w) for w in ladder]
                  for p, q in positions]
    assert len(builds) > len(once) and set(builds) == set(once)
    assert [list(e["counts"].values()) for e in entries] == per_window
    assert [windowed_page_counts(1, p, q, ladder) for p, q in positions] == per_window


def test_windowed_page_count_matches_the_pages_report(capsys):
    # one position alone reads each piece one degree past itself; the
    # report reads the same slices up to one degree past its largest total
    assert main(["--format", "json", "pages", "--max-total", "6",
                 "--windows", "2:1,3:2"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert len(entries) == 28
    for e in entries:
        got = {f"{w.N}:{w.L}": windowed_page_count(1, e["p"], e["q"], w)
               for w in (Window(2, 1), Window(3, 2))}
        assert got == e["counts"], (e["p"], e["q"])


def test_page_counts_refuse_positions_past_the_truncation():
    # page counts take totals up to _MAX_TOTAL = 6, which match the model
    # basis; a position of total 7 is refused
    assert acceptance._MAX_TOTAL == 6
    w = Window(2, 1)
    assert windowed_page_count(1, 3, 3, w) == len(e1_basis(3, 3, w)) == 12
    with pytest.raises(ValueError, match=r"\(3,4\) lies past the total 6"):
        windowed_page_count(1, 3, 4, w)
    with pytest.raises(ValueError):
        windowed_page_counts(2, 0, 7, [w, Window(3, 2)])
