"""The cheap reports stay byte-identical to their golden files.

Each report runs as a fresh process and its stdout is compared byte for
byte with tests/golden/NAME.  The full list, every bh kind, page and demo,
is ``python3 tests/golden.py`` and stays out of the suite.
"""

import pytest

from golden import GOLDEN, TIER1, run


@pytest.mark.parametrize("name", TIER1)
def test_report_matches_its_golden_file(name):
    assert run(name) == (GOLDEN / name).read_bytes()
