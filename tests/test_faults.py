"""The planted-fault catalogue stays aimed at the code.

tests/faults.py plants each fault by exact text replacement, so a fault
whose text has moved or changed would plant nothing.  Here every anchor
must occur exactly once in its file and every named test must exist.  The
full run, which runs pytest once per fault in a copy of the tree, is
``python3 tests/faults.py`` and stays out of the suite.
"""

import re

import pytest

from faults import FAULTS, ROOT, SRC


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_anchor_occurs_once(fault):
    assert (SRC / fault.file).read_text().count(fault.text) == 1


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_named_tests_exist(fault):
    for test in fault.tests:
        path, name = test.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test


def test_fault_names_are_unique():
    assert len({f.name for f in FAULTS}) == len(FAULTS)
