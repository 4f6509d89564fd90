"""The committed mutant list stays applicable: each old text is found
exactly once, so the script in tests/mutants.py mutates what it names."""

import pytest

from tests.mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1 and mutant.old != mutant.new and mutant.tests
