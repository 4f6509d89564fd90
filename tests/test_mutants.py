"""The committed mutant list stays applicable: each old text is found
exactly once, so the script in tests/mutants.py mutates what it names."""

import pytest

from tests import mutants
from tests.mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1 and mutant.old != mutant.new and mutant.tests


def test_a_run_past_the_timeout_is_stopped(monkeypatch):
    monkeypatch.setattr(mutants, "TIMEOUT", 0.05)
    assert mutants.run_tests(ROOT, ["tests/test_mutants.py::test_mutant_names_are_unique"]) is None


def test_a_timed_out_mutant_is_named_as_not_killed(monkeypatch, capsys):
    codes = iter([0, None])  # the unmutated run passes, the mutant's runs past the timeout
    monkeypatch.setattr(mutants, "run_tests", lambda root, tests: next(codes))
    assert mutants.main(MUTANTS[:1]) == 1
    out = capsys.readouterr().out
    assert f"timed out after {mutants.TIMEOUT} s {MUTANTS[0].name}" in out
    assert f"1 of 1 mutants not killed: {MUTANTS[0].name}" in out
