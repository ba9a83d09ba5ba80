"""The mutant catalogue stays plantable: every snippet occurs exactly once."""

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_snippet_occurs_once(mutant):
    assert mutant.replacement != mutant.snippet
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet) == 1
    assert all((ROOT / path).is_file() for path in mutant.tests)


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
