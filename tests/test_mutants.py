"""scripts/mutants.py: every mutant's old text still occurs exactly once."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = load_mutants().MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    # so an edit of the source cannot leave a mutant that no longer applies
    _, path, old, new, _ = mutant
    text = (SCRIPT.parent.parent / path).read_text(encoding="utf-8")
    assert text.count(old) == 1 and new != old
