"""Tests for the maintenance scripts under tools/ that run outside the
suite: only that their tables still match the code."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_still_applies_to_the_code():
    # Each mutant names a file under src/ in which its old text occurs
    # exactly once, changes it, and names tests that exist, so
    # tools/mutants.py runs it rather than reporting it stale.
    mutants = load("mutants").MUTANTS
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.path.startswith("src/") and m.old != m.new, m.name
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test
