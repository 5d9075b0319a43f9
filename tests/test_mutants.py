"""The mutation gate's entries stay in step with the code and tests they name.

``tools/mutants.py`` runs outside the suite, as it copies the tree once per
mutant; its staleness check is cheap, so the suite runs that part.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
gate = importlib.util.module_from_spec(_spec)
sys.modules["mutants"] = gate  # dataclasses look a class's module up by name
_spec.loader.exec_module(gate)


def test_no_entry_is_stale():
    assert gate.MUTANTS
    assert gate.stale_entries() == []


def test_a_stale_entry_is_reported(monkeypatch):
    entry = gate.MUTANTS[0]
    stale = [
        gate.Mutant("old text twice", entry.path, "\n", "", entry.tests),
        gate.Mutant("no such test", entry.path, entry.old, entry.new,
                    ("tests/test_mutants.py::TestMissing::test_gone[1]",)),
    ]
    monkeypatch.setattr(gate, "MUTANTS", stale)
    lines = gate.stale_entries()
    assert len(lines) == 2
    assert lines[0].startswith("old text twice: old text found ")
    assert lines[1] == "tests/test_mutants.py::TestMissing::test_gone[1]: no such test function"
