"""The mutant list of tools/mutants.py stays applicable to the source.

Running the mutants is left to the tool; here each fragment must occur exactly
once in its file under src/bairecf/, and each test a mutant names must exist.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_fragment_occurs_once_in_src():
    for m in mutants.MUTANTS + mutants.EQUIVALENT:
        assert mutants.occurrences(mutants.SRC, m) == 1, (m.path, m.fragment)
        assert m.fragment != m.replacement


def test_every_named_test_exists():
    for m in mutants.MUTANTS:
        assert m.tests, m.fragment
        for node in m.tests:
            path, name = node.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), node
