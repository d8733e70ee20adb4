"""The hand-run mutation check in mutants/ still plants every defect it names."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_text_occurs_once_in_its_file():
    for name, (path, old, new) in load_mutants().items():
        assert old != new, name
        assert (ROOT / path).read_text().count(old) == 1, f"{name}: {old!r} in {path}"
