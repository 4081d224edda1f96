"""The mutant corpus, ``tools/mutants.json``, against the tree it mutates.

``python tools/mutants.py`` runs every mutant and takes minutes; this test reads the
corpus only. Each entry must still apply where it says and name tests that exist, so a
change that leaves an anchor stale or renames a named test fails here at once.
"""

import ast
import json
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))


@cache
def module(path):
    return ast.parse((ROOT / path).read_text(encoding="utf-8"))


def defines(path, names):
    """Whether the test module at ``path`` defines the chain of nested classes and functions
    ``names``, as a pytest node id spells it after the file."""
    body = module(path).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_mutant_applies_once_and_names_tests_that_exist():
    names = [mutant["name"] for mutant in CORPUS]
    assert len(set(names)) == len(names), "mutant names must be unique"
    for mutant in CORPUS:
        name, path = mutant["name"], ROOT / mutant["file"]
        assert path.is_file(), name
        assert path.read_text(encoding="utf-8").count(mutant["anchor"]) == 1, f"{name} is stale"
        assert mutant["replacement"] != mutant["anchor"], name
        assert mutant["tests"], name
        for test in mutant["tests"]:
            file, *chain = test.split("[")[0].split("::")
            assert (ROOT / file).is_file() and chain and defines(file, tuple(chain)), (name, test)
