"""Modules of the package import only public names from one another, and
nothing from outside the package but the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sigrel"


def private_cross_module_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "sigrel":
            continue
        found += [
            f"{path.name}:{node.lineno} imports {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    offenders = [hit for path in modules for hit in private_cross_module_imports(path)]
    assert offenders == []


def third_party_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno} imports {name}"
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names | {"sigrel"}
        ]
    return found


def test_package_needs_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    offenders = [hit for path in modules for hit in third_party_imports(path)]
    assert offenders == []
