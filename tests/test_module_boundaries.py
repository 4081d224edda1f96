"""Modules of the package import only public names from one another, without a
cycle, and nothing from outside the package but the standard library; the
package exports each module's ``__all__`` once, no source line is longer than
99 characters, importing the CLI loads none of the standard library's slow
modules, and only ``record.py`` writes a record's attributes."""

import ast
import graphlib
import importlib
import subprocess
import sys
from pathlib import Path

import sigrel

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


def package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports, read from every ``from .x import`` or
    ``from . import x`` node, those under ``if TYPE_CHECKING`` included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_imports_between_package_modules_are_acyclic():
    graph = {path.stem: package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert graph["reliability"] >= {"distribution", "signature", "structure"}
    # Raises CycleError, naming the modules of a cycle, if there is one.
    graphlib.TopologicalSorter(graph).prepare()


MODULES = ("distribution", "errors", "rationals", "reliability", "signature", "structure")


def test_package_exports_each_module_all_once():
    """``sigrel.__all__`` is the modules' lists concatenated, without
    duplicates; each name is the module's own object, ``from sigrel import *``
    binds exactly those names, and the record base is not among them."""
    modules = [importlib.import_module(f"sigrel.{name}") for name in MODULES]
    assert sigrel.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(sigrel.__all__)) == len(sigrel.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(sigrel, name) is getattr(module, name), name
    namespace: dict = {}
    exec("from sigrel import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(sigrel.__all__)
    assert "Record" not in sigrel.__all__ and not hasattr(sigrel, "Record")


def test_no_source_line_is_longer_than_99_characters():
    """One width for every line, so that a count of the package's lines compares
    like with like."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}:{number} has {len(line)} characters"
        for path in modules
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 99
    ]
    assert offenders == []


# Modules the CLI's import must not load: each costs milliseconds on every call
# (``dataclasses`` alone 6-9 ms, Python 3.11 on a 2-vCPU VM, ``-X importtime``),
# which is why ``record.py`` exists.
SLOW_MODULES = (
    "dataclasses", "inspect", "ast", "tokenize", "pathlib", "logging", "subprocess",
    "asyncio", "importlib.metadata",
)


def test_cli_import_loads_no_slow_module():
    """``import sigrel.cli`` in an isolated interpreter without ``site`` loads
    none of ``SLOW_MODULES``. ``-B`` keeps the run from writing bytecode under
    ``src``, since ``-I`` ignores ``PYTHONDONTWRITEBYTECODE``."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sigrel.cli; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    command = [sys.executable, "-I", "-S", "-B", "-c", probe, str(SRC.parent), *SLOW_MODULES]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def unread_private_names(modules: list[Path]) -> list[str]:
    """The module-level ``_``-prefixed functions, classes and constants of
    ``modules`` that no module loads, as ``file:name``; dunder names are left out."""
    defined, loaded = [], set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            defined += [
                (path.name, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [f"{module}:{name}" for module, name in defined if name not in loaded]


def test_every_private_module_name_is_read_in_the_package():
    """A refactor cannot leave behind a private helper, class or constant that
    only the tests reach."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert unread_private_names(modules) == []


# The ways around a record's frozen guard: ``object``'s setters, which the guard
# overrides, the instance dict, and the builtins that reach either.
BACK_DOORS = {"__setattr__", "__delattr__", "__dict__"}
BUILTIN_WRITERS = {"setattr", "delattr", "vars"}


def record_writes(path: Path) -> list[str]:
    """Each place in ``path`` that names a back door or calls a builtin writer, as
    ``file:line``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in BACK_DOORS:
            found.append(f"{path.name}:{node.lineno} names {node.attr}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in BUILTIN_WRITERS:
            found.append(f"{path.name}:{node.lineno} calls {node.func.id}")
    return found


def test_only_record_py_writes_a_record():
    """``Record._set`` is the one write path of the frozen records, so that
    ``__post_init__`` stores its replaced fields and derived views through it and
    no other module bypasses the guard."""
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "record.py"]
    assert modules
    offenders = [hit for path in modules for hit in record_writes(path)]
    assert offenders == []
