"""The cost record, ``tests/costs.json``, against a replay of the benchmark calls.

``tools/costs.py`` wrote the record: for each call of the three benchmark workloads,
at the seed of ``perfbench/digests.json``, the number of calls to each plain function
of ``src/sigrel``. This test replays every call in-process under the same hook and
compares every count, so a change in the work a call does fails here until the record
is regenerated and the moved counts are named in CHANGES.md.
"""

import ast
import json
import sys

import pytest

from conftest import load_tool

CACHE_DECORATORS = {"cache", "lru_cache"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects have co_qualname from 3.11")
def test_each_benchmark_call_makes_the_recorded_calls(tmp_path):
    costs = load_tool("costs")
    recorded = json.loads(costs.RECORD.read_text())["workloads"]
    measured = costs.measure(tmp_path)
    assert sorted(measured) == sorted(recorded)
    for name, calls in measured.items():
        assert sorted(calls) == sorted(recorded[name]), name
        for label, counts in calls.items():
            assert counts == recorded[name][label], (name, label)


def cached_functions(node, prefix):
    """The qualified names of the functions under ``node`` that a ``functools`` cache
    decorates, bare or called, as a name or an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from cached_functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in child.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "attr", getattr(target, "id", None)) in CACHE_DECORATORS:
                    yield f"{prefix}{child.name}"
            yield from cached_functions(child, f"{prefix}{child.name}.<locals>.")


def package_caches():
    """``module.qualname`` of every cached function of ``src/sigrel``."""
    costs = load_tool("costs")
    return {
        f"{path.stem}.{name}"
        for path in sorted(costs.PACKAGE.glob("*.py"))
        for name in cached_functions(ast.parse(path.read_text(encoding="utf-8")), "")
    }


def test_the_cost_record_clears_every_function_cache():
    """``CACHES`` in ``tools/costs.py`` names every ``cache``- or ``lru_cache``-decorated
    function of ``src/sigrel``. A cache left off it would carry entries from one call to
    the next, so a call's counts would depend on the calls before it, and the replay
    above, which runs the calls in the recorded order, would not show it.
    ``LifetimeDistribution.cdfs`` is a ``cached_property``: it caches on the law, and
    each call parses a fresh law, so it needs no clearing and is not counted here."""
    costs = load_tool("costs")
    listed = {f"{c.__module__.rpartition('.')[2]}.{c.__qualname__}" for c in costs.CACHES}
    assert package_caches() == listed


def test_every_cache_is_private():
    """A cache keys on its arguments before the function body runs, so a public cached
    function would hash, and could answer, an argument that its checks would refuse.
    Every cached function is private: a public entry point checks its inputs first."""
    public = {name for name in package_caches() if not name.rpartition(".")[2].startswith("_")}
    assert not public
