"""Write the cost record, ``tests/costs.json``: how often each benchmark call runs each
function of ``src/sigrel``.

Usage: ``python tools/costs.py`` (no options).

It builds the calls of the three workloads of ``perfbench/workloads.py`` at the seed
of ``perfbench/digests.json`` and runs each one in-process through ``sigrel.cli.run``
under a ``sys.setprofile`` hook. The hook counts the calls of each plain function of
``src/sigrel``, keyed ``module.qualname``: generators, comprehensions and lambdas are
not counted, since the interpreters count their frames differently (a generator once
per resumption; Python 3.12 inlines comprehensions). The package's caches, ``CACHES``,
are cleared before each call, so a call's counts do not depend on the calls before it.

Counts of work are exact, so the record shows a change in the work a call does where
wall time cannot. ``tests/test_costs.py`` replays the calls and compares every count.
A change that moves a count regenerates the record on its parent first, then on the
change, and lists each count this script prints as moved in CHANGES.md, with the
reason. It needs Python 3.11 or later (``co_qualname``) and only the standard library.
"""

from __future__ import annotations

import importlib.util
import inspect
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "costs.json"
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))

from sigrel import cli, structure  # noqa: E402

PACKAGE = Path(cli.__file__).parent
CACHES = (structure._low_side_mask,)


def load_workloads():
    """``perfbench/workloads.py`` as a module, read and never written."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up here
    spec.loader.exec_module(workloads)
    return workloads


def counted(argv: list[str]) -> dict[str, int]:
    """Calls per plain ``sigrel`` function in ``cli.run(argv)``, which must exit 0."""
    keys: dict = {}  # code object -> its key, or None when it is not counted
    counts: dict[str, int] = {}

    def hook(frame, event, _):
        if event == "call":
            code = frame.f_code
            if code not in keys:
                path = Path(code.co_filename)
                plain = not (code.co_flags & inspect.CO_GENERATOR or code.co_name.startswith("<"))
                ours = plain and path.parent == PACKAGE
                keys[code] = f"{path.stem}.{code.co_qualname}" if ours else None
            if key := keys[code]:
                counts[key] = counts.get(key, 0) + 1

    for cache in CACHES:
        cache.cache_clear()
    previous = sys.getprofile()
    with redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            status = cli.run(argv)
        finally:
            sys.setprofile(previous)
    if status != 0:
        raise RuntimeError(f"sigrel {' '.join(argv)} exited {status}")
    return counts


def measure(work: Path) -> dict:
    """{workload: {call label: {function: calls}}}, the inputs written under ``work``."""
    workloads = load_workloads()
    seed = json.loads((BENCH / "digests.json").read_text())["seed"]
    costs = {}
    for name in workloads.WORKLOADS:
        (work / name).mkdir()
        calls = workloads.build(name, seed, work / name)
        costs[name] = {call.label: counted(call.args) for call in calls}
    return costs


def main() -> None:
    old = json.loads(RECORD.read_text())["workloads"] if RECORD.exists() else {}
    with tempfile.TemporaryDirectory(prefix="sigrel-costs-") as work:
        costs = measure(Path(work))
    for name, calls in costs.items():
        for label, counts in calls.items():
            before = old.get(name, {}).get(label, {})
            for key in sorted(counts.keys() | before.keys()):
                if (a := before.get(key, 0)) != (b := counts.get(key, 0)):
                    print(f"moved: {name} / {label} / {key}: {a} -> {b}")
    record = {"regenerate": "python tools/costs.py", "workloads": costs}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    rows = [counts for calls in costs.values() for counts in calls.values()]
    functions = {key for counts in rows for key in counts}
    total = sum(sum(counts.values()) for counts in rows)
    print(f"{len(rows)} calls, {len(functions)} functions, {total:,} function calls")


if __name__ == "__main__":
    main()
