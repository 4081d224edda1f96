"""Re-run the checked-in mutant corpus: each mutant must make its named tests fail.

Usage: ``python tools/mutants.py`` (no options).

The corpus is ``tools/mutants.json``: a list of mutants, each with a
``name``, the ``file`` it edits, an ``anchor`` text, its ``replacement`` and
the ``tests`` (pytest node ids) that must catch it. The script copies the
repository, without ``.git``, into a temporary directory and first runs every
named test there unmutated; they must all pass, or the script lists the node
ids that pytest reports missing or failing and stops. Then, one mutant at a
time, it replaces the anchor with the replacement, runs only that mutant's
tests and restores the file. A mutant is

- *caught* when pytest reports a failing test (exit status 1),
- *stale* when its anchor no longer occurs exactly once, so that the code it
  mutated has changed and the entry needs rewriting,
- *survived* when its tests pass, and an *error* on any other outcome (a
  collection error or a pytest run over ``TIMEOUT`` seconds).

The exit status is 0 iff every mutant was caught: a stale mutant fails the
run too, so a change to the code cannot leave its corpus behind. Only the
standard library is used; the test suite does not collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("mutants.json")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "work", "*.egg-info")
# Seconds per pytest run: far above the slowest named set (about 10 s on a 2-vCPU VM).
TIMEOUT = 600


def pytest(copy: Path, tests: list[str], *options: str) -> tuple[int | None, str]:
    """pytest's exit status on ``tests`` in ``copy``, or None on a timeout, and its output."""
    # No bytecode: a mutant of the same size and mtime second could reuse a stale .pyc.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests]
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, timeout=TIMEOUT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT} s"
    return done.returncode, done.stdout


def broken(copy: Path, output: str) -> list[str]:
    """The node ids that pytest's ``output`` reports not found, failed or in error."""
    ids = []
    for line in output.splitlines():
        for prefix in ("ERROR: not found: ", "FAILED ", "ERROR "):
            if line.startswith(prefix):
                ids.append(line[len(prefix) :].split(" - ")[0].removeprefix(f"{copy}/"))
                break
    return ids


def run_mutant(copy: Path, mutant: dict) -> str:
    path = copy / mutant["file"]
    source = path.read_text(encoding="utf-8")
    if source.count(mutant["anchor"]) != 1:
        return "stale"
    path.write_text(source.replace(mutant["anchor"], mutant["replacement"]), encoding="utf-8")
    try:
        status, _ = pytest(copy, mutant["tests"], "-x")
    finally:
        path.write_text(source, encoding="utf-8")
    return {0: "survived", 1: "caught"}.get(status, "error")


def main() -> int:
    mutants = json.loads(TABLE.read_text(encoding="utf-8"))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="sigrel-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        tests = sorted({test for m in mutants for test in m["tests"]})
        status, output = pytest(copy, tests)
        if status != 0:
            print("the named tests do not all pass on the unmutated copy:", file=sys.stderr)
            for line in broken(copy, output) or output.splitlines()[-20:]:
                print(f"  {line}", file=sys.stderr)
            return 2
        counts: dict[str, int] = {}
        for mutant in mutants:
            began = time.perf_counter()
            outcome = run_mutant(copy, mutant)
            counts[outcome] = counts.get(outcome, 0) + 1
            elapsed = time.perf_counter() - began
            print(f"{outcome:9} {elapsed:6.1f} s  {mutant['name']}", flush=True)
    summary = ", ".join(f"{count} {outcome}" for outcome, count in sorted(counts.items()))
    print(f"{len(mutants)} mutants: {summary}; {time.perf_counter() - start:.0f} s in all")
    return 0 if counts.keys() <= {"caught"} else 1


if __name__ == "__main__":
    sys.exit(main())
