"""The cost record, ``tests/costs.json``, against a replay of the benchmark calls.

``tools/costs.py`` wrote the record: for each call of the three benchmark workloads,
at the seed of ``perfbench/digests.json``, the number of calls to each plain function
of ``src/sigrel``. This test replays every call in-process under the same hook and
compares every count, so a change in the work a call does fails here until the record
is regenerated and the moved counts are named in CHANGES.md.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects have co_qualname from 3.11")
def test_each_benchmark_call_makes_the_recorded_calls(tmp_path):
    spec = importlib.util.spec_from_file_location("sigrel_costs", ROOT / "tools" / "costs.py")
    costs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(costs)
    recorded = json.loads(costs.RECORD.read_text())["workloads"]
    measured = costs.measure(tmp_path)
    assert sorted(measured) == sorted(recorded)
    for name, calls in measured.items():
        assert sorted(calls) == sorted(recorded[name]), name
        for label, counts in calls.items():
            assert counts == recorded[name][label], (name, label)
