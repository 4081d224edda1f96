"""Traced child process: ``python3 shim.py SPANS_OUT ARGS...`` behaves like ``sigrel ARGS...``.

Before calling ``sigrel.cli.run``, every function that one ``sigrel`` module
binds from another is replaced, in the importing module's namespace, by a
wrapper that records a span. That covers ``lru_cache`` wrappers and the
private names ``reliability`` imports from ``distribution``. Classes stay
unwrapped: callers test ``isinstance`` against them and iterate enums.
Calls inside one module are not spans; their time is the caller's self time.

At exit the spans are written to SPANS_OUT as JSON: ``names``, the span
names; ``bound``, every name a module imports (so a name that a refactor
removes shows as missing rather than as zero calls); and ``spans``, one
``[name index, start ns, end ns, parent index]`` per call, parent -1 for
the root ``cli.run``. Times are ``time.perf_counter_ns``, which on Linux is
the system-wide monotonic clock the parent process also reads.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

LAYERS = ("cli", "structure", "signature", "distribution", "reliability", "rationals")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[me] = (name_id, start, clock(), parent)
                stack.pop()

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every cross-module function binding; return the span names bound."""
    bound = set()
    for layer in LAYERS:
        module = importlib.import_module(f"sigrel.{layer}")
        for attr, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", None) or ""
            if isinstance(obj, type) or not callable(obj) or owner == module.__name__:
                continue
            if owner.removeprefix("sigrel.") not in LAYERS:
                continue
            name = f"{owner.removeprefix('sigrel.')}.{obj.__name__}"
            setattr(module, attr, tracer.wrap(obj, name))
            bound.add(name)
    return sorted(bound)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    bound = install(tracer)
    cli = importlib.import_module("sigrel.cli")
    code = tracer.wrap(cli.run, "cli.run")(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"names": tracer.names, "bound": bound, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
