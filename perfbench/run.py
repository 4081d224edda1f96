"""Benchmark of the ``sigrel`` command line.

    python3 perfbench/run.py --workload verify-enum --seed 1 --seconds 30 --trace 0

Runs the checkout's own ``sigrel`` (``src/`` first on PYTHONPATH, never an
installed copy) in a closed loop: one client, one child process at a time,
each call spawned only after the previous one exited. A workload is a fixed
cycle of calls on JSON inputs generated from ``--seed`` (workloads.py). A
run times ``round(--seconds / CYCLE_S)`` whole cycles, at least one: the
count depends on the argument only, never on how fast the code is, so every
run of the same arguments times the same mix of calls. Outputs are checked
after the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
cycles untraced and then under shim.py, and reports the per-layer metrics
and the tracing overhead. Metric names and units come from BENCHMARK.json.
The report goes to stdout; its last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import Call

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
DIGESTS = BENCH / "digests.json"

# Imports before timing starts; the first one writes the bytecode caches.
WARMUP_IMPORTS = 2
# A call past this is killed and counted as failed, so a hang cannot stall a run.
CALL_LIMIT_S = 90.0
# No call starts later than this after launch, which keeps a run under 180 s.
RUN_LIMIT_S = 150.0
# Nominal length of one cycle: each workload's cycle takes 25-31 s on 2 vCPUs.
CYCLE_S = 30.0
# Percentile of per-call wall time reported as the tail.
TAIL_PERCENTILE = 90
UNTRACED = "from sigrel.cli import main; main()"
LAYERS = ("structure", "signature", "distribution", "reliability", "rationals")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    call: Call
    wall_s: float = math.inf
    code: int | None = None
    timed_out: bool = False
    cpu_s: float = 0.0
    rss_kb: int = 0
    spawn_ns: int = 0
    stdout: Path | None = None
    spans: Path | None = None
    error: str | None = None
    counts: dict = field(default_factory=dict)


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path, limit: float):
    """Run one child to exit; return (spawn ns, exit ns, wait status, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, fd, str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for fd, path in ((1, stdout), (2, stderr))
    ]
    start = time.perf_counter_ns()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    timer = threading.Timer(limit, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        # Wait without reaping: until wait4 below the pid cannot be reused,
        # so the timer can never signal another process.
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        end = time.perf_counter_ns()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(pid, 0)
    return start, end, status, usage


class Runner:
    def __init__(self, work: Path, env: dict, deadline: float) -> None:
        self.work = work
        self.env = env
        self.deadline = deadline
        self.spawned = 0

    def call(self, call: Call, traced: bool) -> Outcome:
        outcome = Outcome(call)
        limit = min(CALL_LIMIT_S, self.deadline - time.monotonic())
        if limit <= 0:
            return outcome
        self.spawned += 1
        base = self.work / f"call{self.spawned}"
        outcome.stdout = base.with_suffix(".out")
        if traced:
            outcome.spans = base.with_suffix(".spans")
            argv = [sys.executable, str(BENCH / "shim.py"), str(outcome.spans), *call.args]
        else:
            argv = [sys.executable, "-c", UNTRACED, *call.args]
        start, end, status, usage = spawn(
            argv, self.env, outcome.stdout, base.with_suffix(".err"), limit
        )
        outcome.spawn_ns = start
        outcome.wall_s = (end - start) / 1e9
        outcome.code = os.waitstatus_to_exitcode(status)
        outcome.timed_out = outcome.code == -signal.SIGKILL
        outcome.cpu_s = usage.ru_utime + usage.ru_stime
        outcome.rss_kb = usage.ru_maxrss
        return outcome

    def import_time(self) -> float:
        """Wall time of a fresh interpreter importing sigrel.cli."""
        err = self.work / "setup.err"
        limit = max(1.0, min(CALL_LIMIT_S, self.deadline - time.monotonic()))
        start, end, status, _ = spawn(
            [sys.executable, "-c", "import sigrel.cli"], self.env, err.with_suffix(".out"), err, limit
        )
        if status != 0:
            raise BenchError(f"importing sigrel.cli failed: {err.read_text()[-500:]}")
        return (end - start) / 1e9

    def cycles(self, calls: list[Call], count: int, traced: bool, imports: bool = False):
        """``count`` whole cycles of ``calls``.

        With ``imports``, one import is timed after every second call, so
        that set-up time is sampled across the whole run, not in one burst.
        """
        outcomes, setup = [], []
        for _ in range(count):
            for c in calls:
                outcomes.append(self.call(c, traced))
                if imports and len(outcomes) % 2 == 0:
                    setup.append(self.import_time())
        return outcomes, setup


def probe(env: dict) -> dict:
    """Which sigrel, Python and numpy the children get; refuse anything but ./src."""
    code = (
        "import json, sys, numpy, sigrel; print(json.dumps({'sigrel': sigrel.__file__,"
        " 'python': sys.version.split()[0], 'numpy': numpy.__version__}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import sigrel from {SRC}: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    if not Path(info["sigrel"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"sigrel resolves to {info['sigrel']}, not under {SRC}")
    info["nproc"] = len(os.sched_getaffinity(0))
    return info


def check(outcomes: list[Outcome], digests: dict | None) -> None:
    """Set ``error`` on every call that failed, timed out or printed a wrong result."""
    for o in outcomes:
        if o.code is None:
            o.error = "not started: the run time limit was reached"
            continue
        if o.timed_out:
            o.error = f"killed at the {CALL_LIMIT_S:g} s call limit"
            continue
        if o.code != 0:
            err = o.stdout.with_suffix(".err").read_text(errors="replace").strip()
            o.error = f"exit code {o.code}: {err[-300:]}"
            continue
        data = o.stdout.read_bytes()
        try:
            payload = json.loads(data)
            o.error = o.call.check(payload)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            o.error = f"malformed output: {exc!r}"
            continue
        if o.error is None and digests is not None:
            if digests.get(o.call.label) != hashlib.sha256(data).hexdigest():
                o.error = "stdout bytes differ from the recorded sha256"
        if isinstance(payload, dict):
            o.counts = output_counts(payload)


def output_counts(payload: dict) -> dict:
    counts = {}
    if "systems_checked" in payload:
        counts["reliability.systems_checked"] = payload["systems_checked"]
    if "breakpoints" in payload:
        counts["distribution.breakpoints"] = len(payload["breakpoints"])
    if "skipped_orderings" in payload:
        base = math.factorial(payload["n"])
        counts["distribution.orderings_base"] = base
        counts["distribution.orderings_occurring_ratio"] = (
            base - len(payload["skipped_orderings"])
        ) / base
    return counts


def throughput(outcomes: list[Outcome]) -> tuple[float, float]:
    """Passing calls per second of the calls' own wall time, and that time.

    The loop is closed with no pause between calls, so this is the rate one
    client sees; the set-up imports timed between calls are left out.
    """
    busy = sum(o.wall_s for o in outcomes if o.code is not None)
    return sum(o.error is None for o in outcomes) / busy, busy


def latency_stats(outcomes: list[Outcome]) -> tuple[float, float]:
    """Median and TAIL_PERCENTILE of per-call wall time over the whole cycles.

    A failed call is ranked at the call limit, above every passing call.
    """
    lat = [o.wall_s if o.error is None else CALL_LIMIT_S for o in outcomes]
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    return statistics.median(lat), cuts[TAIL_PERCENTILE - 1]


def span_stats(o: Outcome) -> tuple[dict, set, float, float]:
    """Per span name [calls, self s] for one traced call, the names bound,
    the start-up time and the time spent inside cli.run."""
    data = json.loads(o.spans.read_text())
    names, spans = data["names"], data["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict = defaultdict(lambda: [0, 0.0])
    for i, (name_id, start, end, _) in enumerate(spans):
        entry = stats[names[name_id]]
        entry[0] += 1
        entry[1] += (end - start - child_ns[i]) / 1e9
    _, root_start, root_end, _ = spans[0]
    startup = (root_start - o.spawn_ns) / 1e9
    return stats, set(data["bound"]), startup, (root_end - root_start) / 1e9


def per_layer(untraced: list[Outcome], traced: list[Outcome], ops_u: float, ops_t: float):
    """All per-layer values by metric name (means per passing CLI call), plus
    the largest self times per call label."""
    traced = [o for o in traced if o.error is None]
    totals: dict = defaultdict(lambda: [0, 0.0])
    bound = {"cli.run"}
    by_label: dict = defaultdict(lambda: defaultdict(float))
    startup = unattributed = wall = 0.0
    for o in traced:
        stats, names, start_s, run_s = span_stats(o)
        bound |= names
        startup += start_s
        wall += o.wall_s
        unattributed += o.wall_s - start_s - run_s
        for name, (calls, self_s) in stats.items():
            totals[name][0] += calls
            totals[name][1] += self_s
            by_label[o.call.label][name] += self_s
    n = max(1, len(traced))
    values: dict = {}
    for name in bound:
        calls, self_s = totals[name]
        values[f"{name}.calls"] = calls / n
        values[f"{name}.self_s"] = self_s / n
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            s for name, (_, s) in totals.items() if name.startswith(layer + ".")
        ) / n
    values["cli.startup_s"] = startup / n
    values["cli.wall_s"] = wall / n
    values["cli.cpu_s"] = statistics.fmean(o.cpu_s for o in untraced)
    values["trace.unattributed_s"] = unattributed / n
    values["trace.ops_per_s_untraced"] = ops_u
    values["trace.ops_per_s_traced"] = ops_t
    values["trace.overhead_ratio"] = ops_u / ops_t
    counted = defaultdict(list)
    for o in traced:
        for key, value in o.counts.items():
            counted[key].append(value)
    for key, vals in counted.items():
        values[key] = statistics.fmean(vals)
    top = {
        label: sorted(spans.items(), key=lambda kv: -kv[1])[:3]
        for label, spans in by_label.items()
    }
    return values, top


def emit(names_units: list[dict], values: dict) -> tuple[dict, list[str]]:
    metrics, missing = {}, []
    for m in names_units:
        value = values.get(m["name"])
        if value is None:
            missing.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    launched = time.monotonic()

    if not (SRC / "sigrel" / "cli.py").is_file():
        raise BenchError(f"no sigrel sources at {SRC}: run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    info = probe(env)

    recorded = json.loads(DIGESTS.read_text())
    digests = recorded["workloads"][args.workload] if recorded["seed"] == args.seed else None

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        calls = workloads.build(args.workload, args.seed, work)
        runner = Runner(work, env, launched + RUN_LIMIT_S)
        print(
            f"workload {args.workload}  seed {args.seed}  sigrel {info['sigrel']}  "
            f"python {info['python']}  numpy {info['numpy']}  nproc {info['nproc']}"
        )
        for c in calls:
            sizes = "  ".join(f"{k} {v}" for k, v in c.sizes.items())
            print(f"  input  {c.label:<40} {sizes}")

        for _ in range(WARMUP_IMPORTS):
            runner.import_time()
        cycles = max(1, round(args.seconds / CYCLE_S))
        outcomes, setup = runner.cycles(calls, cycles, traced=False, imports=not args.trace)
        traced: list[Outcome] = []
        if args.trace:
            traced, _ = runner.cycles(calls, cycles, traced=True)
        check(outcomes + traced, digests)
        ops, elapsed = throughput(outcomes)

        failed = [o for o in outcomes + traced if o.error is not None]
        for o in failed:
            print(f"  FAILED {o.call.label}: {o.error}")
        attempted = len(outcomes) + len(traced)
        print(
            f"cycles {cycles} x {len(calls)} calls in {elapsed:.2f} s  "
            f"error_rate {len(failed) / attempted:g} ({len(failed)} of {attempted} calls)"
        )

        if args.trace:
            values, top = per_layer(outcomes, traced, ops, throughput(traced)[0])
            metrics, missing = emit(spec["per_layer"], values)
            print_trace(values, top, missing)
            report = {"workload": args.workload, "seed": args.seed, **info,
                      "values": values, "top_self_s": top, "missing": missing}
            (WORK / f"trace-{args.workload}.json").write_text(json.dumps(report, indent=1))
        else:
            p50, tail = latency_stats(outcomes)
            values = {
                "ops_per_s": ops,
                "latency_p50_s": p50,
                "latency_tail_s": tail,
                "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024,
                "setup_s": statistics.median(setup),
            }
            metrics, _ = emit(spec["end_to_end"], values)
            for name, m in metrics.items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
            print(
                f"  latency_tail_s is the p{TAIL_PERCENTILE} of {len(outcomes)} calls "
                f"({cycles} x {len(calls)})"
            )

        print(json.dumps({
            "correct": not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_trace(values: dict, top: dict, missing: list[str]) -> None:
    v = values
    print("per call: wall = startup + self times + unattributed")
    print(f"  cli.wall_s            {v['cli.wall_s']:.4f}")
    print(f"  cli.startup_s         {v['cli.startup_s']:.4f}")
    print(f"  cli.run.self_s        {v['cli.run.self_s']:.4f}")
    for layer in LAYERS:
        print(f"  {layer + '.self_s':<21} {v[f'layer.{layer}.self_s']:.4f}")
    print(f"  unattributed_s        {v['trace.unattributed_s']:.4f}")
    print(
        f"tracing overhead: {v['trace.ops_per_s_untraced']:.4f} untraced vs "
        f"{v['trace.ops_per_s_traced']:.4f} traced ops/s "
        f"(ratio {v['trace.overhead_ratio']:.3f})"
    )
    print("largest self times per call label (s, summed over cycles):")
    for label, spans in top.items():
        print(f"  {label:<40} " + "  ".join(f"{n} {s:.3f}" for n, s in spans))
    if "distribution.orderings_base" in v:
        print(
            f"orderings occurring: {v['distribution.orderings_occurring_ratio']:.4f} "
            f"of n! (mean base {v['distribution.orderings_base']:g})"
        )
    if missing:
        print("missing (no such binding or output field; reported as 0): " + ", ".join(missing))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
