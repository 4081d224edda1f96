"""Seeded inputs, call cycles and output checks for the three workloads.

The law shapes follow the generators in ``tests/conftest.py`` but are
copied here with fixed sizes, so that a seed changes the values and never
the amount of work. Every check recomputes what it needs from the inputs
the benchmark wrote; nothing here imports ``sigrel``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Callable

# Systems in both enumerated classes; at n >= 3 they coincide.
SYSTEMS_PER_N = {3: 9, 4: 114, 5: 6894}

GENERIC_ATOMS = 8
COMONOTONE_ATOMS = 3
VERIFY_EXCHANGEABLE_BLOCKS = 2
# Every shape at n = 3 and 4 under both classes; at n = 5 (each call takes
# seconds, the others well under one) the generic law under both classes
# and the comonotone law under one.
VERIFY_CYCLE = (
    ("generic", 3, "coherent"),
    ("generic", 4, "semicoherent"),
    ("comonotone", 3, "coherent"),
    ("generic", 5, "coherent"),
    ("comonotone", 4, "semicoherent"),
    ("exchangeable", 3, "coherent"),
    ("exchangeable", 4, "semicoherent"),
    ("generic", 3, "semicoherent"),
    ("generic", 4, "coherent"),
    ("comonotone", 3, "semicoherent"),
    ("comonotone", 5, "semicoherent"),
    ("comonotone", 4, "coherent"),
    ("exchangeable", 3, "semicoherent"),
    ("generic", 5, "semicoherent"),
    ("exchangeable", 4, "coherent"),
)
# (n, blocks) per call: n=4 with 1-6 blocks (24-144 atoms) and n=5 with 1 or
# 2 (120 or 240 atoms). Nine of the 17 calls are 24-atom n=4 laws spread over
# the cycle, so the median rests on nine like calls, mostly start-up, as on the
# other workloads. A median between two single scan-bound calls varied between
# runs by more than its bound on a shared 2-vCPU host.
DIAGNOSE_CYCLE = (
    (4, 1), (4, 2), (4, 1), (5, 1), (4, 1), (4, 3), (4, 1), (4, 4), (4, 1),
    (5, 2), (4, 1), (4, 5), (4, 1), (5, 1), (4, 1), (4, 6), (4, 1),
)
WIDE_LAWS = ((10, 100), (12, 44))
WIDE_T_QUANTILES = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))
WIDE_PATHS = 6

Law = list[tuple[tuple[Fraction, ...], Fraction]]


@dataclass
class Call:
    """One CLI invocation: its arguments, its input sizes and its output check."""

    label: str
    args: list[str]
    sizes: dict
    # Returns None when the decoded stdout is right, else what is wrong.
    check: Callable[[object], str | None] = field(repr=False)


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _weights(rng: random.Random, count: int, hi: int, scale: int = 1) -> list[Fraction]:
    raw = [rng.randint(1, hi) for _ in range(count)]
    total = sum(raw) * scale
    return [Fraction(w, total) for w in raw]


def generic_law(rng: random.Random, n: int, n_atoms: int) -> Law:
    """``random_no_ties``: distinct coordinates inside each atom, random weights."""
    vectors: set[tuple[int, ...]] = set()
    while len(vectors) < n_atoms:
        vectors.add(tuple(rng.sample(range(1, 13), n)))
    return [
        (tuple(Fraction(x) for x in xs), p)
        for xs, p in zip(sorted(vectors), _weights(rng, n_atoms, 9))
    ]


def comonotone_law(rng: random.Random, n: int, n_atoms: int) -> Law:
    """Atoms that share one failure order, every lifetime distinct.

    The relative quality is then 1 on the top sets of that order, so the
    probability-signature representation holds for every system and the
    verifier's representation scan runs to the end.
    """
    order = rng.sample(range(n), n)
    values = rng.sample(range(1, 1000), n * n_atoms)
    rows = []
    for a, p in enumerate(_weights(rng, n_atoms, 9)):
        ranked = sorted(values[a * n : (a + 1) * n])
        xs = [Fraction(0)] * n
        for r, comp in enumerate(order):
            xs[comp] = Fraction(ranked[r])
        rows.append((tuple(xs), p))
    return rows


def exchangeable_law(rng: random.Random, n: int, n_blocks: int) -> Law:
    """``exchangeable_mixture``: blocks uniform over all orderings of their values.

    Blocks use disjoint value sets, so the atom count is exactly
    n_blocks * n! and the breakpoints exactly n_blocks * n.
    """
    values = rng.sample(range(1, 100), n * n_blocks)
    rows = []
    for b, w in enumerate(_weights(rng, n_blocks, 5, math.factorial(n))):
        for perm in permutations(values[b * n : (b + 1) * n]):
            rows.append((tuple(Fraction(x) for x in perm), w))
    return rows


def wide_law(rng: random.Random, n: int, n_atoms: int) -> Law:
    """Tie-free atoms whose lifetimes are all distinct: n_atoms * n breakpoints."""
    values = rng.sample(range(1, 10**6), n * n_atoms)
    return [
        (tuple(Fraction(v, 8) for v in values[a * n : (a + 1) * n]), p)
        for a, p in enumerate(_weights(rng, n_atoms, 9))
    ]


def _write_law(path: Path, n: int, law: Law) -> None:
    atoms = [{"x": [_fmt(x) for x in xs], "p": _fmt(p)} for xs, p in law]
    path.write_text(json.dumps({"n": n, "atoms": atoms}))


def _law_sizes(n: int, law: Law) -> dict:
    return {
        "n": n,
        "atoms": len(law),
        "breakpoints": len({x for xs, _ in law for x in xs}),
    }


# --- verify-enum -----------------------------------------------------------


def _check_verify(n: int, shape: str) -> Callable[[object], str | None]:
    def check(out: object) -> str | None:
        if out.get("systems_checked") != SYSTEMS_PER_N[n]:
            return f"systems_checked {out.get('systems_checked')} != {SYSTEMS_PER_N[n]}"
        checks = out.get("theorem_checks") or []
        if not checks or not all(c["consistent"] for c in checks):
            return "a theorem check is inconsistent"
        verdicts = out["verdicts"]
        if shape == "exchangeable" and not all(verdicts.values()):
            return f"exchangeable law with a false verdict: {verdicts}"
        if shape == "comonotone" and verdicts["prob_repr_all_systems"] is not True:
            return "comonotone law without the probability-signature representation"
        return None

    return check


def verify_enum(rng: random.Random, work: Path) -> list[Call]:
    shapes = {
        "generic": lambda n: generic_law(rng, n, GENERIC_ATOMS),
        "comonotone": lambda n: comonotone_law(rng, n, COMONOTONE_ATOMS),
        "exchangeable": lambda n: exchangeable_law(rng, n, VERIFY_EXCHANGEABLE_BLOCKS),
    }
    calls = []
    inputs: dict = {}
    for shape, n, cls in VERIFY_CYCLE:
        if (shape, n) not in inputs:
            law = shapes[shape](n)
            path = work / f"verify-{shape}-n{n}.json"
            _write_law(path, n, law)
            inputs[shape, n] = path, {**_law_sizes(n, law), "systems": SYSTEMS_PER_N[n]}
        path, sizes = inputs[shape, n]
        calls.append(
            Call(
                f"verify {shape} n={n} {cls}",
                ["verify", "--dist", str(path), "--class", cls],
                sizes,
                _check_verify(n, shape),
            )
        )
    return calls


# --- diagnose-exch ---------------------------------------------------------


def _check_diagnose(out: object) -> str | None:
    conditions = dict(out["conditions"])
    if conditions.pop("has_ties") is not False:
        return "exchangeable law reported with ties"
    if not all(v is True for v in conditions.values()):
        return f"exchangeable law with a false condition: {conditions}"
    if not all(v is True for v in out["verdicts"].values()):
        return f"exchangeable law with a false verdict: {out['verdicts']}"
    if out["witnesses"] or out["skipped_orderings"]:
        return "exchangeable law with witnesses or skipped orderings"
    return None


def diagnose_exch(rng: random.Random, work: Path) -> list[Call]:
    calls = []
    for i, (n, b) in enumerate(DIAGNOSE_CYCLE):
        law = exchangeable_law(rng, n, b)
        path = work / f"diagnose-{i}-n{n}.json"
        _write_law(path, n, law)
        calls.append(
            Call(
                f"diagnose n={n} atoms={len(law)} #{i}",
                ["diagnose", "--dist", str(path)],
                _law_sizes(n, law),
                _check_diagnose,
            )
        )
    return calls


# --- curve-wide ------------------------------------------------------------


def _path_table(n: int, paths: list[list[int]]) -> list[bool]:
    masks = [sum(1 << (c - 1) for c in path) for path in paths]
    return [any(j & m == m for m in masks) for j in range(1 << n)]


def _system_lifetimes(n: int, table: list[bool], law: Law) -> list[tuple[Fraction, int, Fraction]]:
    """Per atom: (system lifetime, its rank among the component lifetimes, p).

    The all-working state works, so the system fails at the first component
    failure after which the truth table reads 0.
    """
    out = []
    for xs, p in law:
        state = (1 << n) - 1
        for rank, comp in enumerate(sorted(range(n), key=xs.__getitem__), start=1):
            state &= ~(1 << comp)
            if not table[state]:
                out.append((xs[comp], rank, p))
                break
    return out


def _survival(lifetimes: list[tuple[Fraction, int, Fraction]], t: Fraction) -> Fraction:
    return sum((p for life, _, p in lifetimes if life > t), Fraction(0))


def _check_curve(lifetimes, breakpoints: list[Fraction]) -> Callable[[object], str | None]:
    # One cumulative sum over the atoms sorted by system lifetime.
    failed_by = {}
    acc = Fraction(0)
    for life, _, p in sorted(lifetimes):
        acc += p
        failed_by[life] = acc
    values = [Fraction(1)]
    acc = Fraction(0)
    for b in breakpoints:
        acc = failed_by.get(b, acc)
        values.append(1 - acc)
    want = {"breakpoints": [_fmt(b) for b in breakpoints], "values": [_fmt(v) for v in values]}

    def check(out: object) -> str | None:
        return None if out == want else "curve differs from the per-atom oracle"

    return check


def _check_point(lifetimes, t: Fraction) -> Callable[[object], str | None]:
    def check(out: object) -> str | None:
        want = {"t": _fmt(t), "value": _fmt(_survival(lifetimes, t))}
        return None if out == want else f"reliability at t differs from the oracle: {out}"

    return check


def _check_signature(n: int, lifetimes) -> Callable[[object], str | None]:
    def check(out: object) -> str | None:
        if out["agree"] is not True:
            return "quality-based and atom-oracle signatures disagree"
        entries = [Fraction(s) for s in out["quality_based"]]
        if sum(entries) != 1:
            return "probability signature does not sum to 1"
        want = [Fraction(0)] * n
        for _, rank, p in lifetimes:
            want[rank - 1] += p
        return None if entries == want else "probability signature differs from the oracle"

    return check


def curve_wide(rng: random.Random, work: Path) -> list[Call]:
    calls = []
    for n, n_atoms in WIDE_LAWS:
        law = wide_law(rng, n, n_atoms)
        paths = [
            sorted(rng.sample(range(1, n + 1), rng.randint(2, n // 2)))
            for _ in range(WIDE_PATHS)
        ]
        dist = work / f"curve-n{n}.json"
        system = work / f"curve-n{n}-system.json"
        _write_law(dist, n, law)
        system.write_text(json.dumps({"n": n, "kind": "paths", "paths": paths}))
        lifetimes = _system_lifetimes(n, _path_table(n, paths), law)
        breakpoints = sorted({x for xs, _ in law for x in xs})
        sizes = _law_sizes(n, law)
        common = ["--system", str(system), "--dist", str(dist)]
        calls.append(
            Call(f"reliability n={n} curve", ["reliability", *common], sizes,
                 _check_curve(lifetimes, breakpoints))
        )
        for q in WIDE_T_QUANTILES:
            t = breakpoints[int(q * len(breakpoints))]
            calls.append(
                Call(f"reliability n={n} --t q={q}", ["reliability", *common, "--t", _fmt(t)],
                     sizes, _check_point(lifetimes, t))
            )
        calls.append(
            Call(f"prob-signature n={n}", ["prob-signature", *common], sizes,
                 _check_signature(n, lifetimes))
        )
    return calls


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Call]]] = {
    "verify-enum": verify_enum,
    "diagnose-exch": diagnose_exch,
    "curve-wide": curve_wide,
}


def build(workload: str, seed: int, work: Path) -> list[Call]:
    """Write the workload's inputs for ``seed`` into ``work``; return one cycle of calls."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work)
