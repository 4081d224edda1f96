"""A standing output corpus: one sha256 per labelled library call, over the call's JSON.

``tests/output_corpus.json`` holds the digests of the library's answers on laws built
by the seeded generators of ``tests/conftest.py`` and ``perfbench/workloads.py``:
``diagnose`` at n = 2..8, ties included; ``verify_theorems`` under both classes at
n = 2..5; the curve, one time value and the probability signature beside its atom
oracle, for a k-out-of-n and a path-set system, and on tied laws the probability
signature under the quality rebuilt from its values; the curve and two time values,
before the first breakpoint and at a middle one, for both constant systems (the table 0
and the all-ones table); ``appendix_basis`` with its rank at n <= 6; the frozen records'
instance state; the probability signature under two qualities built by hand, one level
summing above 1 and one below; and the refusals, each with its message.
A call's JSON is the payload the command line would print for it, or, for a refusal,
the exception's class and message.

The digests pin the answers as they are, right or wrong, and replace no oracle. A
change that means to move an answer regenerates the file with

    PYTHONPATH=src python tests/test_output_corpus.py

and names each changed label in CHANGES.md, with the reason.
"""

import hashlib
import importlib.util
import json
import pickle
import random
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from sigrel import (
    DiagnosisReport,
    LifetimeDistribution,
    QualityFunction,
    ReliabilityCurve,
    Signature,
    StateDistribution,
    StructureFunction,
    SystemClass,
    TheoremCheck,
    TiesError,
    WeightFunction,
    appendix_basis,
    boland_signature,
    diagnose,
    distribution_from_json,
    enumerate_systems,
    evaluate,
    format_rational,
    from_path_sets,
    from_truth_table,
    group_reliability,
    k_out_of_n,
    parse_rational,
    phi_level,
    probability_signature,
    probability_signature_oracle,
    rank_over_rationals,
    relative_quality,
    reliability_curve,
    repr_weighted,
    state_distribution,
    system_from_json,
    system_lifetime,
    system_reliability,
    system_to_json,
    verify_theorems,
)

from conftest import (
    coset_mixture,
    exchangeable_mixture,
    make_dist,
    orbit_dist,
    random_no_ties,
    shifted_ladders_dist,
    staggered_pairs_dist,
    tied_law,
)

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).with_name("output_corpus.json")
SEED = 20261020


def perfbench_workloads():
    """``perfbench/workloads.py``, loaded read-only for its law generators."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up here
    spec.loader.exec_module(module)
    return module


def laws(rng, bench):
    """(name, law) pairs, n = 2..8: each generator at every n where it is cheap; ``bench``
    is :func:`perfbench_workloads`."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    orbits = [(1, 0, 0, 0, 0, 0), (half, 0, 0, 0, half, 0), (third, 0, third, 0, 0, third)]
    found = [("staggered pairs", staggered_pairs_dist()), ("ladders", shifted_ladders_dist())]
    found += [(f"orbit {probs}", orbit_dist(probs)) for probs in [*orbits, (Fraction(1, 6),) * 6]]
    found += [(f"coset #{i}", coset_mixture(rng)) for i in range(4)]
    for n in range(2, 9):
        found += [(f"generic n={n} #{i}", random_no_ties(rng, n)) for i in range(4)]
        found += [(f"tied n={n} #{i}", tied_law(rng, n)) for i in range(3)]
        shapes = [
            ("comonotone", lambda: bench.comonotone_law(rng, n, 3)),
            ("wide", lambda: bench.wide_law(rng, n, 6)),
        ]
        if n <= 5:
            shapes.append(("exchangeable blocks", lambda: bench.exchangeable_law(rng, n, 1)))
        for shape, law in shapes:
            found += [(f"{shape} n={n} #{i}", LifetimeDistribution(n, law())) for i in range(2)]
        if n <= 4:
            found += [(f"exchangeable n={n} #{i}", exchangeable_mixture(rng, n)) for i in range(2)]
    return found


def systems(rng, n):
    """A k-out-of-n system and a path-set system on n components."""
    k = rng.randint(1, n)
    paths = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
    return [(f"{k}-out-of-{n}", k_out_of_n(n, k)), (f"paths {paths}", from_path_sets(n, paths))]


# The payload of each command, from the library calls it makes, and of the library
# calls no command makes.


def flags(phi):
    """A system's flags and its level values phi_level(phi, k), k = 0..n."""
    levels = [format_rational(phi_level(phi, k)) for k in range(phi.n + 1)]
    return [list(phi.essential), phi.semicoherent, phi.coherent, levels]


def lifetimes(phi, d):
    """The system's lifetime on each atom's lifetimes."""
    return [format_rational(system_lifetime(phi, xs)) for xs, _ in d.atoms]


def design_signature(phi):
    return list(boland_signature(phi).as_strings())


def curve(phi, d):
    return reliability_curve(phi, d).to_json()


def reliability_at(phi, d, t):
    return {"t": format_rational(t), "value": format_rational(system_reliability(phi, d, t))}


def group_at(d, components, t):
    return format_rational(group_reliability(d, components, t))


def prob_signature(phi, d):
    quality_based = probability_signature(phi, relative_quality(d))
    atom_oracle = probability_signature_oracle(phi, d)
    return {
        "quality_based": list(quality_based.as_strings()),
        "atom_oracle": list(atom_oracle.as_strings()),
        "agree": quality_based == atom_oracle,
    }


def rebuilt_quality(d):
    """The relative quality of ``d`` rebuilt from its values alone."""
    q = relative_quality(d)
    return QualityFunction(q.n, q.values)


def quality_signature(phi, build):
    """The probability signature under the quality ``build`` returns, or its ties refusal."""
    try:
        return list(probability_signature(phi, build()).as_strings())
    except TiesError as exc:
        return {"refused": type(exc).__name__, "message": str(exc)}


def report(d, system_class=None):
    """``diagnose`` without a class, ``verify`` with one."""
    return (diagnose(d) if system_class is None else verify_theorems(d, system_class)).to_json()


def basis(n, system_class):
    """With ``--check-rank``."""
    family = appendix_basis(n, system_class)
    return {
        "n": n,
        "class": system_class.value,
        "count": len(family),
        "systems": [system_to_json(phi) for phi in family],
        "rank": rank_over_rationals(family),
        "expected": (1 << n) - 1,
    }


def record_state(build):
    """What the frozen record that ``build`` returns shows: repr, hash, its instance dict
    in order, and whether a pickle round trip and a rebuild from its fields give an equal
    record."""
    record = build()
    fields = [vars(record)[f] for f in record._fields]
    return {
        "repr": repr(record),
        "hash": hash(record),
        "dict": [[name, repr(value)] for name, value in vars(record).items()],
        "pickled": pickle.loads(pickle.dumps(record)) == record,
        "rebuilt": type(record)(*fields) == record,
    }


def refusal(call):
    """Call ``call``, which must refuse, and return the exception's class and message."""
    try:
        call()
    except (ValueError, TypeError, AttributeError) as exc:
        return {"refused": type(exc).__name__, "message": str(exc)}
    raise AssertionError("the call did not refuse")


def calls():
    """(label, call) pairs; each call returns its JSON payload."""
    rng, bench = random.Random(SEED), perfbench_workloads()
    found = []
    for name, d in laws(rng, bench):
        found.append((f"diagnose {name}", partial(report, d)))
        found += [
            (f"verify {c.value} {name}", partial(report, d, c))
            for c in SystemClass
            if c.min_components <= d.n <= 5
        ]
    for n in range(2, 9):
        shapes = [
            ("generic", random_no_ties(rng, n)),
            ("wide", LifetimeDistribution(n, bench.wide_law(rng, n, 12))),
            ("tied", tied_law(rng, n)),
        ]
        for shape, d in shapes:
            middle = d.breakpoints[len(d.breakpoints) // 2]
            group = partial(group_at, d, [1, n], middle)
            found.append((f"group reliability {shape} n={n}", group))
            for system, phi in systems(rng, n):
                label = f"{system} on {shape} n={n}"
                found += [
                    (f"flags {label}", partial(flags, phi)),
                    (f"lifetimes {label}", partial(lifetimes, phi, d)),
                    (f"signature {label}", partial(design_signature, phi)),
                    (f"curve {label}", partial(curve, phi, d)),
                    (f"reliability at {middle} {label}", partial(reliability_at, phi, d, middle)),
                ]
                if shape != "tied":
                    found.append((f"prob-signature {label}", partial(prob_signature, phi, d)))
                else:
                    rebuilt = partial(quality_signature, phi, partial(rebuilt_quality, d))
                    found.append((f"prob-signature of the rebuilt quality {label}", rebuilt))
            # The two monotone systems outside the semicoherent class, at no cost of rng draws.
            before = d.breakpoints[0] / 2
            for value in (0, 1):
                phi = StructureFunction(n, (1 << (1 << n)) - 1 if value else 0)
                label = f"constant {value} on {shape} n={n}"
                found.append((f"curve {label}", partial(curve, phi, d)))
                found += [
                    (f"reliability at {t} {label}", partial(reliability_at, phi, d, t))
                    for t in (before, middle)
                ]
    found += [
        (f"basis {c.value} n={n}", partial(basis, n, c))
        for n in range(2, 7)
        for c in SystemClass
        if c.min_components <= n
    ]
    found.append(("flags constant 1 n=3", partial(flags, StructureFunction(3, 255))))
    d3, tied3 = random_no_ties(rng, 3), make_dist(3, [((1, 1, 2), 1)])
    phi3, d2, d4 = k_out_of_n(3, 2), random_no_ties(rng, 2), random_no_ties(rng, 4)
    records = {
        "Signature": lambda: boland_signature(phi3),
        "WeightFunction": lambda: WeightFunction.symmetric(3),
        "QualityFunction": lambda: relative_quality(d3),
        "QualityFunction of ties": lambda: relative_quality(tied3),
        "LifetimeDistribution": lambda: random_no_ties(rng, 3),
        "StateDistribution": lambda: state_distribution(d3, d3.breakpoints[1]),
        "ReliabilityCurve": lambda: reliability_curve(phi3, d3),
        "StructureFunction": lambda: from_path_sets(4, [[1, 2], [3, 4]]),
        # Built from strings, ints and unsorted, repeated atoms: what construction replaces.
        "Signature from strings": lambda: Signature(("1/3", 0, "2/3")),
        "WeightFunction from strings": lambda: WeightFunction(1, ("1/2", "1.5e0")),
        "LifetimeDistribution from strings": lambda: LifetimeDistribution(
            2, ((("2", 1), "1/4"), ((1, "1/2"), "1/4"), ((2, "1"), "1/2"))
        ),
        "StateDistribution from strings": lambda: StateDistribution(1, "1/2", ("1/2", "0.5")),
        "ReliabilityCurve from strings": lambda: ReliabilityCurve(("1", "5/2"), (1, "1/2", "0")),
        "StructureFunction n=2": lambda: from_truth_table(2, "0001"),
        "StructureFunction projection": lambda: from_truth_table(3, "01010101"),
    }
    found += [(f"record {name}", partial(record_state, build)) for name, build in records.items()]
    # Qualities built by hand whose level 1 sums to more and to less than 1.
    for level_sum, entry in (("3/2", "1/2"), ("3/4", "1/4")):
        values = (1, entry, entry, "1/3", entry, "1/3", "1/3", 1)
        build = partial(QualityFunction, 3, values)
        label = f"prob-signature of a quality with level sum {level_sum}"
        found.append((label, partial(quality_signature, phi3, build)))
    refused = {
        "verify coherent n=2": lambda: verify_theorems(d2, SystemClass.COHERENT),
        "verify n=6": lambda: verify_theorems(random_no_ties(rng, 6), SystemClass.SEMICOHERENT),
        "verify unknown class": lambda: verify_theorems(d3, "coherent"),
        "diagnose n=10": lambda: diagnose(random_no_ties(rng, 10)),
        "basis n=13": lambda: appendix_basis(13, SystemClass.SEMICOHERENT),
        "basis coherent n=2": lambda: appendix_basis(2, SystemClass.COHERENT),
        "basis n=True": lambda: appendix_basis(True, SystemClass.SEMICOHERENT),
        "oracle on ties": lambda: probability_signature_oracle(phi3, tied3),
        "oracle on ties with a count mismatch": lambda: probability_signature_oracle(
            k_out_of_n(4, 2), tied3
        ),
        "signature of ties": lambda: probability_signature(phi3, relative_quality(tied3)),
        "signature of a constant system": lambda: probability_signature(
            StructureFunction(3, 0), relative_quality(d3)
        ),
        "signature with plain weights": lambda: probability_signature(
            phi3, WeightFunction.symmetric(3)
        ),
        "signature of a constant system with plain weights": lambda: probability_signature(
            StructureFunction(3, 0), WeightFunction.symmetric(3)
        ),
        "level n+1": lambda: phi_level(phi3, 4),
        "mixture count mismatch": lambda: repr_weighted(phi3, d4, WeightFunction.symmetric(3), 1),
        "group reliability component 0 at -1": lambda: group_reliability(d3, [0], -1),
        "enumerate unknown class": lambda: enumerate_systems(3, "coherent"),
        "basis n=2.5": lambda: appendix_basis(2.5, SystemClass.SEMICOHERENT),
        "basis n='3'": lambda: appendix_basis("3", SystemClass.SEMICOHERENT),
        "oracle count mismatch": lambda: probability_signature_oracle(k_out_of_n(4, 2), d3),
        "curve count mismatch": lambda: reliability_curve(k_out_of_n(4, 2), d3),
        "reliability count mismatch at 0": lambda: system_reliability(k_out_of_n(4, 2), d3, 0),
        "oracle of a constant system": lambda: probability_signature_oracle(
            StructureFunction(3, 0), d3
        ),
        "reliability at -1": lambda: system_reliability(phi3, d3, "-1"),
        "reliability at 1e4300": lambda: system_reliability(phi3, d3, "1e4300"),
        "reliability at abc": lambda: system_reliability(phi3, d3, "abc"),
        "parse 1/0": lambda: parse_rational("1/0"),
        "format 0.5": lambda: format_rational(0.5),
        "law without atoms": lambda: LifetimeDistribution(2, ()),
        "law n=0": lambda: LifetimeDistribution(0, (((1,), 1),)),
        "law n=True": lambda: LifetimeDistribution(True, (((1,), 1),)),
        "law atoms as a string": lambda: LifetimeDistribution(2, "12"),
        "law atom not a pair": lambda: LifetimeDistribution(2, ((1, 2, 3),)),
        "law lifetimes as a string": lambda: LifetimeDistribution(2, (("12", 1),)),
        "law short atom": lambda: LifetimeDistribution(2, (((1,), 1),)),
        "law zero lifetime": lambda: LifetimeDistribution(2, (((0, 1), 1),)),
        "law probability 0": lambda: LifetimeDistribution(2, (((1, 2), 0), ((2, 1), 1))),
        "law probabilities sum 3/4": lambda: LifetimeDistribution(2, (((1, 2), "3/4"),)),
        "law from json without n": lambda: distribution_from_json({"atoms": []}),
        "law from json bad atom": lambda: distribution_from_json({"n": 2, "atoms": [{"x": 1}]}),
        "law from json empty": lambda: distribution_from_json({}),
        "law from json n=True": lambda: distribution_from_json(
            {"n": True, "atoms": [{"x": ["1"], "p": "1"}]}
        ),
        "law from json x a string": lambda: distribution_from_json(
            {"n": 2, "atoms": [{"x": "12", "p": "1"}]}
        ),
        "system n=1": lambda: StructureFunction(1, 2),
        "system table too wide": lambda: StructureFunction(2, 1 << 4),
        "system table a bool": lambda: StructureFunction(2, True),
        "system not monotone": lambda: from_truth_table(3, "01000000"),
        "system drops twice": lambda: from_truth_table(3, "10100000"),
        "system float entry": lambda: from_truth_table(2, [0, 0, 0, 1.0]),
        "system bool entry": lambda: from_truth_table(2, [0, 0, 0, True]),
        "evaluate a bool state": lambda: evaluate(phi3, (True, 0, 1)),
        "system state index 8": lambda: phi3.value(8),
        "system short table": lambda: from_truth_table(2, "011"),
        "system bad entry": lambda: from_truth_table(2, [0, 1, 2, 1]),
        "paths n=19": lambda: from_path_sets(19, [[1]]),
        "paths n=0": lambda: from_path_sets(0, [[1]]),
        "paths component 0": lambda: from_path_sets(3, [[0, 1]]),
        "paths empty path": lambda: from_path_sets(3, [[]]),
        "paths none": lambda: from_path_sets(3, []),
        "k-out-of-n k=4 n=3": lambda: k_out_of_n(3, 4),
        "k-out-of-n k=True": lambda: k_out_of_n(3, True),
        "system from json kind": lambda: system_from_json({"n": 2, "kind": "cuts"}),
        "system from json empty": lambda: system_from_json({}),
        "states n=0": lambda: StateDistribution(0, 1, (1,)),
        "states negative": lambda: StateDistribution(1, 1, (2, -1)),
        "states float": lambda: StateDistribution(1, 1, (0.5, 0.5)),
        "states index 2": lambda: StateDistribution(1, 1, (0, 1)).prob(2),
        "states sum 1/2": lambda: StateDistribution(1, 1, ("1/4", "1/4")),
        "states short": lambda: StateDistribution(2, 1, (1,)),
        "states time 0": lambda: StateDistribution(1, 0, (0, 1)),
        "states time x": lambda: StateDistribution(1, "x", (0, 1)),
        "curve without breakpoints": lambda: ReliabilityCurve((), (1,)),
        "curve breakpoint 0": lambda: ReliabilityCurve((0,), (1, 0)),
        "curve breakpoints descend": lambda: ReliabilityCurve((2, 1), (1, 1, 0)),
        "curve value count": lambda: ReliabilityCurve((1,), (1,)),
        "curve value 2": lambda: ReliabilityCurve((1,), (2, 0)),
        "curve float value": lambda: ReliabilityCurve((1,), (1.0, 0)),
        "signature empty": lambda: Signature(()),
        "signature entry x": lambda: Signature(("x",)),
        "signature entries an int": lambda: Signature(5),
        "weights count": lambda: WeightFunction(2, (1, 1)),
        "weights n=0": lambda: WeightFunction(0, (1,)),
        "symmetric weights n=0": lambda: WeightFunction.symmetric(0),
        "quality ends": lambda: QualityFunction(1, (0, 1)),
        "quality above 1": lambda: QualityFunction(2, (1, 2, 0, 1)),
        "quality below 0": lambda: QualityFunction(2, (1, -1, "1/2", 1)),
        "quality from_tied 1": lambda: QualityFunction(1, (1, 1), 1),
        "theorem check relation xor": lambda: TheoremCheck("c", "xor", True, True),
        "theorem check lhs 1": lambda: TheoremCheck("c", "iff", 1, True),
        "theorem check rhs 0": lambda: TheoremCheck("c", "iff", True, 0),
        "theorem check name None": lambda: TheoremCheck(None, "if", True, False),
        "report class as a string": lambda: DiagnosisReport(
            **{**vars(diagnose(d3)), "system_class": "coherent"}
        ),
        "record too many arguments": lambda: Signature((1,), 2),
        "record unknown keyword": lambda: Signature(entries=(1,)),
        "record missing argument": lambda: WeightFunction(2),
        "record field twice": lambda: Signature((1,), values=(1,)),
        "record write": lambda: setattr(boland_signature(phi3), "values", ()),
        "record delete": lambda: delattr(relative_quality(d3), "values"),
        "record new attribute": lambda: setattr(k_out_of_n(3, 1), "coherent", False),
    }
    found += [(f"refusal {name}", partial(refusal, c)) for name, c in refused.items()]
    return found


def digest(payload):
    """sha256 of the compact JSON of ``payload``, keys in the order the call gave them."""
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests():
    found = {}
    for label, call in calls():
        assert label not in found, f"label {label!r} twice"
        try:
            found[label] = digest(call())
        except Exception as exc:
            raise AssertionError(f"{label}: {type(exc).__name__}: {exc}") from exc
    return found


def test_every_call_gives_its_recorded_answer():
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))["digests"]
    found = digests()
    assert sorted(found) == sorted(recorded), "the corpus labels changed; regenerate the file"
    changed = [label for label in recorded if found[label] != recorded[label]]
    assert changed == [], f"{len(changed)} answers changed, first: {changed[:10]}"


if __name__ == "__main__":
    regenerate = "PYTHONPATH=src python tests/test_output_corpus.py"
    text = json.dumps({"regenerate": regenerate, "digests": digests()}, indent=1)
    CORPUS.write_text(text + "\n", encoding="utf-8")
