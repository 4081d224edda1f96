"""Each input rule refuses a bad input with one message at every entry point:
the file headers, the integer component count, level and index, the 1-based
component range, the system/law component count, the length of a 2**n table,
and the cache keys of the size-indexed tables."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sigrel import (
    EnumerationBoundError,
    LifetimeDistribution,
    QualityFunction,
    StateDistribution,
    StructureFunction,
    SystemClass,
    TiesError,
    WeightFunction,
    appendix_basis,
    class_rank,
    class_tables,
    distribution_from_json,
    enumerate_systems,
    evaluate,
    from_path_sets,
    from_truth_table,
    group_reliability,
    k_out_of_n,
    level_indices,
    order_stat_survival,
    phi_level,
    probability_signature,
    probability_signature_oracle,
    rank_over_rationals,
    relative_quality,
    reliability_curve,
    repr_prob_signature,
    repr_weighted,
    system_from_json,
    system_reliability,
    weakly_exchangeable,
    weighted_phi_level,
    weighted_signature,
)
from sigrel.cli import run

from conftest import make_dist

SRC = Path(__file__).resolve().parents[1] / "src"

PATHS = {"kind": "paths", "paths": [[1]]}
ATOMS = {"atoms": [{"x": ["1"], "p": "1"}]}

# (parser, CLI command and option, file object, message)
HEADER_REFUSALS = [
    (system_from_json, ("signature", "--system"), [1, 2], "system file must be a JSON object"),
    (system_from_json, ("signature", "--system"), PATHS, "system file is missing the 'n' field"),
    (system_from_json, ("signature", "--system"), {}, "system file is missing the 'n' field"),
    (system_from_json, ("signature", "--system"), {"n": 3, "paths": [[1]]},
     "system file is missing the 'kind' field"),
    (system_from_json, ("signature", "--system"), {"n": True},
     "system file is missing the 'kind' field"),
    (system_from_json, ("signature", "--system"), {"n": True, **PATHS},
     "system field 'n' must be an integer, got True"),
    (system_from_json, ("signature", "--system"), {"n": "3", **PATHS},
     "system field 'n' must be an integer, got '3'"),
    (distribution_from_json, ("diagnose", "--dist"), [ATOMS],
     "distribution file must be a JSON object"),
    (distribution_from_json, ("diagnose", "--dist"), ATOMS,
     "distribution file is missing the 'n' field"),
    (distribution_from_json, ("diagnose", "--dist"), {},
     "distribution file is missing the 'n' field"),
    (distribution_from_json, ("diagnose", "--dist"), {"n": 1},
     "distribution file is missing the 'atoms' field"),
    (distribution_from_json, ("diagnose", "--dist"), {"n": "3"},
     "distribution file is missing the 'atoms' field"),
    (distribution_from_json, ("diagnose", "--dist"), {"n": True, **ATOMS},
     "distribution field 'n' must be an integer, got True"),
    (distribution_from_json, ("diagnose", "--dist"), {"n": "3", **ATOMS},
     "distribution field 'n' must be an integer, got '3'"),
    # After the header, the shape of the paths and of each atom's lifetimes.
    (system_from_json, ("signature", "--system"), {"n": 3, "kind": "paths", "paths": [1]},
     "paths systems need a 'paths' list of lists"),
    (distribution_from_json, ("diagnose", "--dist"), {"n": 1, "atoms": [{"x": "1", "p": "1"}]},
     "atom 0: 'x' must be a list of rationals"),
]


@pytest.mark.parametrize("parse, command, obj, message", HEADER_REFUSALS)
def test_file_header_refusals(parse, command, obj, message, capsys, tmp_path):
    """A non-object, then the first missing field in order, then an ``n`` that
    is not an int, then a paths or lifetimes field of the wrong shape, in the
    library and on the command line (exit 1)."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse(obj)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert run([*command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "input", "detail": f"{path}: {message}"}


@pytest.mark.parametrize("component", [0, 4, True, 1.0, "1"])
def test_component_range_refusals(component):
    """A path component and a group member are refused by the same rule."""
    message = f"component {component!r} out of range 1..3"
    with pytest.raises(ValueError, match=f"^path {re.escape(message)}$"):
        from_path_sets(3, [[1], [2, component]])
    law = make_dist(3, [((1, 2, 3), 1)])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        group_reliability(law, [1, component], 1)
    # The time is refused before the components are read.
    with pytest.raises(ValueError, match="^time must be positive, got 0$"):
        group_reliability(law, [component], 0)


COUNT = "component count must be a positive integer, got {!r}"
MAJORITY, LAW = k_out_of_n(3, 2), make_dist(3, [((1, 2, 3), 1)])

COUNTS = {
    "LifetimeDistribution": lambda n: LifetimeDistribution(n, (((1,), 1),)),
    "QualityFunction": lambda n: QualityFunction(n, (1, 1)),
    "WeightFunction": lambda n: WeightFunction(n, (1, 1)),
    "StateDistribution": lambda n: StateDistribution(n, 1, (0, 1)),
    "from_truth_table": lambda n: from_truth_table(n, "01"),
    "k_out_of_n": lambda n: k_out_of_n(n, 1),
    "symmetric": WeightFunction.symmetric,
    "level_indices": lambda n: level_indices(n, 0),
    "from_path_sets-n": lambda n: from_path_sets(n, [[1]]),
}
# (entry point, its range and the noun of its message)
RANGES = {
    "level_indices-level": (lambda k: level_indices(3, k), 0, 3, "level"),
    "phi_level": (lambda k: phi_level(MAJORITY, k), 0, 3, "level"),
    "weighted_phi_level": (
        lambda k: weighted_phi_level(MAJORITY, WeightFunction.symmetric(3), k), 0, 3, "level"
    ),
    "order_stat_survival": (lambda k: order_stat_survival(LAW, k, 1), 1, 3, "order statistic index"),
    "k_out_of_n-k": (lambda k: k_out_of_n(3, k), 1, 3, "order statistic index"),
    "value": (MAJORITY.value, 0, 7, "state index"),
    "prob": (StateDistribution(2, 1, ("1/2", 0, 0, "1/2")).prob, 0, 3, "state index"),
    "from_path_sets": (lambda c: from_path_sets(3, [[c]]), 1, 3, "path component"),
    "group_reliability": (lambda c: group_reliability(LAW, [c], 1), 1, 3, "component"),
}
# (entry point, call, bad value, message): a bool, a float, and values below and
# above the range; a count has no upper bound, so a string and an unhashable list
# stand in for it.
INTEGER_REFUSALS = [
    (name, make, value, COUNT.format(value))
    for name, make in COUNTS.items()
    for value in (True, 1.0, 0, -1, "1", [1])
] + [
    (name, make, value, f"{noun} {value!r} out of range {low}..{high}")
    for name, (make, low, high, noun) in RANGES.items()
    for value in (True, float(low + 1), low - 1, high + 1)
] + [
    # Calls that a missing or partial check once let through or let fail deep inside.
    ("StateDistribution-one-entry", lambda n: StateDistribution(n, 1, (1,)), 0, COUNT.format(0)),
    ("StateDistribution-one-entry", lambda n: StateDistribution(n, 1, (1,)), -1, COUNT.format(-1)),
    ("k_out_of_n", COUNTS["k_out_of_n"], 2.0, COUNT.format(2.0)),
    ("phi_level", RANGES["phi_level"][0], 1.5, "level 1.5 out of range 0..3"),
    ("order_stat_survival", RANGES["order_stat_survival"][0], 1.0,
     "order statistic index 1.0 out of range 1..3"),
    ("k_out_of_n-k", RANGES["k_out_of_n-k"][0], 1.0, "order statistic index 1.0 out of range 1..3"),
    ("from_path_sets-n", COUNTS["from_path_sets-n"], 2.5, COUNT.format(2.5)),
] + [
    # A 0/1 input refuses a bool and a float in its own words, a table entry included.
    (name, make, value, message.format(value))
    for name, make, values, message in (
        ("evaluate", lambda v: evaluate(MAJORITY, [v, 1, 0]), (True, 1.0),
         "component state {!r} is not 0 or 1"),
        ("StructureFunction-call", lambda v: MAJORITY((1, 1, v)), (False, 0.0),
         "component state {!r} is not 0 or 1"),
        ("from_truth_table-entry", lambda v: from_truth_table(2, [0, 1, v, 1]),
         (1.0, 0.0, True, False),
         "table entry {!r} at index 2 is not 0 or 1"),
        ("StructureFunction-table", lambda v: StructureFunction(3, v), (False, True),
         "truth table must pack exactly 2**n binary entries"),
    )
    for value in values
]


@pytest.mark.parametrize(
    "make, value, message",
    [case[1:] for case in INTEGER_REFUSALS],
    ids=[f"{name}-{value!r}" for name, _, value, _ in INTEGER_REFUSALS],
)
def test_integer_refusals(make, value, message):
    """Every count, level and index is refused by one of the two integer rules."""
    with pytest.raises(ValueError) as exc:
        make(value)
    assert str(exc.value) == message


# (entry point, call on a two-entry table, the entries' noun in its message)
LENGTHS = {
    "WeightFunction": (COUNTS["WeightFunction"], "weights for n={}"),
    "QualityFunction": (COUNTS["QualityFunction"], "values for n={}"),
    "StateDistribution": (COUNTS["StateDistribution"], "state probabilities"),
    "from_truth_table": (COUNTS["from_truth_table"], "table entries for n={}"),
}
LENGTH_REFUSALS = [(name, n) for name in LENGTHS for n in (70, 20_000)]


@pytest.mark.parametrize(
    "name, n", LENGTH_REFUSALS, ids=[f"{name}-{n}" for name, n in LENGTH_REFUSALS]
)
def test_length_refusals(name, n):
    """Every table over the 2**n states is refused by one length rule, which tests the
    length before it builds 2**n and writes 2**n, not its digits, past n = 63."""
    make, noun = LENGTHS[name]
    with pytest.raises(ValueError) as exc:
        make(n)
    assert str(exc.value) == f"expected 2**{n} {noun.format(n)}, got 2"


@pytest.mark.parametrize("call", [class_tables, enumerate_systems, class_rank, appendix_basis])
def test_class_sizes_keep_their_messages(call):
    """Below the class minimum and above the limit the size messages stand; any
    other bad count, a bool included, gets the count rule's message."""
    needs = "basis needs" if call is appendix_basis else "systems need"
    for n in (2, -1):
        with pytest.raises(ValueError, match=f"^coherent {needs} at least 3 components, got n={n}$"):
            call(n, SystemClass.COHERENT)
    for n in (True, 3.0, "3", None):
        with pytest.raises(ValueError, match=f"^{re.escape(COUNT.format(n))}$"):
            call(n, SystemClass.COHERENT)
    with pytest.raises(EnumerationBoundError, match=" supports n <= "):
        call(13, SystemClass.COHERENT)


def test_component_count_refusals():
    phi, law = k_out_of_n(3, 2), make_dist(2, [((1, 2), 1)])
    message = "^system and distribution disagree on component count$"
    for call in (
        lambda: system_reliability(phi, law, 1),
        lambda: system_reliability(phi, law, 0),  # the count before the time
        lambda: reliability_curve(phi, law),
        lambda: probability_signature_oracle(phi, law),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    # Every part counts, not only the first two.
    with pytest.raises(ValueError, match="^system, weights, and distribution disagree"):
        repr_weighted(phi, law, WeightFunction.symmetric(3), 1)
    with pytest.raises(ValueError, match="^functions disagree on component count$"):
        rank_over_rationals([phi, phi, k_out_of_n(2, 1)])
    # The oracle refuses ties before it compares the counts.
    tied = make_dist(2, [((1, 1), 1)])
    with pytest.raises(TiesError, match="^signature oracle needs a distribution without ties$"):
        probability_signature_oracle(phi, tied)


@pytest.mark.parametrize(
    "what, call",
    [
        ("weak exchangeability", weakly_exchangeable),
        ("signature oracle", lambda d: probability_signature_oracle(MAJORITY, d)),
        ("probability-signature representation", lambda d: repr_prob_signature(MAJORITY, d, 1)),
    ],
    ids=["weak-scan", "oracle", "representation"],
)
def test_tie_refusals_name_what_needs_them(what, call):
    """One rule refuses a tied law, in the words of the quantity that needs no ties."""
    tied = make_dist(3, [((1, 1, 2), 1)])
    with pytest.raises(TiesError, match=f"^{re.escape(what)} needs a distribution without ties$"):
        call(tied)


def test_probability_signature_needs_a_relative_quality():
    """Plain weights are refused after the boundary values and before the ties."""
    plain = WeightFunction.symmetric(3)
    with pytest.raises(ValueError, match="^signature needs value 0 at the all-failed state"):
        probability_signature(from_truth_table(3, "0" * 8), plain)
    message = "^probability signature needs a relative quality, not a WeightFunction$"
    for phi in (k_out_of_n(3, 2), k_out_of_n(3, 1)):
        with pytest.raises(ValueError, match=message):
            probability_signature(phi, plain)
    tied = relative_quality(make_dist(3, [((1, 1, 2), 1)]))
    with pytest.raises(TiesError, match="^probability signature needs a quality that sums to 1"):
        probability_signature(k_out_of_n(3, 2), tied)


def test_level_sums_refuse_weights_of_another_count():
    """The level sums refuse a weight function, a quality included, of another count."""
    phi, quality = k_out_of_n(3, 2), relative_quality(make_dist(4, [((1, 2, 3, 4), 1)]))
    for call in (
        lambda: probability_signature(phi, quality),
        lambda: weighted_signature(phi, quality),
        lambda: weighted_signature(phi, WeightFunction.symmetric(4)),
        lambda: weighted_phi_level(phi, quality, 1),
    ):
        with pytest.raises(ValueError, match="^weight function and system disagree on component count$"):
            call()


@pytest.mark.parametrize("t", [None, "1"])
def test_component_count_refusal_on_the_command_line(capsys, tmp_path, t):
    system, law = tmp_path / "system.json", tmp_path / "law.json"
    system.write_text(json.dumps({"n": 3, "kind": "paths", "paths": [[1, 2], [3]]}))
    law.write_text(json.dumps({"n": 2, "atoms": [{"x": ["1", "2"], "p": "1"}]}))
    argv = ["reliability", "--system", str(system), "--dist", str(law)]
    assert run(argv + (["--t", t] if t else [])) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "precondition",
        "detail": "system and distribution disagree on component count",
    }


@pytest.mark.parametrize("call", [class_tables, enumerate_systems, class_rank, appendix_basis])
@pytest.mark.parametrize("system_class", [["coherent"], "coherent", None])
def test_unknown_class_is_refused_before_any_cache(call, system_class):
    """An unknown class, even an unhashable one, gets the one refusal."""
    message = f"unknown system class {system_class!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(3, system_class)
    assert call(3, SystemClass.COHERENT)


COLD_WARM = """
from sigrel import SystemClass, WeightFunction, class_rank, class_tables, enumerate_systems
from sigrel import level_indices

calls = {
    "level_indices": lambda n: level_indices(n, 1),
    "class_tables": lambda n: class_tables(n, SystemClass.COHERENT),
    "enumerate_systems": lambda n: enumerate_systems(n, SystemClass.COHERENT),
    "class_rank": lambda n: class_rank(n, SystemClass.COHERENT),
    "symmetric": lambda n: WeightFunction.symmetric(n),
}

def outcome(call, n):
    try:
        return repr(call(n))
    except Exception as exc:
        return type(exc).__name__

cold = {name: outcome(call, 3.0) for name, call in calls.items()}
for call in calls.values():
    call(3)
warm = {name: outcome(call, 3.0) for name, call in calls.items()}
print(repr((cold, warm)))
"""


def test_cached_answers_do_not_depend_on_earlier_calls():
    """n = 3.0 gets the same refusal whether or not n = 3 ran first: the
    caches do not share a key between equal values of different types."""
    out = subprocess.run(
        [sys.executable, "-c", COLD_WARM],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    cold, warm = ast.literal_eval(out)
    assert cold == dict.fromkeys(cold, "ValueError")
    assert warm == cold
