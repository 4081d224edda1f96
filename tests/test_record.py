"""The nine value classes are plain frozen records on one base, sigrel.record.Record.

Each keeps the semantics it had as a frozen dataclass: positional and keyword
construction with the same defaults, no assignment or deletion, equality and
hashing over the class and every field (identity for DiagnosisReport), the
``Name(field=value, ...)`` repr, and pickle and copy round trips. Importing
the command line must not load ``dataclasses`` or ``inspect``. Every
constructor error keeps its message, including which error wins when an
input breaks two rules.
"""

import copy
import os
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest

import sigrel
from sigrel import (
    DiagnosisReport,
    LifetimeDistribution,
    QualityFunction,
    ReliabilityCurve,
    Signature,
    StateDistribution,
    StructureFunction,
    TheoremCheck,
    WeightFunction,
    diagnose,
    format_rational,
    k_out_of_n,
    system_lifetime,
)
from sigrel.record import Record

from conftest import shifted_ladders_dist

REPORT_FIELDS = (
    "n",
    "breakpoints",
    "has_ties",
    "q_symmetric",
    "states_exchangeable_everywhere",
    "lifetimes_exchangeable",
    "weakly_exchangeable",
    "condition_q_everywhere",
    "boland_repr_all_systems",
    "prob_repr_all_systems",
    "both_representations",
    "witnesses",
    "skipped_orderings",
    "system_class",
    "systems_checked",
    "class_rank",
    "theorem_checks",
)


def report_args():
    report = diagnose(shifted_ladders_dist())
    return tuple(getattr(report, f) for f in REPORT_FIELDS)


# (class, constructor fields in order, a valid positional argument tuple).
CASES = [
    (StructureFunction, ("n", "table"), (3, k_out_of_n(3, 2).table)),
    (Signature, ("values",), ((F(1, 3), F(2, 3)),)),
    (WeightFunction, ("n", "values"), (1, (F(1), F(1, 2)))),
    (
        LifetimeDistribution,
        ("n", "atoms"),
        (2, (((F(1), F(2)), F(1, 2)), ((F(2), F(1)), F(1, 2)))),
    ),
    (QualityFunction, ("n", "values"), (2, (F(1), F(1, 4), F(3, 4), F(1)))),
    (StateDistribution, ("n", "t", "probs"), (1, F(1), (F(1, 2), F(1, 2)))),
    (ReliabilityCurve, ("breakpoints", "values"), ((F(1), F(2)), (F(1), F(1, 2), F(0)))),
    (TheoremCheck, ("name", "relation", "lhs", "rhs"), ("claim", "iff", True, False)),
    (DiagnosisReport, REPORT_FIELDS, None),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def arguments(args):
    return report_args() if args is None else args


def test_every_record_class_is_covered():
    classes = {cls for cls, _, _ in CASES}
    public = {getattr(sigrel, name) for name in sigrel.__all__}
    assert classes == {c for c in public if isinstance(c, type) and issubclass(c, Record)}


def test_command_line_imports_neither_dataclasses_nor_inspect():
    src = str(Path(sigrel.__file__).resolve().parents[1])
    code = "import sys, sigrel.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_positional_and_keyword_construction(cls, fields, args):
    args = arguments(args)
    positional = cls(*args)
    keyword = cls(**dict(zip(fields, args)))
    mixed = cls(args[0], **dict(zip(fields[1:], args[1:])))
    for obj in (positional, keyword, mixed):
        assert [getattr(obj, f) for f in fields] == [getattr(positional, f) for f in fields]
    if cls is not DiagnosisReport:
        assert positional == keyword == mixed


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_missing_or_unknown_argument_is_a_type_error(cls, fields, args):
    args = arguments(args)
    required = len(args) - {DiagnosisReport: 4}.get(cls, 0)
    with pytest.raises(TypeError):
        cls(*args[: required - 1])
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*args, *args)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


def test_defaults():
    args = report_args()
    report = DiagnosisReport(*args[:13])
    assert (report.system_class, report.systems_checked, report.class_rank) == (None, None, None)
    assert report.theorem_checks == ()
    # The derived flags of a structure function and a quality are not constructor arguments.
    with pytest.raises(TypeError):
        StructureFunction(3, k_out_of_n(3, 2).table, semicoherent=True)
    with pytest.raises(TypeError):
        QualityFunction(1, (1, 1), from_tied=False)
    with pytest.raises(TypeError):
        QualityFunction(1, (1, 1), True)


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, args):
    obj = cls(*arguments(args))
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert [getattr(obj, f) for f in fields] == [getattr(cls(*arguments(args)), f) for f in fields]


def test_report_mode_is_not_a_field():
    """The mode follows from the class, so no report can be given one."""
    args = dict(zip(REPORT_FIELDS, report_args()))
    assert "mode" not in DiagnosisReport._fields
    with pytest.raises(TypeError):
        DiagnosisReport(**args, mode="verified")


def test_cached_views_are_cached_and_frozen():
    d = shifted_ladders_dist()
    assert d.breakpoints is d.breakpoints
    assert d.ranked_atoms is d.ranked_atoms
    with pytest.raises(AttributeError):
        d.breakpoints = ()
    w = WeightFunction.symmetric(3)
    assert w.numerators is w.numerators


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_equality_and_hashing(cls, fields, args):
    args = arguments(args)
    a, b = cls(*args), cls(*args)
    if cls is DiagnosisReport:
        assert a != b and a == a
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2
        return
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != args and a.__eq__(args) is NotImplemented


def test_equality_reads_the_class_and_fields_not_derived_views():
    values = (F(1), F(1, 4), F(3, 4), F(1))
    # Flags derived from the table take no part; n and the table do.
    phi = k_out_of_n(3, 2)
    assert phi == StructureFunction(3, phi.table)
    assert phi != StructureFunction(3, k_out_of_n(3, 1).table)
    assert StructureFunction(2, 0b1000) != StructureFunction(3, 0b1000_0000)
    # Equal fields of different classes are not equal.
    assert WeightFunction(2, values) != QualityFunction(2, values)
    # The law's views take no part either.
    d = shifted_ladders_dist()
    fresh = LifetimeDistribution(d.n, d.atoms)
    d.ranked_atoms
    assert d == fresh and hash(d) == hash(fresh)


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_repr(cls, fields, args):
    obj = cls(*arguments(args))
    if cls is StructureFunction:
        assert repr(obj) == "StructureFunction(n=3, bits='00010111')"
        return
    body = ", ".join(f"{f}={getattr(obj, f)!r}" for f in fields)
    assert repr(obj) == f"{cls.__name__}({body})"


def test_repr_example():
    assert repr(TheoremCheck("claim", "iff", True, False)) == (
        "TheoremCheck(name='claim', relation='iff', lhs=True, rhs=False)"
    )
    assert repr(QualityFunction(1, (1, 1))) == (
        "QualityFunction(n=1, values=(Fraction(1, 1), Fraction(1, 1)))"
    )


@pytest.mark.parametrize("cls, fields, args", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, fields, args):
    obj = cls(*arguments(args))
    for clone in (
        pickle.loads(pickle.dumps(obj)),
        copy.copy(obj),
        copy.deepcopy(obj),
    ):
        assert type(clone) is cls
        assert [getattr(clone, f) for f in fields] == [getattr(obj, f) for f in fields]
        if cls is DiagnosisReport:
            assert clone.to_json() == obj.to_json()
        else:
            assert clone == obj and hash(clone) == hash(obj)
        with pytest.raises(AttributeError):
            setattr(clone, fields[0], None)
    d = pickle.loads(pickle.dumps(shifted_ladders_dist()))
    assert d.ranked_atoms == shifted_ladders_dist().ranked_atoms


# --- constructor error messages -----------------------------------------------


def law(n, *atoms):
    return lambda: LifetimeDistribution(n, atoms)


def states(*probs):
    return states_given(probs)


def states_given(probs):
    return lambda: StateDistribution(1, 1, probs)


ERRORS = [
    # ReliabilityCurve
    (lambda: ReliabilityCurve((), (1,)), "a curve needs at least one breakpoint"),
    (lambda: ReliabilityCurve((), (5,)), "a curve needs at least one breakpoint"),
    (lambda: ReliabilityCurve((0, 1), (1, 1, 0)), "breakpoints must be positive"),
    (lambda: ReliabilityCurve((2, -1), (1, 1, 0)), "breakpoints must be positive"),
    (lambda: ReliabilityCurve((2, 1), (1, F(1, 2), 0)), "breakpoints must be strictly increasing"),
    (lambda: ReliabilityCurve((1, 1), (1, 1, 0)), "breakpoints must be strictly increasing"),
    (lambda: ReliabilityCurve((2, 1), (1, 0)), "breakpoints must be strictly increasing"),
    (lambda: ReliabilityCurve((1, 2), (1, 0)), "need exactly one value per interval"),
    (lambda: ReliabilityCurve((1,), (2,)), "need exactly one value per interval"),
    (lambda: ReliabilityCurve((1,), (2, 0)), "curve values must lie in [0, 1]"),
    (lambda: ReliabilityCurve((1,), (1, F(-1, 2))), "curve values must lie in [0, 1]"),
    # QualityFunction
    (lambda: QualityFunction(0, (1,)), "component count must be a positive integer, got 0"),
    (lambda: QualityFunction(1, (1,)), "expected 2 values for n=1, got 1"),
    (lambda: QualityFunction(1, (2,)), "expected 2 values for n=1, got 1"),
    (lambda: QualityFunction(1, (0, 1)), "the empty and full subsets must have quality 1"),
    (lambda: QualityFunction(2, (0, 2, 0, 1)), "the empty and full subsets must have quality 1"),
    (lambda: QualityFunction(2, (1, 2, 0, 1)), "quality values must lie in [0, 1]"),
    (lambda: QualityFunction(2, (1, F(-1, 2), 0, 1)), "quality values must lie in [0, 1]"),
    # WeightFunction
    (lambda: WeightFunction(0, (1,)), "component count must be a positive integer, got 0"),
    (lambda: WeightFunction(0, ()), "component count must be a positive integer, got 0"),
    (lambda: WeightFunction(1, (1, 2, 3)), "expected 2 weights for n=1, got 3"),
    # Signature
    (lambda: Signature(()), "a signature needs at least one entry"),
    # StateDistribution
    (states(1), "expected 2 state probabilities, got 1"),
    (states(-1), "expected 2 state probabilities, got 1"),
    (states(F(3, 2), F(-1, 2)), "state probabilities must be nonnegative"),
    (states(-1, 0), "state probabilities must be nonnegative"),
    (states(F(1, 2), F(1, 4)), "state probabilities must sum to exactly 1"),
    # LifetimeDistribution
    (law(0, ((1,), 1)), "component count must be a positive integer, got 0"),
    (law(True, ((1,), 1)), "component count must be a positive integer, got True"),
    (law("2", ((1, 2), 1)), "component count must be a positive integer, got '2'"),
    (law(0), "component count must be a positive integer, got 0"),
    (law(2), "a distribution needs at least one atom"),
    (law(1, 5), "atom 5 is not a (lifetimes, probability) pair"),
    (law(1, ((1,), 1, 2)), "atom ((1,), 1, 2) is not a (lifetimes, probability) pair"),
    (law(2, ((1,), 1)), "atom ((1,), 1) has 1 lifetimes, expected 2"),
    (law(3, ((2, -1), 1)), "atom ((2, -1), 1) has 2 lifetimes, expected 3"),
    (law(2, ((2, -1), 1)), "lifetimes must be strictly positive"),
    (law(2, ((0, 1), 1)), "lifetimes must be strictly positive"),
    (law(2, ((2, -1), 2)), "lifetimes must be strictly positive"),
    (law(1, (("x",), 1)), "not a rational: 'x'"),
    (law(1, ((0.5,), 1)), "not a rational: 0.5"),
    (law(1, ((1,), 0)), "atom probability 0 is outside (0, 1]"),
    (law(1, ((1,), F(3, 2))), "atom probability 3/2 is outside (0, 1]"),
    (law(1, ((1,), F(-1, 2))), "atom probability -1/2 is outside (0, 1]"),
    (law(1, ((1,), 2), ((-1,), 1)), "atom probability 2 is outside (0, 1]"),
    (law(1, ((1,), F(1, 2))), "atom probabilities sum to 1/2, off by 1/2"),
    (law(1, ((1,), F(1, 2)), ((1,), F(2, 3))), "atom probabilities sum to 7/6, off by -1/6"),
    (lambda: StateDistribution(1, 0, (F(1, 2), F(1, 2))), "time must be positive, got 0"),
]

# Every record reads its rationals through parse_rational, as the law and the
# input files do, so each refuses these values with parse_rational's message.
HOSTILE = [
    (0.1, "not a rational: 0.1"),
    (True, "not a rational: True"),
    (Decimal("0.1"), "not a rational: Decimal('0.1')"),
    ("1e4301", "not a rational: '1e4301' has a decimal exponent beyond the limit of 4300"),
]
RATIONAL_FIELDS = [
    lambda v: Signature((v,)),
    lambda v: ReliabilityCurve((v,), (1, 0)),
    lambda v: ReliabilityCurve((1,), (v, 0)),
    lambda v: WeightFunction(1, (v, 1)),
    lambda v: QualityFunction(1, (1, v)),
    lambda v: StateDistribution(1, 1, (v, 1)),
    lambda v: StateDistribution(1, v, (F(1, 2), F(1, 2))),
]
ERRORS += [
    (partial(make, value), message) for value, message in HOSTILE for make in RATIONAL_FIELDS
]
# Output goes through the same rule: format_rational reads parse_rational.
ERRORS += [(partial(format_rational, value), message) for value, message in HOSTILE]

# A string would be read as its characters, "11" as the rationals 1 and 1, and bytes
# as ints; a value that is not iterable has no entries. One rule refuses both for
# every field of rationals, naming the field.
SEQUENCE = "must be a sequence of rationals, got"
ERRORS += [
    (lambda: WeightFunction(1, "11"), f"weights for n=1 {SEQUENCE} '11'"),
    (lambda: WeightFunction(1, b"11"), f"weights for n=1 {SEQUENCE} b'11'"),
    (lambda: QualityFunction(1, "11"), f"values for n=1 {SEQUENCE} '11'"),
    (states_given("01"), f"state probabilities {SEQUENCE} '01'"),
    (states_given(None), f"state probabilities {SEQUENCE} None"),
    (lambda: Signature("1"), f"signature entries {SEQUENCE} '1'"),
    (lambda: Signature(1), f"signature entries {SEQUENCE} 1"),
    (lambda: ReliabilityCurve("1", "10"), f"breakpoints {SEQUENCE} '1'"),
    (lambda: ReliabilityCurve((1,), "10"), f"curve values {SEQUENCE} '10'"),
    (law(2, ("12", 1)), f"lifetimes {SEQUENCE} '12'"),
    (law(2, (5, 1)), f"lifetimes {SEQUENCE} 5"),
    (lambda: system_lifetime(k_out_of_n(2, 1), "12"), f"lifetimes {SEQUENCE} '12'"),
    (lambda: system_lifetime(k_out_of_n(2, 1), 12), f"lifetimes {SEQUENCE} 12"),
]
# The atoms field goes through the same rule, and a relation is "iff" or "if".
PAIRS = "must be a sequence of (lifetimes, probability) pairs, got"
RELATION = "relation must be 'iff' or 'if', got"
ERRORS += [
    (lambda: LifetimeDistribution(2, 5), f"atoms {PAIRS} 5"),
    (lambda: LifetimeDistribution(1, "1"), f"atoms {PAIRS} '1'"),
    (lambda: TheoremCheck("x", "maybe", True, False), f"{RELATION} 'maybe'"),
    (lambda: TheoremCheck("x", "IFF", True, True), f"{RELATION} 'IFF'"),
]
# Each side of a claim is exactly True or False: consistency is not read by truthiness.
ERRORS += [
    (lambda: TheoremCheck(None, "if", [], "no"), "lhs must be a bool, got []"),
    (lambda: TheoremCheck("x", "iff", 1, True), "lhs must be a bool, got 1"),
    (lambda: TheoremCheck("x", "iff", True, "no"), "rhs must be a bool, got 'no'"),
    (lambda: TheoremCheck("x", "if", False, None), "rhs must be a bool, got None"),
    (lambda: TheoremCheck("x", "if", False, 0), "rhs must be a bool, got 0"),
]
# The name is a string too, and a report names a SystemClass or none: a class given by
# its value would report the "verified" mode and fail in to_json.
ERRORS += [
    (lambda: TheoremCheck(None, "iff", True, True), "name must be a str, got None"),
    (lambda: TheoremCheck(1, "if", False, True), "name must be a str, got 1"),
    (lambda: DiagnosisReport(*report_args()[:13], "coherent"), "unknown system class 'coherent'"),
    (lambda: DiagnosisReport(*report_args()[:13], 3), "unknown system class 3"),
]


@pytest.mark.parametrize("make, message", ERRORS, ids=range(len(ERRORS)))
def test_constructor_error_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_records_accept_fractions_ints_and_rational_strings():
    assert Signature(("1/3", 0, F(2, 3))).values == (F(1, 3), F(0), F(2, 3))
    curve = ReliabilityCurve(("1", "5/2"), (1, "1/2", "0"))
    assert curve == ReliabilityCurve((1, F(5, 2)), (1, F(1, 2), 0))
    assert WeightFunction(1, ("1/2", "1.5e0")).values == (F(1, 2), F(3, 2))
    assert QualityFunction(1, ("1", 1)).values == (F(1), F(1))
    states = StateDistribution(1, "1/2", ("1/2", "0.5"))
    assert states == StateDistribution(1, F(1, 2), (F(1, 2), F(1, 2)))
