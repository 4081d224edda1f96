"""The state-support witness paths against the dense Fraction code they replaced.

``state_exchangeability_by_table`` and ``condition_w_by_table`` are the
earlier library functions, kept here as oracles: each reads a dense 2**n
table of Fraction state probabilities filled atom by atom, where the library
compares ints over the law's common denominator on the sparse support. The
witnesses must be equal, values and formatting included. The last tests pin
how many supports each command builds: diagnose one per breakpoint up to
where it has both state witnesses and none past it, verify exactly one per
breakpoint, which its condition walk and its representation scan share.
"""

import random
from fractions import Fraction

import pytest

from sigrel import (
    SystemClass,
    TiesError,
    WeightFunction,
    breakpoints,
    condition_w,
    diagnose,
    format_rational,
    has_ties,
    is_q_symmetric,
    lifetimes_exchangeable,
    parse_rational,
    relative_quality,
    states_exchangeable_at,
    states_exchangeable_everywhere,
    verify_theorems,
    weakly_exchangeable,
)
from sigrel import distribution, reliability
from sigrel.distribution import (
    _condition_w_witness,
    _state_exchangeability_at,
    evaluate_conditions,
    state_support,
)
from sigrel.structure import level_indices

from conftest import exchangeable_mixture, make_dist, random_no_ties
from test_integer_scan import coprime_law
from test_sweeps import perturbed_corpus, perturbed_exchangeable, states_by_atoms, tied_laws  # noqa: F401

# --- oracles: the dense Fraction tables -------------------------------------


def state_exchangeability_by_table(d, t):
    probs = states_by_atoms(d, t)
    for k in range(d.n + 1):
        idxs = level_indices(d.n, k)
        first = probs[idxs[0]]
        for other in idxs[1:]:
            if probs[other] != first:
                return idxs[0], other, first, probs[other]
    return None


def condition_w_by_table(d, w, t):
    probs = states_by_atoms(d, t)
    totals = [sum((probs[i] for i in level_indices(d.n, k)), Fraction(0)) for k in range(d.n + 1)]
    for x in range(1, 1 << d.n):
        expected = w.values[x] * totals[x.bit_count()]
        if probs[x] != expected:
            return x, probs[x], expected
    return None


def state_vector(n, index):
    return [(index >> i) & 1 for i in range(n)]


def state_witness_dict(n, wit):
    """An oracle's state-exchangeability tuple in the report's format, time left out."""
    if wit is None:
        return None
    x, other, p, p_other = wit
    return {
        "state": state_vector(n, x),
        "other_state": state_vector(n, other),
        "probability": format_rational(p),
        "other_probability": format_rational(p_other),
    }


def condition_w_witness_dict(n, wit):
    """An oracle's condition-w tuple in the report's format, time left out."""
    if wit is None:
        return None
    x, p, expected = wit
    return {
        "state": state_vector(n, x),
        "probability": format_rational(p),
        "expected": format_rational(expected),
    }


def condition_witnesses_by_tables(d):
    """The states_exchangeable and condition_q witness dicts, first breakpoint first."""
    out = {}
    w = WeightFunction.from_quality(relative_quality(d))
    for t in breakpoints(d):
        wit = state_exchangeability_by_table(d, t)
        if wit is not None and "states_exchangeable" not in out:
            out["states_exchangeable"] = {"t": format_rational(t), **state_witness_dict(d.n, wit)}
        wit = condition_w_by_table(d, w, t)
        if wit is not None and "condition_q" not in out:
            out["condition_q"] = {"t": format_rational(t), **condition_w_witness_dict(d.n, wit)}
    return out


# --- corpora ----------------------------------------------------------------


def wide_laws():
    """Laws at n = 2 and 5-6, and reciprocal-prime laws, whose D is large."""
    rng = random.Random(6262)
    laws = [random_no_ties(rng, 2, 1, 6) for _ in range(6)]
    laws += [exchangeable_mixture(rng, 2) for _ in range(3)]
    laws += [coprime_law(rng, n, rng.randint(2, 6)) for n in (2, 3, 4, 5, 6) for _ in range(4)]
    laws += [random_no_ties(rng, n) for n in (5, 6) for _ in range(4)]
    laws += [perturbed_exchangeable(rng, 5) for _ in range(2)]
    laws += [exchangeable_mixture(rng, n) for n in (5, 6)]
    return laws


@pytest.fixture(scope="module")
def support_laws(theorem_corpus, perturbed_corpus):
    return [d for _, d in theorem_corpus] + perturbed_corpus + tied_laws() + wide_laws()


def sample_times(d):
    """Below, at, between and past the breakpoints."""
    bps = breakpoints(d)
    between = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    return [bps[0] / 2, *bps, *between[:3], bps[-1] + 1]


def random_weights(rng, n):
    """Arbitrary rational weights, negative and zero ones included."""
    values = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(1 << n)]
    return WeightFunction(n, tuple(values))


# --- comparisons ------------------------------------------------------------


def test_condition_witnesses_match_dense_tables(support_laws):
    found = {"states_exchangeable": 0, "condition_q": 0}
    for d in support_laws:
        _, fields = evaluate_conditions(d, [state_support(d, t) for t in breakpoints(d)])
        witnesses = fields["witnesses"]
        want = condition_witnesses_by_tables(d)
        for key in found:
            assert witnesses.get(key) == want.get(key), (d, key)
            found[key] += key in want
        assert fields["states_exchangeable_everywhere"] == ("states_exchangeable" not in want)
        assert fields["condition_q_everywhere"] == ("condition_q" not in want)
    # The corpus has laws with and without each witness.
    assert all(0 < count < len(support_laws) for count in found.values()), found
    assert max(d.denominator for d in support_laws) >= 3 * 5 * 7 * 11 * 13
    assert {d.n for d in support_laws} == {2, 3, 4, 5, 6}


def test_states_exchangeable_at_any_time(support_laws):
    for d in support_laws:
        for t in sample_times(d):
            want = state_witness_dict(d.n, state_exchangeability_by_table(d, t))
            assert _state_exchangeability_at(d, state_support(d, t)) == want
            assert states_exchangeable_at(d, t) == (want is None)


def test_condition_w_with_arbitrary_weights(support_laws):
    rng = random.Random(3131)
    outcomes = []
    for d in support_laws:
        weights = [random_weights(rng, d.n), WeightFunction.symmetric(d.n)]
        weights.append(WeightFunction.from_quality(relative_quality(d)))
        for w in weights:
            for t in sample_times(d):
                want = condition_w_witness_dict(d.n, condition_w_by_table(d, w, t))
                assert _condition_w_witness(d, w, state_support(d, t)) == want, (d, w, t)
                assert condition_w(d, w, t) == (want is None)
                outcomes.append(want is None)
    assert any(outcomes) and not all(outcomes)


def test_public_predicates_agree_with_the_report(support_laws):
    outcomes = set()
    for d in support_laws:
        report = diagnose(d)
        quality = relative_quality(d)
        w = WeightFunction.from_quality(quality)
        got = {
            "q_symmetric": is_q_symmetric(quality),
            "states_exchangeable_everywhere": states_exchangeable_everywhere(d),
            "lifetimes_exchangeable": lifetimes_exchangeable(d),
            "condition_q_everywhere": all(condition_w(d, w, t) for t in breakpoints(d)),
        }
        if has_ties(d):
            with pytest.raises(TiesError):
                weakly_exchangeable(d)
            got["weakly_exchangeable"] = None
        else:
            got["weakly_exchangeable"] = weakly_exchangeable(d)
        assert got == {flag: getattr(report, flag) for flag in got}, d
        outcomes.update(got.items())
    # Every flag is seen both holding and failing, and None on tied laws.
    assert len(outcomes) == 2 * len(got) + 1, outcomes


# The order in which a report lists its witnesses.
WITNESS_ORDER = (
    "q_symmetric",
    "states_exchangeable",
    "lifetimes_exchangeable",
    "weakly_exchangeable",
    "condition_q",
    "boland_repr",
    "prob_repr",
    "signature_agreement",
)


def test_witnesses_are_listed_in_report_order(support_laws):
    seen = set()
    for d in support_laws:
        reports = [diagnose(d)]
        if d.n <= 4:
            reports.append(verify_theorems(d.n, d, SystemClass.SEMICOHERENT))
        for report in reports:
            keys = list(report.witnesses)
            assert keys == [key for key in WITNESS_ORDER if key in keys], d
            seen.update(zip(keys, keys[1:]))
    # Each neighbouring pair of keys occurs side by side in some report.
    assert set(zip(WITNESS_ORDER, WITNESS_ORDER[1:])) <= seen, seen


# --- one support per breakpoint ---------------------------------------------


@pytest.fixture()
def support_calls(monkeypatch):
    calls = []
    real = distribution.state_support

    def counting(d, t):
        calls.append(t)
        return real(d, t)

    monkeypatch.setattr(distribution, "state_support", counting)
    monkeypatch.setattr(reliability, "state_support", counting)
    return calls


def fresh_laws():
    """Each law is built anew, so none has its cached views built yet."""
    rng = random.Random(9191)
    return [
        random_no_ties(rng, 3),
        random_no_ties(rng, 5, 12, 12),
        exchangeable_mixture(rng, 4),
        perturbed_exchangeable(rng, 4),
        make_dist(3, [((1, 1, 2), Fraction(1, 2)), ((2, 3, 3), Fraction(1, 2))]),
    ]


def walk_length(d, witnesses):
    """Breakpoints up to the one where both state conditions have their witness."""
    bps = list(breakpoints(d))
    keys = ("states_exchangeable", "condition_q")
    if not all(key in witnesses for key in keys):
        return len(bps)
    return 1 + max(bps.index(parse_rational(witnesses[key]["t"])) for key in keys)


def test_diagnose_builds_supports_only_up_to_its_witnesses(support_calls):
    walked = []
    for d in fresh_laws():
        support_calls.clear()
        report = diagnose(d)
        bps = list(breakpoints(d))
        # At most one support per breakpoint, in order, and none past the witnesses.
        assert support_calls == bps[: walk_length(d, report.witnesses)]
        walked.append(len(support_calls) == len(bps))
        if report.states_exchangeable_everywhere or report.condition_q_everywhere:
            assert walked[-1]
        # Supports are not cached: a second diagnose builds the same prefix again.
        support_calls.clear()
        diagnose(d)
        assert support_calls == bps[: walk_length(d, report.witnesses)]
    # The generic laws stop early; the exchangeable one walks every breakpoint.
    assert any(walked) and not all(walked)


def test_verify_builds_one_support_per_breakpoint(support_calls):
    for d in fresh_laws():
        support_calls.clear()
        report = verify_theorems(d.n, d, SystemClass.SEMICOHERENT)
        bps = list(breakpoints(d))
        # One list, shared by the condition walk and the representation scan.
        assert support_calls == bps


def test_cached_views_leave_equality_and_hash_alone():
    rows = [((1, 2, 3), Fraction(1, 3)), ((3, 2, 1), Fraction(2, 3))]
    a, b = make_dist(3, rows), make_dist(3, rows)
    # Probabilities as ints over D = 3; component i alive sets bit i - 1.
    supports = tuple(state_support(a, t) for t in a.breakpoints)
    assert supports == (((0b011, 2), (0b110, 1)), ((0b001, 2), (0b100, 1)), ((0, 3),))
    assert a.denominator == 3
    assert a.breakpoints == (1, 2, 3)
    # Lifetime ranks among the breakpoints, and the probabilities over D.
    assert a.ranked_atoms == (((0, 1, 2), 1), ((2, 1, 0), 2))
    assert a.cdfs == ((3, 3, 3), (0, 3, 3), (0, 0, 3))
    assert a == b and hash(a) == hash(b)
