"""The state-support witness paths against the dense Fraction code they replaced.

``state_exchangeability_by_table`` and ``condition_w_by_table`` are the
earlier library functions, kept here as oracles: each reads a dense 2**n
table of Fraction state probabilities filled atom by atom, where the library
compares ints over the law's common denominator on the sparse support. The
witnesses must be equal, values and formatting included.
``state_exchangeability_by_levels`` is the earlier support walk, which lists
every supported level in full; the library reads only the supported states
and the states that follow them. The last tests pin how many supports each
command builds: diagnose one per breakpoint up to where it has both state
witnesses and none past it, verify exactly one per breakpoint, which its
condition walk and its representation scan share.
"""

import math
import random
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest

from sigrel import (
    SystemClass,
    TiesError,
    WeightFunction,
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
from test_int_ranks import quality_by_atoms
from test_integer_scan import coprime_law
from test_sweeps import (  # noqa: F401
    perturbed_corpus, perturbed_exchangeable, states_by_atoms, tied_laws, weak_scan_by_permutation,
    weak_witness_dict,
)

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
    w = relative_quality(d)
    for t in d.breakpoints:
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
    bps = d.breakpoints
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
        _, fields = evaluate_conditions(d, [state_support(d, t) for t in d.breakpoints])
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


def state_exchangeability_by_levels(d, support):
    """The earlier library walk: each supported level listed in full, index by index."""
    probs = dict(support)
    for k in sorted({index.bit_count() for index in probs}):
        first, *others = level_indices(d.n, k)
        p = probs.get(first, 0)
        for other in others:
            q = probs.get(other, 0)
            if q != p:
                return first, other, Fraction(p, d.denominator), Fraction(q, d.denominator)
    return None


def random_support(rng, n):
    """A support and the law's n and D, which are all the walk reads of the law: a
    few states of mass 1 or 2, or one level of equal masses, full or short of one
    state."""
    if rng.random() < 0.5:
        states = rng.sample(range(1 << n), rng.randint(1, min(1 << n, 12)))
        masses = [rng.choice((1, 1, 1, 2)) for _ in states]
    else:
        states = list(level_indices(n, rng.randint(0, n)))
        if len(states) > 1 and rng.random() < 0.5:
            states.remove(rng.choice(states))
        masses = [1] * len(states)
    return SimpleNamespace(n=n, denominator=sum(masses)), dict(zip(states, masses))


def test_state_walk_matches_the_level_listing():
    rng = random.Random(4242)
    found = 0
    for _ in range(10_000):
        d, support = random_support(rng, rng.randint(1, 8))
        want = state_exchangeability_by_levels(d, support)
        assert _state_exchangeability_at(d, support) == state_witness_dict(d.n, want), support
        found += want is not None
    # Both outcomes are common.
    assert 2_000 < found < 8_000, found


def test_state_exchangeability_lists_no_level(monkeypatch):
    """At n = 40 a one-atom law puts its state at t = 1 on level 20, which has
    C(40, 20) states; both predicates read only the support."""
    listing = distribution.level_indices

    def small_levels_only(n, k):
        assert math.comb(n, k) <= 10**4, f"level {k} of {n} listed in full"
        return listing(n, k)

    monkeypatch.setattr(distribution, "level_indices", small_levels_only)
    split = make_dist(40, [([1] * 20 + [2] * 20, 1)])
    assert not states_exchangeable_at(split, 1)
    assert not states_exchangeable_everywhere(split)
    assert _state_exchangeability_at(split, state_support(split, 1)) == {
        "state": [1] * 20 + [0] * 20,
        "other_state": [0] * 20 + [1] * 20,
        "probability": "0/1",
        "other_probability": "1/1",
    }
    comonotone = make_dist(40, [([3] * 40, 1)])
    assert states_exchangeable_at(comonotone, 1)
    assert states_exchangeable_everywhere(comonotone)


def test_condition_w_with_arbitrary_weights(support_laws):
    rng = random.Random(3131)
    outcomes = []
    for d in support_laws:
        weights = [random_weights(rng, d.n), WeightFunction.symmetric(d.n)]
        weights.append(relative_quality(d))
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
        got = {
            "q_symmetric": is_q_symmetric(quality),
            "states_exchangeable_everywhere": states_exchangeable_everywhere(d),
            "lifetimes_exchangeable": lifetimes_exchangeable(d),
            "condition_q_everywhere": all(condition_w(d, quality, t) for t in d.breakpoints),
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
            reports.append(verify_theorems(d, SystemClass.SEMICOHERENT))
        for report in reports:
            keys = list(report.witnesses)
            assert keys == [key for key in WITNESS_ORDER if key in keys], d
            seen.update(zip(keys, keys[1:]))
    # Each neighbouring pair of keys occurs side by side in some report.
    assert set(zip(WITNESS_ORDER, WITNESS_ORDER[1:])) <= seen, seen


# --- laws whose first witness lies past a partial scan ------------------------


def moved_pair_mixture(h, tail=0):
    """Two exchangeable blocks on components 1..h, lifetimes 1..h at weight 1 and 2, 4, ..., 2h
    at weight 2, every ordering of each, with half an atom's mass of the first block moved from
    (2, 1, 3, ..., h) to (1, 2, ..., h). Components h + 1..h + tail fail after all of them.

    The move changes only the quality and the state probabilities of the two sets that keep
    every component but 1 or 2, so each first witness is one of them: past 2**6 at h = 7."""
    total = 3 * math.factorial(h)
    rest = tuple(range(2 * h + 1, 2 * h + 1 + tail))
    rows = {}
    for order in permutations(range(1, h + 1)):
        rows[order + rest] = Fraction(1, total)
        rows[tuple(2 * v for v in order) + rest] = Fraction(2, total)
    moved = Fraction(1, 2 * total)
    rows[(*range(1, h + 1), *rest)] += moved
    rows[(2, 1, *range(3, h + 1), *rest)] -= moved
    return make_dist(h + tail, rows.items())


def first_state_witnesses_by_tables(d):
    """:func:`condition_witnesses_by_tables` read at the first breakpoint alone."""
    t = d.breakpoints[0]
    states = state_exchangeability_by_table(d, t)
    condition = condition_w_by_table(d, relative_quality(d), t)
    return {
        "states_exchangeable": {"t": format_rational(t), **state_witness_dict(d.n, states)},
        "condition_q": {"t": format_rational(t), **condition_w_witness_dict(d.n, condition)},
    }


def index_of(state):
    return sum(bit << i for i, bit in enumerate(state))


def test_q_symmetry_and_condition_q_witnesses_past_the_first_64_states():
    d = moved_pair_mixture(7)
    witnesses = diagnose(d).witnesses
    quality, symmetric = quality_by_atoms(d).values, WeightFunction.symmetric(7).values
    mask = next(x for x in range(1 << 7) if quality[x] != symmetric[x])
    assert witnesses["q_symmetric"] == {
        "subset": [i + 1 for i in range(7) if mask >> i & 1],
        "value": format_rational(quality[mask]),
        "symmetric_value": format_rational(symmetric[mask]),
    }
    want = first_state_witnesses_by_tables(d)
    assert {key: witnesses[key] for key in want} == want
    assert mask == index_of(want["condition_q"]["state"]) == 0b1111101


@pytest.mark.parametrize("tail", [2, 3])
def test_condition_q_witness_past_the_first_64_states(tail):
    """With components 7..n outliving the rest, every state below 2**6 has probability and
    quality 0, so condition (Q) first fails past them."""
    d = moved_pair_mixture(6, tail)
    want = first_state_witnesses_by_tables(d)
    assert {key: diagnose(d).witnesses[key] for key in want} == want
    assert index_of(want["condition_q"]["state"]) == (1 << 6 + tail) - 1 - 0b10


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_weak_witness_at_the_last_order_statistic(n):
    """Components fail in the order 1..n or n..1, on the lifetimes 1..n or 1..n - 1, n + 1,
    a quarter each, with a sixteenth moved between the two lifetime vectors of the first
    order: only the last order statistic depends on the order."""
    low, high = tuple(range(1, n + 1)), (*range(1, n), n + 1)
    quarter, moved = Fraction(1, 4), Fraction(1, 16)
    d = make_dist(n, [(low, quarter + moved), (high, quarter - moved), (low[::-1], quarter),
                      (high[::-1], quarter)])
    report = diagnose(d)
    _, witness, skipped = weak_scan_by_permutation(d)
    assert report.witnesses["weakly_exchangeable"] == weak_witness_dict(witness)
    assert report.skipped_orderings == skipped == ()
    assert witness[:2] == (low, n)


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
    bps = list(d.breakpoints)
    keys = ("states_exchangeable", "condition_q")
    if not all(key in witnesses for key in keys):
        return len(bps)
    return 1 + max(bps.index(parse_rational(witnesses[key]["t"])) for key in keys)


def test_diagnose_builds_supports_only_up_to_its_witnesses(support_calls):
    walked = []
    for d in fresh_laws():
        support_calls.clear()
        report = diagnose(d)
        bps = list(d.breakpoints)
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
    walked = []
    for d in fresh_laws():
        support_calls.clear()
        report = verify_theorems(d, SystemClass.SEMICOHERENT)
        bps = list(d.breakpoints)
        # One stream, shared by the condition walk and the representation scans: at most
        # one support per breakpoint, in order, and at least the condition walk's.
        assert support_calls == bps[: len(support_calls)]
        assert len(support_calls) >= walk_length(d, report.witnesses)
        walked.append(len(support_calls) == len(bps))
    # The exchangeable law walks every breakpoint; a generic law stops before the last.
    assert walked[2] and not all(walked)


def test_cached_views_leave_equality_and_hash_alone():
    rows = [((1, 2, 3), Fraction(1, 3)), ((3, 2, 1), Fraction(2, 3))]
    a, b = make_dist(3, rows), make_dist(3, rows)
    # Probabilities as ints over D = 3; component i alive sets bit i - 1.
    supports = tuple(state_support(a, t) for t in a.breakpoints)
    assert supports == ({0b011: 2, 0b110: 1}, {0b001: 2, 0b100: 1}, {0: 3})
    assert a.denominator == 3
    assert a.breakpoints == (1, 2, 3)
    # Lifetime ranks among the breakpoints, and the probabilities over D.
    assert a.ranked_atoms == (((0, 1, 2), 1), ((2, 1, 0), 2))
    assert a.cdfs == ((3, 3, 3), (0, 3, 3), (0, 0, 3))
    assert a == b and hash(a) == hash(b)
