"""Lifetime distributions, state laws, quality, exchangeability notions."""

import random
import time
from fractions import Fraction

import pytest

from sigrel import (
    TiesError,
    WeightFunction,
    condition_w,
    distribution_from_json,
    distribution_to_json,
    format_rational,
    group_reliability,
    has_ties,
    is_q_symmetric,
    lifetimes_exchangeable,
    order_stat_survival,
    relative_quality,
    state_distribution,
    states_exchangeable_at,
    states_exchangeable_everywhere,
    weakly_exchangeable,
)
from sigrel import distribution, rationals
from sigrel.distribution import _weak_exchangeability_scan, evaluate_conditions, state_support

from conftest import (
    exchangeable_mixture,
    make_dist,
    orbit_dist,
    ordering_set_laws,
    random_no_ties,
    tied_law,
)
from test_sweeps import tied_laws

F = Fraction


class TestConstruction:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="off by"):
            make_dist(2, [((1, 2), F(1, 2))])

    def test_lifetimes_must_be_positive(self):
        with pytest.raises(ValueError):
            make_dist(2, [((0, 2), 1)])
        with pytest.raises(ValueError):
            make_dist(2, [((-1, 2), 1)])

    def test_zero_probability_atoms_rejected(self):
        with pytest.raises(ValueError):
            make_dist(2, [((1, 2), 0), ((2, 1), 1)])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            make_dist(3, [((1, 2), 1)])

    def test_duplicate_vectors_merge(self):
        d = make_dist(2, [((1, 2), F(1, 2)), ((1, 2), F(1, 4)), ((2, 3), F(1, 4))])
        assert len(d.atoms) == 2
        assert dict(d.atoms)[(1, 2)] == F(3, 4)

    def test_canonical_equality(self):
        a = make_dist(2, [((1, 2), F(1, 2)), ((2, 1), F(1, 2))])
        b = make_dist(2, [((2, 1), F(1, 2)), ((1, 2), F(1, 4)), ((1, 2), F(1, 4))])
        assert a == b


class TestTiesAndBreakpoints:
    def test_has_ties(self, staggered_pairs, shifted_ladders):
        assert not has_ties(staggered_pairs)
        assert not has_ties(shifted_ladders)
        assert has_ties(make_dist(3, [((1, 1, 2), 1)]))

    def test_breakpoints(self, staggered_pairs, shifted_ladders):
        assert staggered_pairs.breakpoints == (1, 2, 3, 4)
        assert shifted_ladders.breakpoints == (1, 2, 3, 4, 5)
        assert make_dist(3, [((5, 5, 5), 1)]).breakpoints == (5,)


class TestStateDistribution:
    def test_staggered_pairs_at_two(self, staggered_pairs):
        sd = state_distribution(staggered_pairs, 2)
        assert sd.probs == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_point_mass_below_first_breakpoint(self, shifted_ladders):
        sd = state_distribution(shifted_ladders, F(1, 2))
        assert sd.prob(0b111) == 1

    def test_point_mass_at_and_after_last_breakpoint(self, shifted_ladders):
        assert state_distribution(shifted_ladders, 5).prob(0) == 1
        assert state_distribution(shifted_ladders, 100).prob(0) == 1

    def test_time_must_be_positive(self, staggered_pairs):
        with pytest.raises(ValueError):
            state_distribution(staggered_pairs, 0)

    def test_constant_between_breakpoints(self, theorem_corpus):
        for _, d in theorem_corpus[:20]:
            bps = d.breakpoints
            for left, right in zip(bps, bps[1:]):
                mid = (left + right) / 2
                assert state_distribution(d, mid).probs == state_distribution(d, left).probs

    def test_level_totals_sum_to_one(self, shifted_ladders):
        sd = state_distribution(shifted_ladders, 3)
        assert sum(sd.level_total(k) for k in range(4)) == 1


class TestStateExchangeability:
    def test_staggered_pairs_everywhere(self, staggered_pairs):
        for t in (F(1, 2), 1, 2, F(5, 2), 3, F(7, 2), 4, 10):
            assert states_exchangeable_at(staggered_pairs, t)
        assert states_exchangeable_everywhere(staggered_pairs)

    def test_ladders_at_three(self, shifted_ladders):
        sd = state_distribution(shifted_ladders, 3)
        for mask in (0b001, 0b010, 0b100):
            assert sd.prob(mask) == F(1, 8)
        assert states_exchangeable_at(shifted_ladders, 3)
        assert states_exchangeable_everywhere(shifted_ladders)

    def test_single_atom_fails(self):
        d = make_dist(3, [((1, 2, 3), 1)])
        assert not states_exchangeable_at(d, F(3, 2))

    def test_orbit_family(self):
        uniform = orbit_dist([F(1, 6)] * 6)
        lopsided = orbit_dist([F(1, 2), 0, 0, F(1, 2), 0, 0])
        assert states_exchangeable_everywhere(uniform)
        assert not states_exchangeable_everywhere(lopsided)
        assert not states_exchangeable_at(lopsided, 1)


class TestLifetimeExchangeability:
    def test_staggered_pairs(self, staggered_pairs):
        assert not lifetimes_exchangeable(staggered_pairs)

    def test_uniform_orbit(self):
        assert lifetimes_exchangeable(orbit_dist([F(1, 6)] * 6))

    def test_single_atom(self):
        assert not lifetimes_exchangeable(make_dist(3, [((1, 2, 3), 1)]))

    def test_implies_state_exchangeability(self):
        rng = random.Random(611)
        for _ in range(15):
            d = exchangeable_mixture(rng, 3)
            assert lifetimes_exchangeable(d)
            assert states_exchangeable_everywhere(d)
        # the converse fails: staggered pairs are state- but not lifetime-exchangeable


class TestRelativeQuality:
    def test_staggered_pairs(self, staggered_pairs):
        q = relative_quality(staggered_pairs)
        assert q.values[0b01] == F(1, 2)
        assert q.values[0b10] == F(1, 2)
        assert q.values[0] == 1
        assert q.values[0b11] == 1

    def test_ladders(self, shifted_ladders):
        q = relative_quality(shifted_ladders)
        assert q.values[0b001] == F(3, 8)  # {1}
        assert q.values[0b010] == F(3, 8)  # {2}
        assert q.values[0b100] == F(2, 8)  # {3}
        assert q.values[0b011] == F(3, 8)  # {1,2}
        assert q.values[0b101] == F(3, 8)  # {1,3}
        assert q.values[0b110] == F(2, 8)  # {2,3}

    def test_single_atom_chain(self):
        q = relative_quality(make_dist(3, [((1, 2, 3), 1)]))
        for mask in range(8):
            expected = 1 if mask in (0, 0b100, 0b110, 0b111) else 0
            assert q.values[mask] == expected

    def test_level_sums_are_one_without_ties(self):
        rng = random.Random(721)
        for n in (2, 3, 4):
            for _ in range(8):
                q = relative_quality(random_no_ties(rng, n))
                for k in range(1, n + 1):
                    level = [m for m in range(1 << n) if m.bit_count() == k]
                    assert sum(q.values[m] for m in level) == 1

    def test_tied_input_is_marked(self):
        q = relative_quality(make_dist(2, [((1, 1), 1)]))
        assert q.from_tied

    def test_tie_flag_is_read_from_the_level_sums(self):
        """Each level of a law's quality sums to at most 1, and to 1 on every level iff
        the law has no ties: a tied atom's chain skips a level. ``from_tied`` is that
        fact, so it equals :func:`has_ties` on every law."""
        rng = random.Random(4431)
        tied = [tied_law(rng, n) for n in range(2, 9) for _ in range(6)]
        free = [random_no_ties(rng, n) for n in range(4, 10) for _ in range(4)]
        assert {d.n for d in tied if has_ties(d)} == set(range(2, 9))
        for d in ordering_set_laws() + tied + free:
            q = relative_quality(d)
            sums = [F(0)] * (d.n + 1)
            for mask, value in enumerate(q.values):
                sums[mask.bit_count()] += value
            assert max(sums) == 1
            assert q.from_tied == has_ties(d) == (min(sums) < 1), d


class TestQSymmetry:
    def test_ladders_not_symmetric(self, shifted_ladders):
        assert not is_q_symmetric(relative_quality(shifted_ladders))

    def test_staggered_pairs_symmetric(self, staggered_pairs):
        assert is_q_symmetric(relative_quality(staggered_pairs))

    def test_exchangeable_inputs_symmetric(self):
        rng = random.Random(833)
        for _ in range(15):
            d = exchangeable_mixture(rng, 3)
            assert is_q_symmetric(relative_quality(d))


class TestOrderStatSurvival:
    def test_staggered_pairs_min(self, staggered_pairs):
        assert order_stat_survival(staggered_pairs, 1, 2) == F(1, 4)

    def test_top_statistic_below_min(self, shifted_ladders):
        assert order_stat_survival(shifted_ladders, 3, F(1, 2)) == 1

    def test_k_out_of_range(self, staggered_pairs):
        with pytest.raises(ValueError):
            order_stat_survival(staggered_pairs, 0, 1)
        with pytest.raises(ValueError):
            order_stat_survival(staggered_pairs, 3, 1)

    def test_monotone_in_k(self, shifted_ladders):
        for t in shifted_ladders.breakpoints:
            values = [order_stat_survival(shifted_ladders, k, t) for k in (1, 2, 3)]
            assert values == sorted(values)


def group_reliability_by_lifetimes(d, components, t):
    """Oracle: the atoms in which every lifetime of the group exceeds t, on Fractions."""
    t = Fraction(t)
    group = [comp - 1 for comp in components]
    return sum((p for xs, p in d.atoms if all(xs[i] > t for i in group)), Fraction(0))


class TestGroupReliability:
    def test_matches_lifetime_oracle(self, theorem_corpus):
        laws = [d for _, d in theorem_corpus] + tied_laws()
        assert any(has_ties(d) for d in laws)
        for d in laws:
            bps = d.breakpoints
            # at, between and before the breakpoints
            times = [*bps, *((a + b) / 2 for a, b in zip(bps, bps[1:])), bps[0] / 2]
            for mask in range(1 << d.n):
                group = [i + 1 for i in range(d.n) if mask >> i & 1]
                for t in times:
                    assert group_reliability(d, group, t) == group_reliability_by_lifetimes(
                        d, group, t
                    )

    def test_empty_group(self, staggered_pairs):
        assert group_reliability(staggered_pairs, [], 2) == 1

    def test_single_component(self, staggered_pairs):
        assert group_reliability(staggered_pairs, [1], 2) == F(1, 2)

    def test_component_validation(self, staggered_pairs):
        with pytest.raises(ValueError):
            group_reliability(staggered_pairs, [0], 2)
        with pytest.raises(ValueError):
            group_reliability(staggered_pairs, [3], 2)

    def test_moebius_inversion(self, shifted_ladders, staggered_pairs):
        # state probabilities recovered from group reliabilities
        for d in (shifted_ladders, staggered_pairs):
            n = d.n
            full = (1 << n) - 1
            for t in d.breakpoints:
                sd = state_distribution(d, t)
                for a in range(1 << n):
                    total = Fraction(0)
                    for b in range(1 << n):
                        if (b & a) == a:
                            members = [i + 1 for i in range(n) if (b >> i) & 1]
                            sign = (-1) ** (b.bit_count() - a.bit_count())
                            total += sign * group_reliability(d, members, t)
                    assert total == sd.prob(a)

    def test_level_dependence_iff_state_exchangeability(self, theorem_corpus):
        # a group's survival depends only on its size iff states are exchangeable
        for _, d in theorem_corpus[95:115]:
            n = d.n
            for t in d.breakpoints:
                by_size = {}
                uniform = True
                for mask in range(1 << n):
                    members = [i + 1 for i in range(n) if (mask >> i) & 1]
                    value = group_reliability(d, members, t)
                    size = mask.bit_count()
                    if by_size.setdefault(size, value) != value:
                        uniform = False
                assert uniform == states_exchangeable_at(d, t)


class TestWeakExchangeability:
    def test_staggered_pairs(self, staggered_pairs):
        assert not weakly_exchangeable(staggered_pairs)

    def test_exchangeable_inputs(self):
        rng = random.Random(947)
        for _ in range(10):
            assert weakly_exchangeable(exchangeable_mixture(rng, 3))

    def test_single_atom_skips_impossible_orderings(self):
        d = make_dist(2, [((1, 2), 1)])
        witness, skipped = _weak_exchangeability_scan(d)
        assert witness is None
        assert tuple(skipped) == ((2, 1),)

    def test_ties_refused(self):
        with pytest.raises(TiesError):
            weakly_exchangeable(make_dist(2, [((1, 1), 1)]))

    def test_reads_only_the_realized_orderings(self, monkeypatch):
        # 1..40 and its reverse: two realized orderings among 40!, so a walk over
        # all permutations could never finish; listing them is refused outright.
        def refuse(*args):
            raise AssertionError("the weak predicate enumerated the permutations")

        monkeypatch.setattr(distribution, "permutations", refuse)
        d = make_dist(40, [(tuple(range(1, 41)), F(1, 2)), (tuple(range(40, 0, -1)), F(1, 2))])
        start = time.perf_counter()
        assert weakly_exchangeable(d)
        assert time.perf_counter() - start < 1

    def test_implies_condition_q(self, theorem_corpus):
        for _, d in theorem_corpus[:40]:
            if not weakly_exchangeable(d):
                continue
            w = relative_quality(d)
            for t in d.breakpoints:
                assert condition_w(d, w, t)


class TestConditionW:
    def test_symmetric_weights_iff_state_exchangeability(self, theorem_corpus):
        w3 = WeightFunction.symmetric(3)
        for _, d in theorem_corpus[190:230]:
            for t in d.breakpoints:
                assert condition_w(d, w3, t) == states_exchangeable_at(d, t)

    def test_staggered_pairs_with_quality(self, staggered_pairs):
        w = relative_quality(staggered_pairs)
        assert condition_w(staggered_pairs, w, 2)

    def test_lopsided_orbit_with_quality(self):
        d = orbit_dist([F(1, 2), 0, 0, F(1, 2), 0, 0])
        w = relative_quality(d)
        for t in d.breakpoints:
            assert condition_w(d, w, t)

    def test_size_mismatch(self, staggered_pairs):
        with pytest.raises(ValueError):
            condition_w(staggered_pairs, WeightFunction.symmetric(3), 1)


class TestJson:
    def test_round_trip(self, shifted_ladders):
        assert distribution_from_json(distribution_to_json(shifted_ladders)) == (
            shifted_ladders
        )

    def test_parses_strings_and_ints(self):
        obj = {
            "n": 2,
            "atoms": [
                {"x": ["1/2", 2], "p": "1/2"},
                {"x": [3, "4"], "p": "1/2"},
            ],
        }
        d = distribution_from_json(obj)
        assert d.atoms[0] == ((F(1, 2), 2), F(1, 2))

    def test_parses_each_value_once(self, monkeypatch):
        calls = []
        real = rationals.parse_rational

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(rationals, "parse_rational", counting)
        monkeypatch.setattr(distribution, "parse_rational", counting)
        obj = {"n": 2, "atoms": [{"x": ["1/2", 2], "p": "1/3"}, {"x": [3, "4"], "p": "2/3"}]}
        distribution_from_json(obj)
        # The file's values, each read once, atom by atom: the lifetimes, then p.
        assert calls == ["1/2", 2, "1/3", 3, "4", "2/3"]

    def test_errors_name_the_problem(self):
        with pytest.raises(ValueError, match="'atoms'"):
            distribution_from_json({"n": 2})
        with pytest.raises(ValueError, match="atom 0"):
            distribution_from_json({"n": 2, "atoms": [{"p": "1"}]})
        with pytest.raises(ValueError):
            distribution_from_json({"n": 2, "atoms": []})
        with pytest.raises(ValueError):
            distribution_from_json("not an object")


class TestStateExchangeabilityScan:
    def test_everywhere_is_every_breakpoint(self, theorem_corpus):
        for _, d in theorem_corpus:
            assert states_exchangeable_everywhere(d) == all(
                states_exchangeable_at(d, t) for t in d.breakpoints
            )

    def test_witness_is_at_first_failing_breakpoint(self, theorem_corpus):
        failures = 0
        for _, d in theorem_corpus:
            supports = [state_support(d, t) for t in d.breakpoints]
            witnesses = evaluate_conditions(d, supports)[1]["witnesses"]
            failing = [t for t in d.breakpoints if not states_exchangeable_at(d, t)]
            if not failing:
                assert "states_exchangeable" not in witnesses
                continue
            failures += 1
            witness = witnesses["states_exchangeable"]
            assert witness["t"] == format_rational(failing[0])
            assert sum(witness["state"]) == sum(witness["other_state"])
        assert failures > 0
