"""System lifetimes, curves, the two representations, diagnosis, verification."""

import json
import random
import re
from fractions import Fraction

import pytest

from sigrel import (
    DiagnosisReport,
    ReliabilityCurve,
    SystemClass,
    TheoremCheck,
    TheoremInconsistencyError,
    TiesError,
    WeightFunction,
    boland_signature,
    condition_w,
    diagnose,
    distribution_to_json,
    enumerate_systems,
    from_path_sets,
    from_truth_table,
    group_reliability,
    has_ties,
    k_out_of_n,
    order_stat_survival,
    probability_signature,
    probability_signature_oracle,
    relative_quality,
    reliability_curve,
    repr_boland,
    repr_prob_signature,
    repr_weighted,
    state_distribution,
    states_exchangeable_at,
    system_from_json,
    system_lifetime,
    system_reliability,
    verify_theorems,
    weighted_phi_level,
    weighted_signature,
)
from sigrel import reliability
from sigrel.cli import run

from conftest import lifetime_by_definition, make_dist, orbit_dist, random_no_ties

F = Fraction


def bridge():
    return from_path_sets(3, [[1, 2], [1, 3]])


def atom_scan_reliability(phi, d, t):
    """Independent oracle: sum the atoms whose system lifetime exceeds t."""
    t = Fraction(t)
    return sum(
        (p for xs, p in d.atoms if lifetime_by_definition(phi, xs) > t),
        Fraction(0),
    )


class TestSystemLifetime:
    def test_series_is_min(self):
        assert system_lifetime(k_out_of_n(3, 1), (1, 2, 3)) == 1

    def test_parallel_is_max(self):
        assert system_lifetime(k_out_of_n(3, 3), (1, 2, 3)) == 3

    def test_bridge_steps_through_failures(self):
        assert system_lifetime(bridge(), (2, 1, 3)) == 2

    def test_simultaneous_failures(self):
        assert system_lifetime(k_out_of_n(3, 3), (2, 2, 2)) == 2

    def test_requires_semicoherent(self):
        with pytest.raises(ValueError):
            system_lifetime(from_truth_table(2, "0000"), (1, 2))

    def test_validates_lifetimes(self):
        with pytest.raises(ValueError):
            system_lifetime(k_out_of_n(3, 1), (1, 2))
        with pytest.raises(ValueError):
            system_lifetime(k_out_of_n(3, 1), (0, 1, 2))

    @pytest.mark.parametrize(
        "bits, lifetimes, message",
        [
            ("01111111", "123", "lifetimes must be a sequence of rationals, got '123'"),
            ("01111111", 12, "lifetimes must be a sequence of rationals, got 12"),
            ("01111111", (1, 2), "atom ((1, 2), 1) has 2 lifetimes, expected 3"),
            ("01111111", (1, 2, 3, 4), "atom ((1, 2, 3, 4), 1) has 4 lifetimes, expected 3"),
            ("01111111", (0, 1, 2), "lifetimes must be strictly positive"),
            ("01111111", (1, "-1/2", 2), "lifetimes must be strictly positive"),
            ("00000000", (1, 2, 3), "system lifetime needs value 0 at the all-failed state"),
            ("11111111", (1, 2), "system lifetime needs value 0 at the all-failed state"),
        ],
    )
    def test_refusals_name_the_rule(self, bits, lifetimes, message):
        """The lifetimes are refused by the one-atom law's rules, after the boundary rule."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            system_lifetime(from_truth_table(3, bits), lifetimes)


class TestProbabilitySignatureOracle:
    def test_series(self, shifted_ladders):
        sig = probability_signature_oracle(k_out_of_n(3, 1), shifted_ladders)
        assert sig.values == (1, 0, 0)

    def test_majority(self, shifted_ladders):
        sig = probability_signature_oracle(k_out_of_n(3, 2), shifted_ladders)
        assert sig.values == (0, 1, 0)

    def test_bridge_on_ladders(self, shifted_ladders):
        sig = probability_signature_oracle(bridge(), shifted_ladders)
        assert sig.values == (F(1, 4), F(3, 4), 0)
        assert sig == probability_signature(bridge(), relative_quality(shifted_ladders))

    def test_ties_refused(self):
        tied = make_dist(3, [((1, 1, 2), 1)])
        with pytest.raises(TiesError):
            probability_signature_oracle(k_out_of_n(3, 1), tied)


class TestSystemReliability:
    def test_series_pairs_at_two(self, staggered_pairs):
        assert system_reliability(from_truth_table(2, "0001"), staggered_pairs, 2) == (
            F(1, 4)
        )

    def test_one_below_first_breakpoint(self, shifted_ladders):
        for phi in enumerate_systems(3, SystemClass.COHERENT):
            assert system_reliability(phi, shifted_ladders, F(1, 2)) == 1

    def test_parallel_ladders_late(self, shifted_ladders):
        # three atoms still have a component alive just before 5
        assert system_reliability(k_out_of_n(3, 3), shifted_ladders, F(9, 2)) == F(3, 8)

    def test_matches_atom_scan(self, theorem_corpus):
        systems = enumerate_systems(3, SystemClass.COHERENT)
        for _, d in theorem_corpus[40:55]:
            for phi in systems[::3]:
                for t in d.breakpoints:
                    assert system_reliability(phi, d, t) == atom_scan_reliability(
                        phi, d, t
                    )

    def test_k_out_of_n_matches_order_statistics(self, shifted_ladders):
        for k in (1, 2, 3):
            phi = k_out_of_n(3, k)
            for t in shifted_ladders.breakpoints:
                assert system_reliability(phi, shifted_ladders, t) == (
                    order_stat_survival(shifted_ladders, k, t)
                )


class TestReliabilityCurve:
    def test_series_staggered_pairs(self, staggered_pairs):
        curve = reliability_curve(from_truth_table(2, "0001"), staggered_pairs)
        assert curve.breakpoints == (1, 2, 3, 4)
        assert curve.values == (1, F(1, 2), F(1, 4), 0, 0)

    def test_parallel_staggered_pairs(self, staggered_pairs):
        curve = reliability_curve(from_truth_table(2, "0111"), staggered_pairs)
        assert curve.values == (1, 1, F(3, 4), F(1, 2), 0)

    def test_single_atom_is_indicator(self):
        d = make_dist(3, [((2, 3, 5), 1)])
        curve = reliability_curve(k_out_of_n(3, 1), d)
        assert curve.breakpoints == (2, 3, 5)
        assert curve.values == (1, 0, 0, 0)
        assert curve.value_at(F(3, 2)) == 1
        assert curve.value_at(2) == 0

    def test_value_at_is_right_continuous(self, staggered_pairs):
        curve = reliability_curve(from_truth_table(2, "0001"), staggered_pairs)
        assert curve.value_at(F(1, 2)) == 1
        assert curve.value_at(1) == F(1, 2)
        assert curve.value_at(F(3, 2)) == F(1, 2)
        assert curve.value_at(4) == 0
        assert curve.value_at(1000) == 0
        with pytest.raises(ValueError):
            curve.value_at(0)

    def test_nonincreasing_for_semicoherent(self, theorem_corpus):
        for _, d in theorem_corpus[10:20]:
            for phi in enumerate_systems(3, SystemClass.COHERENT)[::4]:
                values = reliability_curve(phi, d).values
                assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityCurve((), (1,))
        with pytest.raises(ValueError):
            ReliabilityCurve((1, 2), (1, 0))
        with pytest.raises(ValueError):
            ReliabilityCurve((2, 1), (1, F(1, 2), 0))
        with pytest.raises(ValueError):
            ReliabilityCurve((1,), (2, 0))


class TestReprBoland:
    def test_k_out_of_n_is_the_order_statistic(self, shifted_ladders, staggered_pairs):
        for d in (shifted_ladders,):
            for k in (1, 2, 3):
                phi = k_out_of_n(3, k)
                for t in d.breakpoints:
                    assert repr_boland(phi, d, t) == order_stat_survival(d, k, t)

    def test_exact_for_state_exchangeable_input(self, shifted_ladders):
        for phi in enumerate_systems(3, SystemClass.COHERENT):
            for t in shifted_ladders.breakpoints:
                assert repr_boland(phi, shifted_ladders, t) == system_reliability(
                    phi, shifted_ladders, t
                )

    def test_fails_somewhere_for_lopsided_orbit(self):
        d = orbit_dist([F(1, 2), 0, 0, F(1, 2), 0, 0])
        mismatches = [
            (phi, t)
            for phi in enumerate_systems(3, SystemClass.COHERENT)
            for t in d.breakpoints
            if repr_boland(phi, d, t) != system_reliability(phi, d, t)
        ]
        assert mismatches


class TestReprProbSignature:
    def test_exact_on_the_orbit_family_for_any_weights(self):
        rng = random.Random(1314)
        for _ in range(10):
            weights = [rng.randint(0, 5) for _ in range(6)]
            if sum(weights) == 0:
                weights[0] = 1
            total = sum(weights)
            d = orbit_dist([F(w, total) for w in weights])
            for phi in enumerate_systems(3, SystemClass.COHERENT):
                for t in d.breakpoints:
                    assert repr_prob_signature(phi, d, t) == system_reliability(
                        phi, d, t
                    )

    def test_fails_somewhere_on_ladders(self, shifted_ladders):
        mismatches = [
            (phi, t)
            for phi in enumerate_systems(3, SystemClass.COHERENT)
            for t in shifted_ladders.breakpoints
            if repr_prob_signature(phi, shifted_ladders, t)
            != system_reliability(phi, shifted_ladders, t)
        ]
        assert mismatches

    def test_series_always_exact(self):
        rng = random.Random(1413)
        for _ in range(5):
            d = random_no_ties(rng, 3)
            phi = k_out_of_n(3, 1)
            for t in d.breakpoints:
                assert repr_prob_signature(phi, d, t) == order_stat_survival(d, 1, t)

    def test_ties_refused(self):
        tied = make_dist(2, [((1, 1), 1)])
        with pytest.raises(TiesError):
            repr_prob_signature(k_out_of_n(2, 1), tied, 1)


class TestReprWeighted:
    def test_symmetric_weights_match_design_representation(self, shifted_ladders):
        w = WeightFunction.symmetric(3)
        for phi in enumerate_systems(3, SystemClass.COHERENT)[::2]:
            for t in shifted_ladders.breakpoints:
                assert repr_weighted(phi, shifted_ladders, w, t) == repr_boland(
                    phi, shifted_ladders, t
                )

    def test_quality_weights_match_probability_representation(self):
        rng = random.Random(1618)
        for _ in range(5):
            d = random_no_ties(rng, 3)
            w = relative_quality(d)
            for phi in enumerate_systems(3, SystemClass.COHERENT)[::2]:
                for t in d.breakpoints:
                    assert repr_weighted(phi, d, w, t) == repr_prob_signature(
                        phi, d, t
                    )


@pytest.mark.parametrize("t", [0, -5])
def test_non_positive_time_is_refused_like_system_reliability(shifted_ladders, t):
    phi, d = k_out_of_n(3, 2), shifted_ladders
    message = f"time must be positive, got {t}"
    with pytest.raises(ValueError, match=message):
        system_reliability(phi, d, t)
    calls = [
        lambda: repr_boland(phi, d, t),
        lambda: repr_prob_signature(phi, d, t),
        lambda: repr_weighted(phi, d, WeightFunction.symmetric(3), t),
        lambda: order_stat_survival(d, 1, t),
        lambda: group_reliability(d, [1], t),
        lambda: reliability_curve(phi, d).value_at(t),
        lambda: state_distribution(d, t),
        lambda: states_exchangeable_at(d, t),
        lambda: condition_w(d, WeightFunction.symmetric(3), t),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


BOUNDARY = "needs value 0 at the all-failed state and 1 at the all-working state"


@pytest.mark.parametrize("bits", ["00000000", "11111111"])
def test_boundary_refusals_name_what_needs_the_boundary(shifted_ladders, staggered_pairs, bits):
    """A system without the semicoherent boundary values is refused before its
    other arguments are read, in the words of the signature or of the lifetime."""
    phi, tied = from_truth_table(3, bits), make_dist(3, [((1, 1, 2), 1)])
    signature, lifetime = f"^signature {BOUNDARY}$", f"^system lifetime {BOUNDARY}$"
    calls = [
        (signature, lambda: boland_signature(phi)),
        (signature, lambda: repr_boland(phi, shifted_ladders, 1)),
        (signature, lambda: repr_boland(phi, shifted_ladders, 0)),
        (signature, lambda: repr_boland(phi, staggered_pairs, 1)),
        (lifetime, lambda: system_lifetime(phi, (1, 2, 3))),
        (lifetime, lambda: system_lifetime(phi, (1, 2))),
        (lifetime, lambda: system_lifetime(phi, (0, "x", 2))),
        (lifetime, lambda: probability_signature_oracle(phi, shifted_ladders)),
        (signature, lambda: probability_signature(phi, relative_quality(shifted_ladders))),
        (signature, lambda: probability_signature(phi, relative_quality(staggered_pairs))),
        (signature, lambda: probability_signature(phi, relative_quality(tied))),
        (signature, lambda: repr_prob_signature(phi, shifted_ladders, 1)),
        (signature, lambda: repr_prob_signature(phi, shifted_ladders, 0)),
        (signature, lambda: repr_prob_signature(phi, staggered_pairs, 1)),
        (signature, lambda: repr_prob_signature(phi, tied, 1)),
    ]
    for message, call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(TiesError, match="^signature oracle needs a distribution without ties$"):
        probability_signature_oracle(phi, tied)
    with pytest.raises(ValueError, match="^system and distribution disagree on component count$"):
        probability_signature_oracle(phi, staggered_pairs)



def test_routines_that_take_weights_accept_a_quality(theorem_corpus):
    """The relative quality is the probability signature's weight function, so the
    routines that take weights read it as the quality-based routines do."""
    systems = enumerate_systems(3, SystemClass.COHERENT)
    outcomes = set()
    for _, d in theorem_corpus[::3]:
        q = relative_quality(d)
        assert isinstance(q, WeightFunction) and not has_ties(d)
        for phi in systems:
            assert weighted_signature(phi, q) == probability_signature(phi, q)
            levels = [F(0)] * (d.n + 1)
            for x in range(1, 1 << d.n):
                levels[x.bit_count()] += q.values[x] * phi.value(x)
            assert [weighted_phi_level(phi, q, k) for k in range(d.n + 1)] == levels
            for t in d.breakpoints:
                assert repr_weighted(phi, d, q, t) == repr_prob_signature(phi, d, t)
        holds = all(condition_w(d, q, t) for t in d.breakpoints)
        assert holds == diagnose(d).condition_q_everywhere, d
        outcomes.add(holds)
    assert outcomes == {True, False}


class TestDiagnose:
    def test_ladders(self, shifted_ladders):
        report = diagnose(shifted_ladders)
        assert report.mode == "predicted"
        assert report.states_exchangeable_everywhere
        assert not report.q_symmetric
        assert not report.condition_q_everywhere
        assert report.boland_repr_all_systems is True
        assert report.prob_repr_all_systems is False
        assert report.both_representations is False
        assert "condition_q" in report.witnesses
        assert "q_symmetric" in report.witnesses

    def test_staggered_pairs(self, staggered_pairs):
        report = diagnose(staggered_pairs)
        assert report.states_exchangeable_everywhere
        assert report.q_symmetric
        assert not report.lifetimes_exchangeable
        assert report.weakly_exchangeable is False
        assert report.condition_q_everywhere
        assert report.boland_repr_all_systems is True
        assert report.prob_repr_all_systems is True
        assert report.both_representations is True

    def test_uniform_orbit_all_flags(self):
        report = diagnose(orbit_dist([F(1, 6)] * 6))
        assert report.lifetimes_exchangeable
        assert report.weakly_exchangeable
        assert report.states_exchangeable_everywhere
        assert report.q_symmetric
        assert report.condition_q_everywhere
        assert report.both_representations is True
        assert report.witnesses == {}

    def test_tied_input(self):
        report = diagnose(make_dist(2, [((1, 1), F(1, 2)), ((2, 3), F(1, 2))]))
        assert report.has_ties
        assert report.weakly_exchangeable is None
        assert report.prob_repr_all_systems is None
        assert report.both_representations is None
        assert report.boland_repr_all_systems is not None

    def test_json_shape(self, shifted_ladders):
        payload = diagnose(shifted_ladders).to_json()
        assert payload["mode"] == "predicted"
        assert payload["conditions"]["q_symmetric"] is False
        assert payload["verdicts"]["boland_repr_all_systems"] is True
        assert "class" not in payload


class TestVerifyTheorems:
    def test_ladders_coherent(self, shifted_ladders):
        report = verify_theorems(shifted_ladders, SystemClass.COHERENT)
        assert report.mode == "verified"
        assert report.systems_checked == 9
        assert report.class_rank == 7
        assert report.boland_repr_all_systems is True
        assert report.prob_repr_all_systems is False
        assert report.both_representations is False
        assert {c.relation for c in report.theorem_checks} == {"iff"}
        assert all(c.consistent for c in report.theorem_checks)

    def test_ladders_witness_reevaluates(self, shifted_ladders):
        report = verify_theorems(shifted_ladders, SystemClass.COHERENT)
        witness = report.witnesses["prob_repr"]
        phi = system_from_json(witness["system"])
        t = Fraction(witness["t"])
        lhs = repr_prob_signature(phi, shifted_ladders, t)
        rhs = system_reliability(phi, shifted_ladders, t)
        assert lhs != rhs
        assert lhs == Fraction(witness["representation"])
        assert rhs == Fraction(witness["reliability"])

    def test_lopsided_orbit_witness_reevaluates(self):
        d = orbit_dist([F(1, 2), 0, 0, F(1, 2), 0, 0])
        report = verify_theorems(d, SystemClass.COHERENT)
        assert report.prob_repr_all_systems is True
        assert report.boland_repr_all_systems is False
        witness = report.witnesses["boland_repr"]
        phi = system_from_json(witness["system"])
        t = Fraction(witness["t"])
        assert repr_boland(phi, d, t) == Fraction(witness["representation"])
        assert system_reliability(phi, d, t) == Fraction(witness["reliability"])
        assert Fraction(witness["representation"]) != Fraction(witness["reliability"])

    def test_skipped_orderings_listed(self):
        d = orbit_dist([F(1, 2), 0, 0, F(1, 2), 0, 0])
        report = verify_theorems(d, SystemClass.COHERENT)
        assert ((1, 3, 2) in report.skipped_orderings) and (
            len(report.skipped_orderings) == 4
        )

    def test_pairs_semicoherent_uses_one_sided_checks(self, staggered_pairs):
        report = verify_theorems(staggered_pairs, SystemClass.SEMICOHERENT)
        assert report.systems_checked == 2
        assert report.class_rank == 2  # below full span, so only "if" direction
        assert {c.relation for c in report.theorem_checks} == {"if"}
        assert report.boland_repr_all_systems is True
        assert report.prob_repr_all_systems is True

    def test_tied_input_checks_only_design_representation(self):
        d = make_dist(3, [((1, 1, 2), F(1, 2)), ((2, 3, 1), F(1, 2))])
        report = verify_theorems(d, SystemClass.COHERENT)
        assert report.has_ties
        assert report.prob_repr_all_systems is None
        assert len(report.theorem_checks) == 1

    def test_disagreeing_sides_raise_and_exit_3(
        self, shifted_ladders, monkeypatch, capsys, tmp_path
    ):
        """A condition that contradicts the measured verdict is an inconsistency:
        the library raises it and ``verify`` exits 3."""
        evaluate_conditions = reliability.evaluate_conditions

        def flipped(d, supports):
            weights, fields = evaluate_conditions(d, supports)
            states = not fields["states_exchangeable_everywhere"]
            return weights, {**fields, "states_exchangeable_everywhere": states}

        monkeypatch.setattr(reliability, "evaluate_conditions", flipped)
        name = "boland_repr_iff_states_exchangeable: lhs=True, rhs=False (iff)"
        with pytest.raises(TheoremInconsistencyError, match=re.escape(name)):
            verify_theorems(shifted_ladders, SystemClass.COHERENT)
        path = tmp_path / "ladders.json"
        path.write_text(json.dumps(distribution_to_json(shifted_ladders)))
        assert run(["verify", "--dist", str(path), "--class", "coherent"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "inconsistency" and name in err["detail"]

    def test_n_comes_from_the_law(self, staggered_pairs):
        with pytest.raises(TypeError):
            verify_theorems(3, staggered_pairs, SystemClass.COHERENT)
        assert verify_theorems(staggered_pairs, SystemClass.SEMICOHERENT).n == staggered_pairs.n

    def test_mode_follows_the_class(self, staggered_pairs):
        """No class makes a prediction and a class a verification, whoever builds the report."""
        predicted = diagnose(staggered_pairs)
        verified = verify_theorems(staggered_pairs, SystemClass.SEMICOHERENT)
        assert (predicted.system_class, predicted.mode) == (None, "predicted")
        assert (verified.system_class, verified.mode) == (SystemClass.SEMICOHERENT, "verified")
        assert [r.to_json()["mode"] for r in (predicted, verified)] == ["predicted", "verified"]
        fields = {f: getattr(verified, f) for f in DiagnosisReport._fields}
        assert DiagnosisReport(**{**fields, "system_class": None}).mode == "predicted"
        fields = {f: getattr(predicted, f) for f in DiagnosisReport._fields}
        assert DiagnosisReport(**{**fields, "system_class": SystemClass.COHERENT}).mode == "verified"

    def test_json_shape(self, staggered_pairs):
        payload = verify_theorems(staggered_pairs, SystemClass.SEMICOHERENT).to_json()
        assert payload["class"] == "semicoherent"
        assert payload["systems_checked"] == 2
        assert payload["theorem_checks"]
        assert all(c["consistent"] for c in payload["theorem_checks"])


class TestTheoremCheck:
    def test_iff_consistency(self):
        assert TheoremCheck("x", "iff", True, True).consistent
        assert TheoremCheck("x", "iff", False, False).consistent
        assert not TheoremCheck("x", "iff", True, False).consistent
        assert not TheoremCheck("x", "iff", False, True).consistent

    def test_if_consistency(self):
        # only the sufficiency direction: rhs forces lhs
        assert TheoremCheck("x", "if", True, True).consistent
        assert TheoremCheck("x", "if", True, False).consistent
        assert TheoremCheck("x", "if", False, False).consistent
        assert not TheoremCheck("x", "if", False, True).consistent


# Witness keys that only verify_theorems can produce: measured over systems.
MEASURED_WITNESSES = ("boland_repr", "prob_repr", "signature_agreement")


class TestSharedConditionsAndMixture:
    def test_verify_reports_the_conditions_diagnose_reports(self, theorem_corpus):
        for _, d in theorem_corpus:
            predicted = diagnose(d)
            verified = verify_theorems(d, SystemClass.COHERENT)
            assert verified.to_json()["conditions"] == predicted.to_json()["conditions"]
            assert verified.skipped_orderings == predicted.skipped_orderings
            condition_witnesses = {
                k: v
                for k, v in verified.witnesses.items()
                if k not in MEASURED_WITNESSES
            }
            assert condition_witnesses == predicted.witnesses

    def test_repr_weighted_matches_inline_level_sum_formula(self):
        def level_sum(phi, w, m):
            # W(m), with the convention W(0) = 0.
            if m == 0:
                return F(0)
            states = [x for x in range(1 << phi.n) if x.bit_count() == m]
            return sum((w.values[x] * phi.value(x) for x in states), F(0))

        def survival(d, k, t):
            # P(X_(k:n) > t), summed over the atoms.
            return sum((p for xs, p in d.atoms if sorted(xs)[k - 1] > t), F(0))

        def times(d):
            # Before the first breakpoint, at each one, between each pair and past the last.
            bps = d.breakpoints
            mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
            return [bps[0] / 2, *bps, *mids, bps[-1] + 1]

        def mixture(phi, w, d, t):
            # Differenced level sums of w times the atom-scan survivals.
            n = phi.n
            return sum(
                (
                    (level_sum(phi, w, n - k + 1) - level_sum(phi, w, n - k)) * survival(d, k, t)
                    for k in range(1, n + 1)
                ),
                F(0),
            )

        rng = random.Random(4242)
        for n in (3, 4):
            symmetric = WeightFunction.symmetric(n)
            for _ in range(4):
                d = random_no_ties(rng, n)
                quality = relative_quality(d)
                for phi in enumerate_systems(n, SystemClass.COHERENT)[::7]:
                    for t in times(d):
                        expected = mixture(phi, quality, d, t)
                        assert repr_weighted(phi, d, quality, t) == expected, (phi, t)
                        assert repr_prob_signature(phi, d, t) == expected, (phi, t)
                        assert repr_boland(phi, d, t) == mixture(phi, symmetric, d, t), (phi, t)
