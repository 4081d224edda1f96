"""Design and probability signatures, level averages, weighted levels."""

import math
import pickle
import random
from fractions import Fraction
from itertools import permutations

import pytest

from sigrel import (
    QualityFunction,
    Signature,
    SystemClass,
    TiesError,
    WeightFunction,
    boland_signature,
    enumerate_systems,
    from_path_sets,
    from_truth_table,
    k_out_of_n,
    level_indices,
    phi_level,
    probability_signature,
    relative_quality,
    signatures_agree,
    weighted_phi_level,
)
from sigrel.structure import StructureFunction, _monotone_tables

from conftest import make_dist, random_no_ties

# The rule the refusal applies, for a tied law's quality and a hand-built one alike.
LEVEL_SUM_REFUSAL = (
    "^probability signature needs a quality that sums to 1 on every level, "
    "which no law with tied lifetimes has$"
)


def bridge():
    return from_path_sets(3, [[1, 2], [1, 3]])


def boland_by_failure_orders(phi):
    """Independent oracle: walk every failure order, note when the system dies."""
    n = phi.n
    counts = [0] * n
    for order in permutations(range(n)):
        alive = (1 << n) - 1
        for step, comp in enumerate(order, start=1):
            alive &= ~(1 << comp)
            if phi.value(alive) == 0:
                counts[step - 1] += 1
                break
    total = math.factorial(n)
    return tuple(Fraction(c, total) for c in counts)


class TestPhiLevel:
    def test_bridge_level_2(self):
        assert phi_level(bridge(), 2) == Fraction(2, 3)

    def test_series_level_2(self):
        assert phi_level(k_out_of_n(3, 1), 2) == 0

    def test_top_level_is_one_for_semicoherent(self):
        for phi in enumerate_systems(3, SystemClass.COHERENT):
            assert phi_level(phi, 3) == 1
            assert phi_level(phi, 0) == 0

    def test_level_zero_is_the_all_failed_value(self):
        assert phi_level(StructureFunction(2, 0b1111), 0) == 1

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            phi_level(bridge(), 4)
        with pytest.raises(ValueError):
            phi_level(bridge(), -1)

    @pytest.mark.parametrize("k", [4, -1])
    def test_level_refusal_is_worded_once(self, k):
        """Every entry point that takes a level refuses it with one message."""
        phi = bridge()
        calls = [
            lambda: level_indices(3, k),
            lambda: phi_level(phi, k),
            lambda: weighted_phi_level(phi, WeightFunction.symmetric(3), k),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=rf"^level {k} out of range 0\.\.3$"):
                call()


class TestBolandSignature:
    def test_series(self):
        assert boland_signature(k_out_of_n(3, 1)).values == (1, 0, 0)

    def test_parallel(self):
        assert boland_signature(k_out_of_n(3, 3)).values == (0, 0, 1)

    def test_majority(self):
        assert boland_signature(k_out_of_n(3, 2)).as_strings() == ("0/1", "1/1", "0/1")

    def test_bridge(self):
        assert boland_signature(bridge()).values == (Fraction(1, 3), Fraction(2, 3), 0)

    def test_requires_semicoherent(self):
        with pytest.raises(ValueError):
            boland_signature(from_truth_table(2, "0000"))

    def test_matches_failure_order_oracle(self):
        for n in (3, 4):
            for phi in enumerate_systems(n, SystemClass.COHERENT):
                assert boland_signature(phi).values == boland_by_failure_orders(phi)

    def test_sums_to_one_for_every_semicoherent_table(self):
        # includes tables with idle components, which enumerate_systems drops
        for n in (2, 3, 4):
            top = (1 << n) - 1
            for table in _monotone_tables(n):
                if table & 1 or not (table >> top) & 1:
                    continue
                phi = StructureFunction(n, table)
                sig = boland_signature(phi)
                assert sum(sig.values) == 1
                assert all(0 <= s <= 1 for s in sig.values)


class TestWeightedLevels:
    def test_symmetric_weights_reduce_to_plain_levels(self):
        from sigrel import weighted_phi_level

        w = WeightFunction.symmetric(3)
        for phi in enumerate_systems(3, SystemClass.COHERENT):
            for k in range(4):
                assert weighted_phi_level(phi, w, k) == phi_level(phi, k)

    def test_level_zero_is_zero_by_convention(self):
        from sigrel import weighted_phi_level

        w = WeightFunction(3, tuple(Fraction(1) for _ in range(8)))
        assert weighted_phi_level(bridge(), w, 0) == 0

    def test_zero_weights(self):
        from sigrel import weighted_phi_level

        w = WeightFunction(3, tuple(Fraction(0) for _ in range(8)))
        for k in range(4):
            assert weighted_phi_level(bridge(), w, k) == 0

    def test_quality_weights_on_bottom_level(self, shifted_ladders):
        from sigrel import weighted_phi_level

        q = relative_quality(shifted_ladders)
        # parallel is 1 on every singleton, so this is the level-1 sum of q
        assert weighted_phi_level(k_out_of_n(3, 3), q, 1) == 1

    def test_size_mismatch_rejected(self):
        from sigrel import weighted_phi_level

        w = WeightFunction.symmetric(2)
        with pytest.raises(ValueError):
            weighted_phi_level(bridge(), w, 1)


class TestProbabilitySignature:
    def test_series_for_any_quality(self, shifted_ladders):
        q = relative_quality(shifted_ladders)
        assert probability_signature(k_out_of_n(3, 1), q).values == (1, 0, 0)

    def test_bridge_with_ladder_quality(self, shifted_ladders):
        q = relative_quality(shifted_ladders)
        sig = probability_signature(bridge(), q)
        assert sig.values == (Fraction(1, 4), Fraction(3, 4), 0)

    def test_symmetric_quality_recovers_design_signature(self, shifted_ladders):
        sym = QualityFunction(
            3, tuple(Fraction(1, math.comb(3, m.bit_count())) for m in range(8))
        )
        for phi in enumerate_systems(3, SystemClass.COHERENT):
            assert probability_signature(phi, sym) == boland_signature(phi)

    def test_sums_to_one_for_genuine_quality(self):
        rng = random.Random(4242)
        for n in (3, 4):
            for _ in range(10):
                q = relative_quality(random_no_ties(rng, n))
                for phi in enumerate_systems(n, SystemClass.COHERENT):
                    assert sum(probability_signature(phi, q).values) == 1

    def test_tied_quality_refused(self):
        tied = make_dist(2, [((1, 1), 1)])
        q = relative_quality(tied)
        with pytest.raises(TiesError, match=LEVEL_SUM_REFUSAL):
            probability_signature(k_out_of_n(2, 1), q)

    def test_equal_qualities_are_refused_alike(self):
        """The tie flag is read from the values, so a tied law's quality rebuilt from
        them, or pickled and loaded, is equal to it and refused the same way."""
        half = Fraction(1, 2)
        q = relative_quality(make_dist(3, [((1, 1, 2), half), ((1, 2, 3), half)]))
        phi = k_out_of_n(3, 2)
        for same in (q, QualityFunction(q.n, q.values), pickle.loads(pickle.dumps(q))):
            assert same == q and hash(same) == hash(q) and same.from_tied
            for call in (probability_signature, signatures_agree):
                with pytest.raises(TiesError, match=LEVEL_SUM_REFUSAL):
                    call(phi, same)

    @pytest.mark.parametrize("entry", ["1/2", "1/4"], ids=["above 1", "below 1"])
    def test_quality_whose_level_sum_is_not_one_is_refused(self, entry):
        """Level 1 sums to 3/2 or to 3/4 while the other levels sum to 1: no law has
        that quality, and the signature under it is refused as a tied law's is."""
        q = QualityFunction(3, (1, entry, entry, "1/3", entry, "1/3", "1/3", 1))
        assert q.from_tied
        with pytest.raises(TiesError, match=LEVEL_SUM_REFUSAL):
            probability_signature(k_out_of_n(3, 2), q)


class TestAgreement:
    def test_series_always_agrees(self, shifted_ladders):
        q = relative_quality(shifted_ladders)
        assert signatures_agree(k_out_of_n(3, 1), q)

    def test_bridge_with_ladder_quality_disagrees(self, shifted_ladders):
        q = relative_quality(shifted_ladders)
        assert not signatures_agree(bridge(), q)

    def test_agreement_for_all_systems_iff_symmetric(self):
        from sigrel import is_q_symmetric

        rng = random.Random(515)
        for _ in range(25):
            d = random_no_ties(rng, 3)
            q = relative_quality(d)
            all_agree = all(
                signatures_agree(phi, q)
                for phi in enumerate_systems(3, SystemClass.COHERENT)
            )
            assert all_agree == is_q_symmetric(q)


class TestSignatureType:
    def test_coercion_and_strings(self):
        sig = Signature(("1/2", Fraction(1, 2), 0))
        assert sig.values == (Fraction(1, 2), Fraction(1, 2), 0)
        assert sig.as_strings() == ("1/2", "1/2", "0/1")

    def test_nonempty(self):
        with pytest.raises(ValueError):
            Signature(())

    def test_sequence_protocol(self):
        sig = Signature((0, 1, 0))
        assert len(sig) == 3
        assert sig[1] == 1
        assert list(sig) == [0, 1, 0]
