"""Acceptance suite: one test per criterion, each printing its own verdict.

Every numeric check is exact rational equality; the only tolerances here
are runtime ceilings. Each test emits one "criterion N (label): PASS|FAIL"
line that bypasses output capture, so the verdicts always appear in the
run log.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from sigrel import (
    SystemClass,
    appendix_basis,
    enumerate_systems,
    order_stat_survival,
    probability_signature,
    probability_signature_oracle,
    rank_over_rationals,
    relative_quality,
    repr_boland,
    repr_prob_signature,
    state_distribution,
    system_from_json,
    system_reliability,
    verify_theorems,
)
import sigrel.structure

from conftest import orbit_dist, shifted_ladders_dist, staggered_pairs_dist

F = Fraction


@contextmanager
def verdict(capsys, number, label):
    passed = False
    try:
        yield
        passed = True
    finally:
        with capsys.disabled():
            print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'}")


def test_criterion_1_eight_atom_ladder(capsys):
    with verdict(capsys, 1, "eight-atom ladder reproduction"):
        start = time.perf_counter()
        d = shifted_ladders_dist()

        q = relative_quality(d)
        assert q.values[0b001] == F(3, 8)
        assert q.values[0b010] == F(3, 8)
        assert q.values[0b011] == F(3, 8)
        assert q.values[0b101] == F(3, 8)
        assert q.values[0b100] == F(2, 8)
        assert q.values[0b110] == F(2, 8)

        for t in (2, F(5, 2), 3, 4, F(9, 2)):
            sd = state_distribution(d, t)
            for mask in (0b001, 0b010, 0b100):
                assert sd.prob(mask) == F(1, 8)
        for t in (1, F(3, 2), 2, 3, F(7, 2)):
            sd = state_distribution(d, t)
            for mask in (0b011, 0b101, 0b110):
                assert sd.prob(mask) == F(1, 8)

        report = verify_theorems(d, SystemClass.COHERENT)
        assert report.systems_checked == 9
        assert report.breakpoints == (1, 2, 3, 4, 5)
        assert report.boland_repr_all_systems is True
        for phi in enumerate_systems(3, SystemClass.COHERENT):
            for t in report.breakpoints:
                assert repr_boland(phi, d, t) == system_reliability(phi, d, t)

        assert report.prob_repr_all_systems is False
        witness = report.witnesses["prob_repr"]
        phi = system_from_json(witness["system"])
        t = F(witness["t"])
        assert repr_prob_signature(phi, d, t) != system_reliability(phi, d, t)
        assert repr_prob_signature(phi, d, t) == F(witness["representation"])
        assert system_reliability(phi, d, t) == F(witness["reliability"])

        assert time.perf_counter() - start < 1.0


ODD_UNIFORM = (0, F(1, 3), F(1, 3), 0, F(1, 3), 0)
EVEN_UNIFORM = (F(1, 3), 0, 0, F(1, 3), 0, F(1, 3))


def is_coset_combination(probs):
    """Convex-combination criterion for state exchangeability on the orbit."""
    lam = 1 - 3 * probs[0]
    if not 0 <= lam <= 1:
        return False
    return all(
        lam * o + (1 - lam) * e == p
        for o, e, p in zip(ODD_UNIFORM, EVEN_UNIFORM, probs)
    )


def test_criterion_2_ordering_orbit_family(capsys):
    with verdict(capsys, 2, "ordering-orbit family"):
        start = time.perf_counter()

        uniform = [F(1, 6)] * 6
        report = verify_theorems(orbit_dist(uniform), SystemClass.COHERENT)
        assert report.boland_repr_all_systems is True
        assert report.prob_repr_all_systems is True
        assert report.both_representations is True
        assert report.states_exchangeable_everywhere is True
        assert is_coset_combination(uniform)

        lopsided = [F(1, 2), 0, 0, F(1, 2), 0, 0]
        d = orbit_dist(lopsided)
        report = verify_theorems(d, SystemClass.COHERENT)
        assert report.prob_repr_all_systems is True
        assert report.boland_repr_all_systems is False
        witness = report.witnesses["boland_repr"]
        phi = system_from_json(witness["system"])
        t = F(witness["t"])
        assert repr_boland(phi, d, t) != system_reliability(phi, d, t)
        assert report.states_exchangeable_everywhere is False
        assert not is_coset_combination(lopsided)

        # flag matches the convex-combination criterion across the family
        more = [
            (0, F(1, 3), F(1, 3), 0, F(1, 3), 0),
            (F(1, 4), F(1, 12), F(1, 12), F(1, 4), F(1, 12), F(1, 4)),
            (F(1, 3), F(1, 3), F(1, 3), 0, 0, 0),
            (F(1, 6), F(1, 3), F(1, 6), F(1, 6), 0, F(1, 6)),
        ]
        for probs in more:
            flag = verify_theorems(
                orbit_dist(probs), SystemClass.COHERENT
            ).states_exchangeable_everywhere
            assert flag == is_coset_combination(probs)

        assert time.perf_counter() - start < 1.0


def test_criterion_3_staggered_pairs(capsys):
    with verdict(capsys, 3, "staggered-pairs flags"):
        d = staggered_pairs_dist()
        report = verify_theorems(d, SystemClass.SEMICOHERENT)

        assert report.states_exchangeable_everywhere is True
        for t in (1, F(3, 2), 2, 3, F(7, 2)):
            sd = state_distribution(d, t)
            assert sd.prob(0b01) == F(1, 4)
            assert sd.prob(0b10) == F(1, 4)

        assert report.lifetimes_exchangeable is False
        assert report.weakly_exchangeable is False
        assert report.condition_q_everywhere is True

        assert report.systems_checked == 2
        assert report.boland_repr_all_systems is True
        for phi in enumerate_systems(2, SystemClass.SEMICOHERENT):
            for t in (F(1, 2), 1, 2, 3, F(7, 2), 4, 5):
                assert repr_boland(phi, d, t) == system_reliability(phi, d, t)


def test_criterion_4_spanning_family_rank(capsys):
    with verdict(capsys, 4, "spanning family rank"):
        start = time.perf_counter()
        for n in range(3, 9):
            basis = appendix_basis(n, SystemClass.COHERENT)
            assert len(basis) == (1 << n) - 1
            assert all(phi.coherent for phi in basis)
            assert rank_over_rationals(basis) == (1 << n) - 1
        assert time.perf_counter() - start < 5.0


def test_criterion_5_signature_oracle_equivalence(capsys, signature_corpus):
    with verdict(capsys, 5, "signature oracle equivalence"):
        start = time.perf_counter()
        assert len(signature_corpus) >= 100
        assert {d.n for d in signature_corpus} == {3, 4}
        for d in signature_corpus:
            assert 4 <= len(d.atoms) <= 10
            q = relative_quality(d)
            for phi in enumerate_systems(d.n, SystemClass.COHERENT):
                assert probability_signature(phi, q) == probability_signature_oracle(
                    phi, d
                )
        assert time.perf_counter() - start < 30.0


def test_criterion_6_iff_theorem_suite(capsys, theorem_corpus):
    with verdict(capsys, 6, "iff-theorem suite"):
        start = time.perf_counter()
        assert len(theorem_corpus) >= 300
        counts = {}
        for _, d in theorem_corpus:
            # raises TheoremInconsistencyError if any equivalence breaks
            report = verify_theorems(d, SystemClass.COHERENT)
            assert len(report.theorem_checks) == 5
            for check in report.theorem_checks:
                assert check.relation == "iff"
                assert check.consistent
                assert check.lhs == check.rhs
                bucket = counts.setdefault(check.name, {True: 0, False: 0})
                bucket[check.rhs] += 1
        assert len(counts) == 5
        for name, bucket in counts.items():
            assert bucket[True] >= 10, (name, bucket)
            assert bucket[False] >= 10, (name, bucket)
        assert time.perf_counter() - start < 60.0


def test_criterion_7_enumeration_counts(capsys):
    with verdict(capsys, 7, "enumeration counts"):
        # Cold: each enumeration fills the enumeration's one cache.
        sigrel.structure._class_tables.cache_clear()
        start = time.perf_counter()
        assert len(enumerate_systems(2, SystemClass.SEMICOHERENT)) == 2
        assert len(enumerate_systems(3, SystemClass.COHERENT)) == 9
        assert len(enumerate_systems(4, SystemClass.COHERENT)) == 114
        assert time.perf_counter() - start < 2.0
        assert sigrel.structure._class_tables.cache_info().misses == 3


def test_criterion_8_exact_identities(capsys, theorem_corpus):
    with verdict(capsys, 8, "exact identities"):
        named = [("pairs", staggered_pairs_dist()), ("ladders", shifted_ladders_dist())]

        def survival(d, k, t):
            # the 0-th order statistic never survives
            return F(0) if k == 0 else order_stat_survival(d, k, t)

        # survival differences equal level totals at every breakpoint
        for _, d in list(theorem_corpus) + named:
            n = d.n
            for t in d.breakpoints:
                sd = state_distribution(d, t)
                for k in range(1, n + 1):
                    diff = survival(d, n - k + 1, t) - survival(d, n - k, t)
                    assert diff == sd.level_total(k)

        # the summation-by-parts reshuffle, on randomized rational tuples
        rng = random.Random(1729)
        for _ in range(1000):
            n = rng.randint(1, 6)
            a = [F(0)] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            b = [F(0)] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            lhs = sum(a[k] * (b[n - k + 1] - b[n - k]) for k in range(1, n + 1))
            rhs = sum(b[k] * (a[n - k + 1] - a[n - k]) for k in range(1, n + 1))
            assert lhs == rhs

        # quality level sums are exactly 1 for every tie-free distribution
        for _, d in theorem_corpus:
            q = relative_quality(d)
            assert not q.from_tied
            for k in range(1, d.n + 1):
                level = [m for m in range(1 << d.n) if m.bit_count() == k]
                assert sum(q.values[m] for m in level) == 1
