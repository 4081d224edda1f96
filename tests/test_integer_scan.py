"""The integer representation scan of verify_theorems against the Fraction scan.

``verify_by_fractions`` is the earlier library scan, kept here as the oracle:
signatures as Fraction level sums taken straight from their definition, the
reliability as a sum over the nonzero entries of a dense state table filled
atom by atom, and the mixture over Fraction order-statistic survivals, each
one pass over the atoms. The whole report must be equal, verdicts,
witnesses and theorem checks included. The library's survivals, a bisect
into the law's one order-statistic sweep, are checked against the same
per-atom loop at every kind of time.
"""

import math
import random
import time
from fractions import Fraction

from sigrel import (
    DiagnosisReport,
    SystemClass,
    TheoremCheck,
    WeightFunction,
    enumerate_systems,
    format_rational,
    order_stat_survival,
    relative_quality,
    system_to_json,
    verify_theorems,
)
from sigrel.distribution import evaluate_conditions, state_support
from sigrel.structure import level_indices, rank_over_rationals

from conftest import exchangeable_mixture, make_dist, random_no_ties
from test_sweeps import (  # noqa: F401
    perturbed_corpus,
    perturbed_exchangeable,
    states_by_atoms,
    survival_by_atoms,
    tied_laws,
)

REPRESENTATION_KEYS = ("boland_repr", "prob_repr", "signature_agreement")


# --- oracle: the Fraction scan ----------------------------------------------


def signature_by_fractions(phi, w):
    """Differenced weighted level sums, W(0) = 0, each level summed in Fractions."""
    n = phi.n
    levels = [Fraction(0)] + [
        sum((w.values[i] * phi.value(i) for i in level_indices(n, k)), Fraction(0))
        for k in range(1, n + 1)
    ]
    return tuple(levels[n - k + 1] - levels[n - k] for k in range(1, n + 1))


def verify_by_fractions(n, d, system_class):
    systems = enumerate_systems(n, system_class)
    weights, fields = evaluate_conditions(d, [state_support(d, t) for t in d.breakpoints])
    assert weights == WeightFunction.from_quality(relative_quality(d))
    witnesses = fields["witnesses"]
    bps = d.breakpoints
    ties = fields["has_ties"]
    symmetric = WeightFunction.symmetric(n)
    # The nonzero entries of each dense state table.
    supports = [[(x, p) for x, p in enumerate(states_by_atoms(d, t)) if p] for t in bps]
    survivals = [[survival_by_atoms(d, k, t) for k in range(1, n + 1)] for t in bps]

    def representation_witness(phi, sig):
        for t, support, surv in zip(bps, supports, survivals):
            lhs = sum((s * p for s, p in zip(sig, surv)), Fraction(0))
            rhs = sum((p for x, p in support if phi.value(x)), Fraction(0))
            if lhs != rhs:
                return {
                    "system": system_to_json(phi),
                    "t": format_rational(t),
                    "representation": format_rational(lhs),
                    "reliability": format_rational(rhs),
                }
        return None

    boland_wit = prob_wit = agree_wit = None
    for phi in systems:
        design = None if boland_wit and agree_wit else signature_by_fractions(phi, symmetric)
        if boland_wit is None:
            boland_wit = representation_witness(phi, design)
        if not ties:
            probability = signature_by_fractions(phi, weights)
            if prob_wit is None:
                prob_wit = representation_witness(phi, probability)
            if agree_wit is None and design != probability:
                agree_wit = {
                    "system": system_to_json(phi),
                    "boland": tuple(map(format_rational, design)),
                    "probability": tuple(map(format_rational, probability)),
                }
        if boland_wit and (ties or (prob_wit and agree_wit)):
            break
    for key, wit in zip(REPRESENTATION_KEYS, (boland_wit, prob_wit, agree_wit)):
        if wit is not None:
            witnesses[key] = wit

    boland_all = boland_wit is None
    prob_all = None if ties else prob_wit is None
    agree_all = None if ties else agree_wit is None
    both = None if ties else boland_all and prob_all
    class_rank = rank_over_rationals(systems)
    relation = "iff" if class_rank == (1 << n) - 1 else "if"
    exch = fields["states_exchangeable_everywhere"]
    claims = [("boland_repr_iff_states_exchangeable", boland_all, exch)]
    if not ties:
        claims += [
            ("prob_repr_iff_condition_q", prob_all, fields["condition_q_everywhere"]),
            ("signatures_agree_iff_q_symmetric", agree_all, fields["q_symmetric"]),
            ("both_reprs_iff_agreement_and_state_exchangeability", both, agree_all and exch),
            (
                "both_reprs_iff_q_symmetry_and_state_exchangeability",
                both,
                fields["q_symmetric"] and exch,
            ),
        ]
    return DiagnosisReport(
        mode="verified",
        n=d.n,
        breakpoints=bps,
        **fields,
        boland_repr_all_systems=boland_all,
        prob_repr_all_systems=prob_all,
        both_representations=both,
        system_class=system_class,
        systems_checked=len(systems),
        class_rank=class_rank,
        theorem_checks=tuple(TheoremCheck(name, relation, lhs, rhs) for name, lhs, rhs in claims),
    ).to_json()


# --- corpora ----------------------------------------------------------------

# Reciprocal primes as atom probabilities: the remainder atom then has the
# product of the primes as its denominator, so D is as large as it gets.
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def coprime_law(rng, n, n_atoms):
    while True:
        probs = [Fraction(1, p) for p in rng.sample(PRIMES, n_atoms - 1)]
        if sum(probs) < 1:
            break
    probs.append(1 - sum(probs))
    vectors = set()
    while len(vectors) < n_atoms:
        vectors.add(tuple(rng.sample(range(1, 4 * n), n)))
    return make_dist(n, list(zip(sorted(vectors), probs)))


def comonotone_law(rng, n, n_atoms):
    """Atoms sharing one failure order: the probability-signature representation
    holds for every system, so its scan runs to the end."""
    order = rng.sample(range(n), n)
    values = rng.sample(range(1, 1000), n * n_atoms)
    weights = [rng.randint(1, 9) for _ in range(n_atoms)]
    rows = []
    for a, w in enumerate(weights):
        ranked = sorted(values[a * n : (a + 1) * n])
        xs = [0] * n
        for r, comp in enumerate(order):
            xs[comp] = ranked[r]
        rows.append((tuple(xs), Fraction(w, sum(weights))))
    return make_dist(n, rows)


def distinct_lifetime_law(rng, n, n_atoms):
    """Equal-weight atoms whose n * n_atoms lifetimes are distinct integers, so
    every lifetime is its own breakpoint."""
    values = rng.sample(range(1, 100 * n * n_atoms), n * n_atoms)
    rows = [(values[a * n : (a + 1) * n], Fraction(1, n_atoms)) for a in range(n_atoms)]
    return make_dist(n, rows)


def classes_for(n):
    return [SystemClass.SEMICOHERENT] if n == 2 else list(SystemClass)


def oracle_cases(theorem_corpus):
    """(n, law, class) triples: below n = 5 every law under every class that
    admits its n, except the theorem corpus, which is all n = 3, where the
    two classes enumerate the same systems."""
    rng = random.Random(8080)
    cases = [(3, d, SystemClass.COHERENT) for _, d in theorem_corpus]
    laws = tied_laws()
    laws += [perturbed_exchangeable(rng, n) for n in (3, 4) for _ in range(12)]
    laws += [coprime_law(rng, n, rng.randint(2, 6)) for n in (3, 4) for _ in range(10)]
    laws += [random_no_ties(rng, 4) for _ in range(6)]
    laws += [exchangeable_mixture(rng, 4) for _ in range(3)]
    laws += [comonotone_law(rng, n, 3) for n in (3, 4)]
    cases += [(d.n, d, c) for d in laws for c in classes_for(d.n)]
    # n = 5: one class each; the comonotone law scans all 6,894 systems.
    cases += [
        (5, random_no_ties(rng, 5), SystemClass.COHERENT),
        (5, coprime_law(rng, 5, 6), SystemClass.SEMICOHERENT),
        (5, comonotone_law(rng, 5, 2), SystemClass.COHERENT),
    ]
    return cases


# --- comparisons ------------------------------------------------------------


def test_integer_scan_matches_fraction_scan(theorem_corpus):
    reports = []
    denominators = []
    for n, d, system_class in oracle_cases(theorem_corpus):
        got = verify_theorems(n, d, system_class).to_json()
        assert got == verify_by_fractions(n, d, system_class), (d, system_class)
        reports.append(got)
        denominators.append(math.lcm(*(p.denominator for _, p in d.atoms)))
    # The corpus exercises every representation witness, laws with none of
    # them, tied laws, a large common denominator, both classes and n = 2 to 5.
    assert max(denominators) >= 3 * 5 * 7 * 11 * 13
    for key in REPRESENTATION_KEYS:
        assert any(key in r["witnesses"] for r in reports), key
    assert any(not set(REPRESENTATION_KEYS) & r["witnesses"].keys() for r in reports)
    assert any(r["verdicts"]["prob_repr_all_systems"] is None for r in reports)
    assert {r["class"] for r in reports} == {c.value for c in SystemClass}
    assert {r["n"] for r in reports} == {2, 3, 4, 5}


def survival_times(d):
    """Each breakpoint and midpoint, below the first (0 and -1 included) and past the last."""
    bps = d.breakpoints
    between = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    return [Fraction(-1), Fraction(0), bps[0] / 2, *bps, *between, bps[-1] + 1, bps[-1] * 3]


def test_survival_sweep_matches_per_atom_loop(theorem_corpus, perturbed_corpus):
    rng = random.Random(4545)
    laws = [d for _, d in theorem_corpus] + perturbed_corpus + tied_laws()
    laws += [coprime_law(rng, n, rng.randint(2, 6)) for n in (2, 3, 4, 5) for _ in range(5)]
    distinct = [distinct_lifetime_law(rng, n, rng.randint(1, 12)) for n in (2, 3, 4, 5)]
    assert all(len(d.breakpoints) == d.n * len(d.atoms) for d in distinct)
    for d in laws + distinct:
        for t in survival_times(d):
            for k in range(1, d.n + 1):
                assert order_stat_survival(d, k, t) == survival_by_atoms(d, k, t), (d, k, t)


# --- runtime ceilings ---------------------------------------------------------


def test_verify_distinct_lifetimes_n5_runtime():
    # 400 atoms, 2,000 breakpoints: one survival sweep and one support per breakpoint.
    d = distinct_lifetime_law(random.Random(7), 5, 400)
    assert len(d.breakpoints) == 2000
    start = time.perf_counter()
    report = verify_theorems(5, d, SystemClass.COHERENT)
    assert time.perf_counter() - start < 8.0
    assert report.systems_checked == 6894
    assert report.boland_repr_all_systems is False


def test_verify_comonotone_n5_runtime():
    d = comonotone_law(random.Random(555), 5, 3)
    start = time.perf_counter()
    report = verify_theorems(5, d, SystemClass.SEMICOHERENT)
    assert time.perf_counter() - start < 2.0
    assert report.systems_checked == 6894
    assert report.prob_repr_all_systems is True
