"""Per-atom sweeps against the per-state and per-permutation loops they replaced.

The reference functions below are the earlier library code, kept here as
oracles: the relative quality by a loop over subset masks, the state
distribution by one dense 2**n table filled atom by atom, the survival
curve by one such table per breakpoint, order-statistic survivals by one
pass over the atoms per (k, t), weak exchangeability
by one pass over the atoms per ordering, and lifetime exchangeability by
the full lexicographic permutation scan. The library decides lifetime
exchangeability from the n - 1 adjacent transpositions alone; the
stabilizer corpus, laws fixed by a non-trivial group of relabelings, checks
that against the full scan. Every comparison is exact, witnesses and
skipped orderings included.
"""

import math
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from sigrel import (
    LifetimeDistribution,
    QualityFunction,
    ReliabilityCurve,
    TiesError,
    appendix_basis,
    breakpoints,
    diagnose,
    enumerate_systems,
    format_rational,
    from_path_sets,
    from_truth_table,
    has_ties,
    k_out_of_n,
    relative_quality,
    reliability_curve,
    state_distribution,
    system_reliability,
)
from sigrel.distribution import (
    _lifetime_exchangeability_witness,
    _weak_exchangeability_scan,
)
from sigrel.structure import SystemClass, StructureFunction, _monotone_tables

from conftest import (
    exchangeable_mixture,
    make_dist,
    orbit_dist,
    random_no_ties,
    shifted_ladders_dist,
    staggered_pairs_dist,
)


# --- oracles: the loops the sweeps replaced ---------------------------------


def quality_by_masks(d):
    full = (1 << d.n) - 1
    values = [Fraction(0)] * (1 << d.n)
    values[0] = Fraction(1)
    values[full] = Fraction(1)
    for mask in range(1, full):
        inside = [i for i in range(d.n) if (mask >> i) & 1]
        outside = [i for i in range(d.n) if not (mask >> i) & 1]
        acc = Fraction(0)
        for xs, p in d.atoms:
            if max(xs[i] for i in outside) < min(xs[i] for i in inside):
                acc += p
        values[mask] = acc
    return QualityFunction(d.n, tuple(values), from_tied=has_ties(d))


def states_by_atoms(d, t):
    """Dense 2**n table of state probabilities at t, filled atom by atom."""
    probs = [Fraction(0)] * (1 << d.n)
    for xs, p in d.atoms:
        index = 0
        for i, x in enumerate(xs):
            if x > t:
                index |= 1 << i
        probs[index] += p
    return probs


def survival_by_atoms(d, k, t):
    """P(X_(k:n) > t): the atoms with at least n - k + 1 lifetimes past t."""
    return sum(
        (p for xs, p in d.atoms if sum(1 for x in xs if x > t) >= d.n - k + 1), Fraction(0)
    )


def reliability_by_states(phi, probs):
    """Sum over all 2**n states of a dense state table."""
    return sum(
        (p for index, p in enumerate(probs) if p and phi.value(index)),
        Fraction(0),
    )


def curves_by_state_distributions(d, systems):
    """One dense state table per interval, shared by the systems."""
    bps = breakpoints(d)
    # On (0, b_1) every component is alive, so evaluating at b_1 / 2 is exact.
    tables = [states_by_atoms(d, t) for t in (bps[0] / 2, *bps)]
    return [
        ReliabilityCurve(bps, tuple(reliability_by_states(phi, probs) for probs in tables))
        for phi in systems
    ]


def weak_scan_by_permutation(d):
    if has_ties(d):
        raise TiesError("weak exchangeability needs a distribution without ties")
    bps = breakpoints(d)
    skipped = []
    for sigma in permutations(range(d.n)):
        members = []
        total = Fraction(0)
        for xs, p in d.atoms:
            if all(xs[sigma[i]] < xs[sigma[i + 1]] for i in range(d.n - 1)):
                members.append((xs, p))
                total += p
        if total == 0:
            skipped.append(tuple(s + 1 for s in sigma))
            continue
        for k in range(1, d.n + 1):
            for t in bps:
                unconditional = 1 - survival_by_atoms(d, k, t)
                conditional = (
                    sum((p for xs, p in members if sorted(xs)[k - 1] <= t), Fraction(0))
                    / total
                )
                if conditional != unconditional:
                    witness = (tuple(s + 1 for s in sigma), k, t, unconditional, conditional)
                    return False, witness, tuple(skipped)
    return True, None, tuple(skipped)


def lifetime_witness_lexicographic(d):
    base = {xs: p for xs, p in d.atoms}
    zero = Fraction(0)
    for sigma in permutations(range(d.n)):
        if sigma == tuple(range(d.n)):
            continue
        pushed = {}
        for xs, p in d.atoms:
            key = tuple(xs[sigma[i]] for i in range(d.n))
            pushed[key] = pushed.get(key, zero) + p
        if pushed != base:
            for xs in sorted(set(base) | set(pushed)):
                if base.get(xs, zero) != pushed.get(xs, zero):
                    return (
                        tuple(s + 1 for s in sigma),
                        xs,
                        base.get(xs, zero),
                        pushed.get(xs, zero),
                    )
    return None


def weak_witness_dict(wit):
    """The weak oracle's witness tuple in the report's format."""
    if wit is None:
        return None
    sigma, k, t, unconditional, conditional = wit
    return {
        "permutation": list(sigma),
        "k": k,
        "t": format_rational(t),
        "unconditional": format_rational(unconditional),
        "conditional": format_rational(conditional),
    }


def lifetime_witness_dict(wit):
    """The lifetime oracle's witness tuple in the report's format."""
    if wit is None:
        return None
    sigma, xs, p, p_pushed = wit
    return {
        "permutation": list(sigma),
        "lifetimes": [format_rational(x) for x in xs],
        "probability": format_rational(p),
        "permuted_probability": format_rational(p_pushed),
    }


def bits_by_shifts(phi):
    return "".join(str((phi.table >> j) & 1) for j in range(1 << phi.n))


# --- corpora ----------------------------------------------------------------


def perturbed_exchangeable(rng, n):
    """An exchangeable mixture with some atoms dropped and some reweighted.

    Dropping atoms empties some orderings (skipped by the weak scan) and
    reweighting breaks the symmetry, so both scans find real witnesses.
    """
    atoms = list(exchangeable_mixture(rng, n).atoms)
    kept = [(xs, p * rng.choice((1, 1, 1, 2, 3))) for xs, p in atoms if rng.random() > 0.3]
    kept = kept or atoms[:1]
    total = sum(p for _, p in kept)
    return LifetimeDistribution(n, tuple((xs, p / total) for xs, p in kept))


def tied_laws():
    rng = random.Random(4417)
    laws = [
        make_dist(3, [((1, 1, 2), 1)]),
        make_dist(3, [((2, 2, 2), Fraction(1, 2)), ((1, 3, 3), Fraction(1, 2))]),
        make_dist(2, [((1, 1), Fraction(1, 3)), ((1, 2), Fraction(2, 3))]),
        make_dist(4, [((1, 2, 2, 3), Fraction(1, 4)), ((3, 3, 1, 1), Fraction(3, 4))]),
    ]
    for n in (2, 3, 4):
        for _ in range(10):
            rows = {tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))}
            weights = [rng.randint(1, 5) for _ in rows]
            laws.append(
                make_dist(n, [(xs, Fraction(w, sum(weights))) for xs, w in zip(sorted(rows), weights)])
            )
    return laws


def two_component_laws():
    rng = random.Random(2202)
    laws = [staggered_pairs_dist()]
    laws += [random_no_ties(rng, 2, 1, 6) for _ in range(20)]
    laws += [exchangeable_mixture(rng, 2) for _ in range(10)]
    return laws


def block_orderings_law(n, k):
    """Uniform over the vectors whose components 1..k hold 1..k in some order
    and whose others hold k + 1..n: fixed exactly by S_k x S_(n-k)."""
    rows = [
        head + tail
        for head in permutations(range(1, k + 1))
        for tail in permutations(range(k + 1, n + 1))
    ]
    return make_dist(n, [(xs, Fraction(1, len(rows))) for xs in rows])


def generated_group(n, generators):
    """Every product of the generators, as index tuples."""
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        g = frontier.pop()
        for h in generators:
            gh = tuple(g[i] for i in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def random_generator(rng, n):
    """A random relabeling, a random swap of two components or of two blocks."""
    kind = rng.randrange(3)
    if kind == 0:
        return tuple(rng.sample(range(n), n))
    sigma = list(range(n))
    width = 1 if kind == 1 else rng.randint(1, n // 2)
    a = rng.randint(0, n - 2 * width)
    b = rng.randint(a + width, n - width)
    sigma[a : a + width], sigma[b : b + width] = sigma[b : b + width], sigma[a : a + width]
    return tuple(sigma)


def orbit_averages(rng, n):
    """A random tied law averaged over a group of 1-3 random generators, then
    the same with one atom's weight raised by one."""
    group = generated_group(n, [random_generator(rng, n) for _ in range(rng.randint(1, 3))])
    weights = {}
    for _ in range(rng.randint(1, 3)):
        xs, w = tuple(rng.randint(1, 3) for _ in range(n)), rng.randint(1, 3)
        for g in group:
            key = tuple(xs[i] for i in g)
            weights[key] = weights.get(key, 0) + w
    perturbed = dict(weights)
    perturbed[rng.choice(sorted(perturbed))] += 1
    return [
        make_dist(n, [(xs, Fraction(w, sum(table.values()))) for xs, w in table.items()])
        for table in (weights, perturbed)
    ]


@pytest.fixture(scope="module")
def stabilizer_corpus():
    """Laws fixed by non-trivial groups of relabelings."""
    rng = random.Random(1515)
    laws = [block_orderings_law(n, k) for n in range(3, 7) for k in range(1, n)]
    laws += [law for n in range(2, 7) for _ in range(8) for law in orbit_averages(rng, n)]
    # Fixed only by swapping components 1 and 3, which is not adjacent.
    laws.append(make_dist(3, [((1, 2, 3), Fraction(1, 2)), ((3, 2, 1), Fraction(1, 2))]))
    return laws


@pytest.fixture(scope="module")
def perturbed_corpus():
    rng = random.Random(7177)
    laws = [perturbed_exchangeable(rng, n) for n in (3, 4) for _ in range(40)]
    # One realized ordering only: the other orderings are skipped and the law
    # is trivially weakly exchangeable.
    laws.append(make_dist(3, [((1, 2, 3), Fraction(1, 3)), ((2, 4, 5), Fraction(2, 3))]))
    return laws


@pytest.fixture(scope="module")
def all_laws(theorem_corpus, signature_corpus, perturbed_corpus):
    laws = [d for _, d in theorem_corpus] + list(signature_corpus) + perturbed_corpus
    laws += [shifted_ladders_dist(), orbit_dist([1, 0, 0, 0, 0, 0]), orbit_dist([Fraction(1, 6)] * 6)]
    return laws + tied_laws() + two_component_laws()


def systems_for(n):
    """Constant and order-statistic systems, plus coherent ones at n = 3 (all) and 4."""
    size = 1 << n
    out = [from_truth_table(n, "0" * size), from_truth_table(n, "1" * size)]
    out += [k_out_of_n(n, k) for k in range(1, n + 1)]
    if n == 2:
        out.append(from_truth_table(2, "0101"))
    elif n <= 4:
        out += enumerate_systems(n, SystemClass.COHERENT)[:: 1 if n == 3 else 13]
    return out


# --- comparisons ------------------------------------------------------------


def test_relative_quality_matches_mask_loop(all_laws):
    for d in all_laws:
        got, want = relative_quality(d), quality_by_masks(d)
        assert got == want
        assert got.from_tied == want.from_tied


def test_reliability_curve_matches_state_distributions(all_laws):
    for d in all_laws:
        systems = systems_for(d.n)
        want = curves_by_state_distributions(d, systems)
        assert [reliability_curve(phi, d) for phi in systems] == want, d
        bps = breakpoints(d)
        for t in (bps[0] / 2, *bps):
            assert list(state_distribution(d, t).probs) == states_by_atoms(d, t), (d, t)


def test_system_reliability_matches_full_state_sum(all_laws):
    for d in all_laws:
        bps = breakpoints(d)
        for t in (bps[0] / 2, bps[len(bps) // 2], bps[-1] + 1):
            probs = states_by_atoms(d, t)
            for phi in systems_for(d.n):
                assert system_reliability(phi, d, t) == reliability_by_states(phi, probs)


def test_weak_scan_matches_per_permutation_loop(all_laws, perturbed_corpus):
    outcomes = []
    for d in all_laws:
        if has_ties(d):
            with pytest.raises(TiesError):
                _weak_exchangeability_scan(d)
            continue
        got = _weak_exchangeability_scan(d)
        holds, witness, skipped = weak_scan_by_permutation(d)
        assert got == (weak_witness_dict(witness), skipped), d
        assert holds == (got[0] is None)
        outcomes.append((holds, skipped))
    # The corpus exercises witnesses, holding laws, and skipped orderings.
    assert any(holds for holds, _ in outcomes)
    assert any(not holds for holds, _ in outcomes)
    assert any(skipped for holds, skipped in outcomes if holds)
    assert any(skipped for holds, skipped in outcomes if not holds)


def test_lifetime_witness_matches_lexicographic_scan(all_laws, stabilizer_corpus):
    laws = all_laws + stabilizer_corpus
    witnesses = [_lifetime_exchangeability_witness(d) for d in laws]
    assert witnesses == [lifetime_witness_dict(lifetime_witness_lexicographic(d)) for d in laws]
    assert any(w is None for w in witnesses)
    assert any(w is not None for w in witnesses)
    # Each witness is an adjacent transposition; at some n >= 4 every position occurs.
    positions = {}
    for d, w in zip(laws, witnesses):
        if w is not None:
            i = next(j for j, c in enumerate(w["permutation"]) if c != j + 1)
            assert w["permutation"] == [*range(1, i + 1), i + 2, i + 1, *range(i + 3, d.n + 1)]
            positions.setdefault(d.n, set()).add(i)
    assert any(positions.get(n) == set(range(n - 1)) for n in range(4, 7))


def test_lifetime_witness_needs_more_than_the_first_transposition():
    # Invariant under swapping components 1 and 2 but not 2 and 3: the last
    # adjacent transposition moves the law and is the first witness.
    d = make_dist(3, [((1, 2, 3), Fraction(1, 2)), ((2, 1, 3), Fraction(1, 2))])
    want = lifetime_witness_lexicographic(d)
    assert _lifetime_exchangeability_witness(d) == lifetime_witness_dict(want)
    assert want[0] == (1, 3, 2)


def test_bits_match_per_entry_join():
    for n in range(2, 6):
        for table in _monotone_tables(n):
            phi = StructureFunction(n, table)
            assert phi.bits() == bits_by_shifts(phi)
    for system_class in SystemClass:
        for phi in appendix_basis(9, system_class):
            assert phi.bits() == bits_by_shifts(phi)


# --- runtime ceilings at the sizes of the sweeps ------------------------------


def test_diagnose_n6_exchangeable_mixture_runtime():
    # Three blocks on disjoint values: 3 * 720 = 2,160 atoms, 18 breakpoints.
    weights = (1, 2, 3)
    total = sum(weights) * math.factorial(6)
    rows = []
    for b, w in enumerate(weights):
        for perm in permutations(range(6 * b + 1, 6 * b + 7)):
            rows.append((perm, Fraction(w, total)))
    d = make_dist(6, rows)
    assert len(d.atoms) == 2160
    start = time.perf_counter()
    report = diagnose(d).to_json()
    assert time.perf_counter() - start < 10.0
    conditions = report["conditions"]
    assert conditions.pop("has_ties") is False
    assert all(value is True for value in conditions.values())
    assert all(value is True for value in report["verdicts"].values())
    assert report["skipped_orderings"] == []


def test_diagnose_n8_lifetime_witness_runtime():
    # Component 1 fails first, components 2..8 in each of their 5,040 orders:
    # only the relabelings that fix component 1 fix the law.
    rows = [((1, *perm), Fraction(1, 5040)) for perm in permutations(range(2, 9))]
    d = make_dist(8, rows)
    start = time.perf_counter()
    report = diagnose(d).to_json()
    assert time.perf_counter() - start < 5.0
    assert report["witnesses"]["lifetimes_exchangeable"]["permutation"] == [2, 1, 3, 4, 5, 6, 7, 8]


def test_reliability_curve_n12_runtime():
    rng = random.Random(1212)
    weights = [rng.randint(1, 9) for _ in range(100)]
    rows = [
        (tuple(rng.sample(range(1, 100001), 12)), Fraction(w, sum(weights))) for w in weights
    ]
    d = make_dist(12, rows)
    phi = from_path_sets(12, [[1, 2, 3], [4, 5], [6, 7, 8, 9], [2, 10], [11, 12, 1]])
    start = time.perf_counter()
    curve = reliability_curve(phi, d)
    assert time.perf_counter() - start < 1.0
    # Per atom: fail the components in lifetime order until the system is down.
    failing = {}
    for xs, p in d.atoms:
        state = (1 << 12) - 1
        for comp in sorted(range(12), key=xs.__getitem__):
            state &= ~(1 << comp)
            if not phi.value(state):
                failing[xs[comp]] = failing.get(xs[comp], Fraction(0)) + p
                break
    values = [Fraction(1)]
    for t in curve.breakpoints:
        values.append(values[-1] - failing.get(t, Fraction(0)))
    assert len(curve.breakpoints) > 1000
    assert curve.values == tuple(values)
