"""The law, curve, quality and oracle on int ranks, and the truth tables from masks,
against the Fraction and bit-at-a-time loops they replaced.

The reference functions below are the earlier library code, kept here as
oracles: the canonical form of a law by merging and sorting Fraction
vectors, its breakpoints by sorting the distinct Fraction lifetimes, its D,
its ranks and the scale of a weight function from their Fraction
definitions, the reliability curve by bisecting each atom's Fraction system
lifetime (``lifetime_by_definition``, the earlier ``system_lifetime``) into
the breakpoints, the relative quality by a dense Fraction table filled atom
by atom, the probability-signature oracle by locating each Fraction system
lifetime among the sorted lifetimes, and the truth-table
builders by one shift per state index. Every comparison is exact. A guard counts Fraction
comparisons on a 100-atom n = 10 law with 1,000 distinct lifetimes, and another the
Fraction additions, subtractions and products while three laws are built: none.
"""

import bisect
import math
import random
from fractions import Fraction
from itertools import accumulate
from operator import sub

import pytest

from sigrel import (
    LifetimeDistribution,
    QualityFunction,
    ReliabilityCurve,
    Signature,
    StructureFunction,
    SystemClass,
    TiesError,
    WeightFunction,
    appendix_basis,
    distribution_from_json,
    enumerate_systems,
    from_path_sets,
    from_truth_table,
    has_ties,
    k_out_of_n,
    probability_signature,
    probability_signature_oracle,
    relative_quality,
    reliability_curve,
    system_lifetime,
    weighted_phi_level,
)
from sigrel.reliability import _stopping_entry
from sigrel.structure import _low_side_mask, _monomial_table, _monotone_tables

from conftest import (
    exchangeable_mixture, lifetime_by_definition, make_dist, random_no_ties, shifted_ladders_dist,
    staggered_pairs_dist,
)
from test_integer_scan import PRIMES, coprime_law
from test_sweeps import systems_for, tied_laws


# --- oracles: the Fraction loops --------------------------------------------


def canonical_atoms_by_fractions(atoms):
    """Lifetimes coerced, duplicate vectors merged, atoms sorted as Fraction tuples."""
    merged = {}
    for xs, p in atoms:
        xs = tuple(Fraction(x) for x in xs)
        merged[xs] = merged.get(xs, Fraction(0)) + Fraction(p)
    return tuple(sorted(merged.items()))


def breakpoints_by_fractions(d):
    return tuple(sorted({x for xs, _ in d.atoms for x in xs}))


def denominator_by_fractions(d):
    return math.lcm(*(p.denominator for _, p in d.atoms))


def ranked_atoms_by_fractions(d):
    rank = {t: b for b, t in enumerate(breakpoints_by_fractions(d))}
    D = denominator_by_fractions(d)
    return tuple((tuple(rank[x] for x in xs), int(p * D)) for xs, p in d.atoms)


def scale_by_fractions(w):
    """(denominator, numerators) of a weight function: the least D with every w(x) * D an int."""
    D = math.lcm(*(v.denominator for v in w.values))
    scaled = [v * D for v in w.values]
    assert all(v.denominator == 1 for v in scaled)
    return D, tuple(map(int, scaled))


def curve_by_lifetimes(phi, d):
    bps = breakpoints_by_fractions(d)
    if not phi.semicoherent:
        return ReliabilityCurve(bps, (Fraction(phi.value(0)),) * (len(bps) + 1))
    failing = [Fraction(0)] * len(bps)
    for xs, p in d.atoms:
        failing[bisect.bisect_left(bps, lifetime_by_definition(phi, xs))] += p
    return ReliabilityCurve(bps, tuple(accumulate(failing, sub, initial=Fraction(1))))


def quality_by_atoms(d):
    values = [Fraction(0)] * (1 << d.n)
    for xs, p in d.atoms:
        order = sorted(range(d.n), key=xs.__getitem__, reverse=True)
        mask = 0
        for j in range(d.n - 1):
            mask |= 1 << order[j]
            if xs[order[j]] > xs[order[j + 1]]:
                values[mask] += p
    values[0] = values[-1] = Fraction(1)
    return QualityFunction(d.n, tuple(values))


def oracle_by_lifetimes(phi, d):
    acc = [Fraction(0)] * d.n
    for xs, p in d.atoms:
        acc[sorted(xs).index(lifetime_by_definition(phi, xs))] += p
    return Signature(tuple(acc))


# --- oracles: one shift per state index ---------------------------------------


def low_side_mask_by_segments(n, var):
    block = 1 << var
    mask = 0
    for start in range(0, 1 << n, block << 1):
        mask |= ((1 << block) - 1) << start
    return mask


def table_by_entries(bits):
    table = 0
    for j, entry in enumerate(bits):
        table |= int(entry) << j
    return table


def path_table_by_states(n, paths):
    masks = [sum(1 << (c - 1) for c in path) for path in paths]
    return sum(1 << j for j in range(1 << n) if any(j & m == m for m in masks))


def k_out_of_n_by_states(n, k):
    return sum(1 << j for j in range(1 << n) if j.bit_count() >= n - k + 1)


def monomial_by_states(n, subset):
    return sum(1 << j for j in range(1 << n) if j & subset == subset)


def level_numerators_by_shifts(w, phi):
    levels = [0] * (w.n + 1)
    for index in range(1, 1 << w.n):
        if phi.table >> index & 1:
            levels[index.bit_count()] += w.numerators[index]
    return tuple(levels)


# --- corpora ----------------------------------------------------------------


def large_grid_law(rng, n, n_atoms):
    """Tie-free lifetimes over many distinct prime denominators, so the grid
    scale L is their product, with some vectors repeated in another spelling."""
    rows = []
    while len(rows) < n_atoms:
        xs = tuple(Fraction(rng.randint(1, 60), rng.choice(PRIMES)) for _ in range(n))
        if len(set(xs)) == n:
            rows.append((xs, rng.randint(1, 9)))
    rows += [(tuple(str(x) for x in xs), w) for xs, w in rows[::4]]
    total = sum(w for _, w in rows)
    return [(xs, Fraction(w, total)) for xs, w in rows]


def raw_laws():
    """(n, atoms as given) pairs: every shape of law the library accepts."""
    rng = random.Random(1919)
    laws = [(d.n, d.atoms) for d in (shifted_ladders_dist(), staggered_pairs_dist(), *tied_laws())]
    laws += [(n, d.atoms) for n in (3, 4) for d in (random_no_ties(rng, n) for _ in range(10))]
    laws += [(4, coprime_law(rng, 4, 8).atoms)]
    laws += [(n, large_grid_law(rng, n, 30)) for n in (2, 3, 4, 5)]
    # Duplicate vectors, shuffled, spelled as ints, strings and Fractions.
    half, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    laws += [
        (2, [((2, 1), quarter), (("1", "2"), quarter), ((Fraction(2), "1"), half)]),
        (3, [(("3/2", 1, "1/2"), third), ((half, 1, 3), third),
             (("6/4", Fraction(2, 2), "2/4"), third)]),
    ]
    for n, atoms in list(laws):
        atoms = list(atoms)
        rng.shuffle(atoms)
        laws.append((n, atoms))
    return laws


@pytest.fixture(scope="module")
def laws(theorem_corpus):
    return [LifetimeDistribution(n, tuple(atoms)) for n, atoms in raw_laws()] + [
        d for _, d in theorem_corpus
    ]


# --- comparisons: the law, curve, quality and oracle ---------------------------


def test_canonical_form_matches_fraction_sort(theorem_corpus):
    seen_large = False
    for n, atoms in raw_laws() + [(d.n, d.atoms) for _, d in theorem_corpus]:
        d = LifetimeDistribution(n, tuple(atoms))
        assert d.atoms == canonical_atoms_by_fractions(atoms)
        assert d.breakpoints == breakpoints_by_fractions(d)
        assert d.denominator == denominator_by_fractions(d)
        assert d.ranked_atoms == ranked_atoms_by_fractions(d)
        assert d == LifetimeDistribution(n, canonical_atoms_by_fractions(atoms))
        seen_large |= len({x.denominator for xs, _ in d.atoms for x in xs}) >= 10
    assert seen_large


def test_reliability_curve_matches_lifetime_bisect(laws):
    constants = set()  # the library sweeps the chains for these too; the oracle does not
    for d in laws:
        for phi in systems_for(d.n):
            assert reliability_curve(phi, d) == curve_by_lifetimes(phi, d), (phi, d)
            if not phi.semicoherent:
                constants.add((phi.table == 0, has_ties(d)))
    assert constants == {(True, True), (True, False), (False, True), (False, False)}


def test_stopping_entry_of_the_constant_systems():
    """No chain stops the all-ones table, and every chain stops the table 0 at its first
    entry, rank -1 with every component working."""
    tied_and_untied = [make_dist(3, [((1, 1, 2), 1)]), staggered_pairs_dist()]
    assert [has_ties(d) for d in tied_and_untied] == [True, False]
    for d in tied_and_untied:
        full = (1 << d.n) - 1
        ones, zero = StructureFunction(d.n, (1 << (full + 1)) - 1), StructureFunction(d.n, 0)
        for chain in d.state_chains:
            assert _stopping_entry(ones, chain) is None
            assert _stopping_entry(zero, chain) == (-1, full)


def test_state_chains_hold_the_working_set_after_each_distinct_rank(laws):
    assert any(has_ties(d) for d in laws)
    for d in laws:
        want = [
            ((-1, (1 << d.n) - 1),
             *((v, sum(1 << i for i, r in enumerate(ranks) if r > v)) for v in sorted(set(ranks))))
            for ranks, _ in d.ranked_atoms
        ]
        assert list(d.state_chains) == want, d


def test_the_merge_pass_sets_the_chains_and_the_first_read_sets_cdfs(laws):
    """A fresh law holds its chains before any attribute is read; the order-statistic
    sweep is built on its first read and kept."""
    assert "state_chains" not in vars(LifetimeDistribution)
    for d in laws:
        fresh = LifetimeDistribution(d.n, d.atoms)
        held = vars(fresh)
        assert "state_chains" in held and "cdfs" not in held
        assert held["state_chains"] == d.state_chains
        assert fresh.cdfs is fresh.cdfs and held["cdfs"] == d.cdfs


def test_system_lifetime_is_where_the_one_atom_curve_drops_to_zero():
    # The definition and the curve share no code: one reads Fraction lifetimes, the
    # other the state chain of a one-atom law.
    rng = random.Random(3131)
    kinds = set()
    for n in (2, 3, 4):
        systems = [StructureFunction(n, table) for table in _monotone_tables(n)]
        systems = [phi for phi in systems if phi.semicoherent]
        for _ in range(8):
            xs = tuple(Fraction(rng.randint(1, 2 * n), rng.randint(1, 3)) for _ in range(n))
            d = LifetimeDistribution(n, ((xs, 1),))
            kinds.add(has_ties(d))
            for phi in systems:
                curve = reliability_curve(phi, d)
                drop = curve.breakpoints[curve.values.index(0) - 1]
                assert lifetime_by_definition(phi, xs) == drop, (phi, xs)
    assert kinds == {False, True}


def realizations(rng, n, count):
    """Seeded lifetime vectors at n, half of them drawn from few values so that they tie."""
    out = []
    for i in range(count):
        top = 2 * n if i % 2 else n // 2 + 1
        out.append(tuple(Fraction(rng.randint(1, top), rng.randint(1, 3)) for _ in range(n)))
    return out


def test_system_lifetime_matches_its_definition():
    rng = random.Random(4747)
    kinds = set()
    for n in (2, 3, 4, 5, 6, 7, 8):
        if n <= 4:
            systems = [StructureFunction(n, table) for table in _monotone_tables(n)]
            systems = [phi for phi in systems if phi.semicoherent]
        else:
            systems = [k_out_of_n(n, k) for k in range(1, n + 1)]
            for _ in range(6):
                paths = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(4)]
                systems.append(from_path_sets(n, paths[: rng.randint(1, 4)]))
        for xs in realizations(rng, n, 10):
            kinds.add(len(set(xs)) < n)
            for phi in systems:
                assert system_lifetime(phi, xs) == lifetime_by_definition(phi, xs), (phi, xs)
    assert kinds == {False, True}


def test_relative_quality_matches_dense_fraction_loop(laws):
    for d in laws:
        got, want = relative_quality(d), quality_by_atoms(d)
        assert got == want
        assert (got.denominator, got.numerators) == scale_by_fractions(want)
        assert got.from_tied == want.from_tied == has_ties(d)


def test_probability_signature_oracle_matches_fraction_oracle(laws):
    checked = 0
    for d in laws:
        for phi in systems_for(d.n):
            if has_ties(d):
                with pytest.raises(TiesError):
                    probability_signature_oracle(phi, d)
            elif not phi.semicoherent:
                messages = []
                for oracle in (probability_signature_oracle, oracle_by_lifetimes):
                    with pytest.raises(ValueError) as exc:
                        oracle(phi, d)
                    messages.append(str(exc.value))
                assert messages[0] == messages[1]
            else:
                assert probability_signature_oracle(phi, d) == oracle_by_lifetimes(phi, d)
                checked += 1
    assert checked


def wide_law(rng, n, n_atoms):
    """Tie-free atoms whose n * n_atoms lifetimes are distinct, as JSON strings."""
    values = rng.sample(range(1, 10**6), n * n_atoms)
    weights = [rng.randint(1, 9) for _ in range(n_atoms)]
    return {
        "n": n,
        "atoms": [
            {"x": [f"{v}/8" for v in values[a * n : (a + 1) * n]], "p": f"{w}/{sum(weights)}"}
            for a, w in enumerate(weights)
        ],
    }


def test_fraction_comparisons_stay_below_four_per_lifetime(monkeypatch):
    rng = random.Random(1010)
    obj = wide_law(rng, 10, 100)
    phi = from_path_sets(10, [[1, 2, 3], [4, 5], [6, 7, 8], [2, 9, 10]])
    calls = 0
    richcmp = Fraction._richcmp

    def counting(self, other, op):
        nonlocal calls
        calls += 1
        return richcmp(self, other, op)

    monkeypatch.setattr(Fraction, "_richcmp", counting)
    d = distribution_from_json(obj)
    curve = reliability_curve(phi, d)
    signature = probability_signature(phi, relative_quality(d))
    assert signature == probability_signature_oracle(phi, d)
    curve.to_json()
    monkeypatch.undo()
    assert len(d.breakpoints) == 1000
    assert calls <= 4 * len(d.breakpoints)
    assert curve == curve_by_lifetimes(phi, d)


def test_building_a_law_does_no_fraction_arithmetic(monkeypatch):
    """Each probability is read once as an int mass: building a wide law, a many-atom
    exchangeable law and a law whose merged probabilities reduce (1/4 + 1/4 beside 1/2,
    so D = 2 below the input's 4) calls no Fraction +, - or *."""
    rng = random.Random(4646)
    obj = wide_law(rng, 10, 100)
    merge_atoms = (((1, 2), "1/4"), (("1", "2"), Fraction(1, 4)), ((2, 1), "1/2"))
    calls = []

    def counting(name):
        operation = getattr(Fraction, name)

        def count(self, other):
            calls.append(name)
            return operation(self, other)
        return count

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, counting(name))
    wide = distribution_from_json(obj)
    exchangeable = exchangeable_mixture(rng, 5)
    merged = LifetimeDistribution(2, merge_atoms)
    assert calls == []
    assert Fraction(1, 4) + Fraction(1, 4) == Fraction(1, 2) and calls == ["__add__"]  # counted
    monkeypatch.undo()
    assert len(wide.breakpoints) == 1000 and len(exchangeable.atoms) >= 120
    assert merged.atoms == canonical_atoms_by_fractions(merge_atoms)
    assert merged.denominator == denominator_by_fractions(merged) == 2
    assert merged.ranked_atoms == ranked_atoms_by_fractions(merged) == (((0, 1), 1), ((1, 0), 1))


# --- comparisons: truth tables from masks ---------------------------------------


def test_low_side_masks_match_segment_loop():
    for n in range(1, 13):
        for var in range(n):
            assert _low_side_mask(n, var) == low_side_mask_by_segments(n, var)


def test_truth_tables_match_per_entry_shifts():
    for n in range(2, 5):
        for table in _monotone_tables(n):
            bits = StructureFunction(n, table).bits()
            for spelling in (bits, list(bits), [int(b) for b in bits]):
                assert from_truth_table(n, spelling).table == table_by_entries(spelling) == table
    for phi in appendix_basis(9, SystemClass.COHERENT)[::37]:
        assert from_truth_table(9, phi.bits()).table == table_by_entries(phi.bits())


def test_path_sets_k_out_of_n_and_monomials_match_state_loops():
    rng = random.Random(2323)
    for n in range(2, 11):
        for _ in range(5):
            count = rng.randint(1, 5)
            paths = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(count)]
            assert from_path_sets(n, paths).table == path_table_by_states(n, paths)
        for k in range(1, n + 1):
            assert k_out_of_n(n, k).table == k_out_of_n_by_states(n, k)
    for n in range(1, 8):
        for subset in range(1 << n):
            assert _monomial_table(n, subset) == monomial_by_states(n, subset)


def test_level_numerators_match_per_index_shifts(theorem_corpus):
    rng = random.Random(3535)
    weights = [WeightFunction.symmetric(3)]
    weights += [relative_quality(d) for _, d in theorem_corpus[::20]]
    # Arbitrary weights: any sign, zeros, unrelated denominators.
    weights += [
        WeightFunction(3, [Fraction(rng.randint(-9, 9), rng.choice(PRIMES)) for _ in range(8)])
        for _ in range(5)
    ]
    systems = enumerate_systems(3, SystemClass.COHERENT) + tuple(systems_for(3))
    cases = [(w, phi) for w in weights for phi in systems]
    cases.append(
        (WeightFunction.symmetric(10), from_path_sets(10, [[1, 2, 3], [4, 5], [6, 7, 8], [2, 9, 10]]))
    )
    for w in {w for w, _ in cases} | {WeightFunction.symmetric(n) for n in range(1, 13)}:
        assert (w.denominator, w.numerators) == scale_by_fractions(w)
    for w, phi in cases:
        levels, n = level_numerators_by_shifts(w, phi), w.n
        # Differenced from the top: entry k is W(n - k + 1) - W(n - k).
        expected = tuple(levels[n - k + 1] - levels[n - k] for k in range(1, n + 1))
        assert w.signature_numerators(phi) == expected
        for k in range(n + 1):
            assert weighted_phi_level(phi, w, k) == Fraction(levels[k], w.denominator)
