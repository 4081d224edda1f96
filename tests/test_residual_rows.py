"""verify_theorems as linear algebra on truth tables, against the slow paths.

``verify_by_integer_scan`` is the earlier library scan, kept here as the
oracle: every system of the class, one at a time, with its integer signature
mixture compared against its reliability at every breakpoint. The residual
rows and the table enumeration must give the same reports and tables as the
per-system scan and the filtered objects. ``eager_first_breaking`` is the
earlier library witness search, which builds the whole echelon basis before it
looks at a table: the witness-first search must give its witnesses and origins.
``rank_by_kernel`` is the earlier library rank, an elimination of sparse kernel
functionals that is not seeded: ``class_rank`` and ``rank_over_rationals``, both
the seeded echelon, must give its ranks.
"""

import math
import random
from fractions import Fraction
from itertools import compress, islice, pairwise
from operator import mul

import pytest

from sigrel import (
    BASIS_LIMIT,
    ENUMERATION_LIMIT,
    DiagnosisReport,
    StructureFunction,
    SystemClass,
    TheoremCheck,
    WeightFunction,
    appendix_basis,
    diagnose,
    enumerate_systems,
    format_rational,
    from_path_sets,
    k_out_of_n,
    parse_rational,
    rank_over_rationals,
    relative_quality,
    system_to_json,
    verify_theorems,
)
from sigrel import reliability
from sigrel.distribution import evaluate_conditions, state_support
from sigrel.reliability import _residual_rows
from sigrel.structure import (
    _class_tables,
    _monotone_tables,
    class_rank,
    class_tables,
    echelon,
)

from conftest import exchangeable_mixture, make_dist, random_no_ties
from test_integer_scan import (
    REPRESENTATION_KEYS,
    classes_for,
    comonotone_law,
    coprime_law,
    distinct_lifetime_law,
)
from test_sweeps import perturbed_corpus, perturbed_exchangeable, tied_laws  # noqa: F401

ALLOWED = [(n, c) for c in SystemClass for n in range(c.min_components, 6)]


# --- oracle: the per-system integer scan -------------------------------------


def verify_by_integer_scan(n, d, system_class):
    systems = enumerate_systems(n, system_class)
    supports = [state_support(d, t) for t in d.breakpoints]
    weights, fields = evaluate_conditions(d, supports)
    ties, witnesses = fields["has_ties"], fields["witnesses"]
    symmetric = WeightFunction.symmetric(n)
    D = d.denominator
    # P(X_(k:n) > t) times D at each breakpoint, read straight from the sweep.
    survivals = [[D - row[b] for row in d.cdfs] for b in range(len(d.breakpoints))]

    def strings(sig, scale):
        return tuple(format_rational(Fraction(s, scale)) for s in sig)

    def representation_witness(phi, sig, scale):
        for t, surv, support in zip(d.breakpoints, survivals, supports):
            lhs = sum(map(mul, sig, surv))
            rhs = scale * sum(p for x, p in support.items() if phi.value(x))
            if lhs != rhs:
                return {
                    "system": system_to_json(phi),
                    "t": format_rational(t),
                    "representation": format_rational(Fraction(lhs, scale * D)),
                    "reliability": format_rational(Fraction(rhs, scale * D)),
                }
        return None

    L, Q = symmetric.denominator, weights.denominator
    boland_wit = prob_wit = agree_wit = None
    for phi in systems:
        design = symmetric.signature_numerators(phi)
        if boland_wit is None:
            boland_wit = representation_witness(phi, design, L)
        if not ties:
            probability = weights.signature_numerators(phi)
            if prob_wit is None:
                prob_wit = representation_witness(phi, probability, Q)
            if agree_wit is None and any(a * Q != b * L for a, b in zip(design, probability)):
                agree_wit = {
                    "system": system_to_json(phi),
                    "boland": strings(design, L),
                    "probability": strings(probability, Q),
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
    rank = rank_over_rationals(systems)
    relation = "iff" if rank == (1 << n) - 1 else "if"
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
        n=d.n,
        breakpoints=d.breakpoints,
        **fields,
        boland_repr_all_systems=boland_all,
        prob_repr_all_systems=prob_all,
        both_representations=both,
        system_class=system_class,
        systems_checked=len(systems),
        class_rank=rank,
        theorem_checks=tuple(TheoremCheck(name, relation, lhs, rhs) for name, lhs, rhs in claims),
    ).to_json()


# --- oracle: the eager witness search ----------------------------------------


def eager_first_breaking(n, tables, rows):
    """The whole echelon basis first, then the first table that some basis row does
    not annihilate, with the origin of the first such row; (None, None) if none."""
    basis = list(islice(echelon(rows), (1 << n) - 1 - n))
    for table in tables:
        works = [table >> x & 1 for x in range(1 << n)]
        for origin, row in basis:
            if sum(compress(row, works)):
                return table, origin
    return None, None


# --- corpus -------------------------------------------------------------------


def seeded_n5_laws():
    """Generic, comonotone, distinct-lifetime, coprime and exchangeable laws at n = 5."""
    rng = random.Random(5150)
    return [
        random_no_ties(rng, 5),
        random_no_ties(rng, 5, 12, 16),
        comonotone_law(rng, 5, 2),
        comonotone_law(rng, 5, 3),
        distinct_lifetime_law(rng, 5, 60),
        coprime_law(rng, 5, 5),
        exchangeable_mixture(rng, 5),
    ]


def small_grid_law(rng, n):
    """A few atoms on the lifetimes 1..n - 1: ties inside and across atoms."""
    rows = {tuple(rng.randint(1, n - 1) for _ in range(n)) for _ in range(rng.randint(2, 5))}
    weights = [rng.randint(1, 5) for _ in rows]
    return make_dist(n, [(xs, Fraction(w, sum(weights))) for xs, w in zip(sorted(rows), weights)])


def witness_laws():
    """The tied laws (n = 2..4) and seeded distinct-lifetime, exchangeable, comonotone,
    generic and small-grid laws at n = 3..5."""
    rng = random.Random(1010)
    laws = tied_laws()
    for n in (3, 4, 5):
        laws += [
            distinct_lifetime_law(rng, n, 6 * n),
            exchangeable_mixture(rng, n),
            comonotone_law(rng, n, 3),
            random_no_ties(rng, n),
            small_grid_law(rng, n),
        ]
    return laws


@pytest.fixture(scope="module")
def residual_corpus(theorem_corpus, perturbed_corpus):
    rng = random.Random(6060)
    laws = [d for _, d in theorem_corpus] + tied_laws() + perturbed_corpus
    laws += [perturbed_exchangeable(rng, 5) for _ in range(2)]
    laws += [distinct_lifetime_law(rng, n, 8 * n) for n in (2, 3, 4)]
    return laws + seeded_n5_laws()


# --- comparisons --------------------------------------------------------------


def test_residual_rows_match_integer_scan(residual_corpus):
    reports = []
    for d in residual_corpus:
        for system_class in classes_for(d.n):
            got = verify_theorems(d, system_class).to_json()
            assert got == verify_by_integer_scan(d.n, d, system_class), (d, system_class)
            if got["class_rank"] == (1 << d.n) - 1:  # the verdicts diagnose predicts
                assert got["verdicts"] == diagnose(d).to_json()["verdicts"], (d, system_class)
            reports.append(got)
    # Every representation witness and its absence occur, at n = 5 too, under
    # both classes, with and without ties.
    for key in REPRESENTATION_KEYS:
        assert any(key in r["witnesses"] for r in reports if r["n"] == 5), key
        assert any(
            key not in r["witnesses"] and r["verdicts"]["both_representations"] is not None
            for r in reports
            if r["n"] == 5
        ), key
    assert any(r["verdicts"]["prob_repr_all_systems"] is None for r in reports)
    assert {r["class"] for r in reports} == {c.value for c in SystemClass}
    assert {r["n"] for r in reports} == {2, 3, 4, 5}


def test_witness_first_search_matches_the_eager_search():
    """Each claim's witness and its time, the origin of its first breaking basis row, are
    those of the eager search, under both classes; the series system is never one."""
    origins = []
    for d in witness_laws():
        n, supports = d.n, [state_support(d, t) for t in d.breakpoints]
        weights, fields = evaluate_conditions(d, supports)
        symmetric = WeightFunction.symmetric(n)
        scans = [("boland_repr", _residual_rows(symmetric, d, supports))]
        if not fields["has_ties"]:
            scans.append(("prob_repr", _residual_rows(weights, d, supports)))
            L, Q = symmetric.denominator, weights.denominator
            gap = [a * Q - b * L for a, b in zip(symmetric.numerators, weights.numerators)]
            levels = [
                [g * (x.bit_count() == m) for x, g in enumerate(gap)] for m in range(1, n + 1)
            ]
            scans.append(("signature_agreement", levels))
        scans = [(key, list(rows)) for key, rows in scans]
        for system_class in classes_for(n):
            tables = class_tables(n, system_class)
            witnesses = verify_theorems(d, system_class).witnesses
            for key, rows in scans:
                table, origin = eager_first_breaking(n, tables, rows)
                if table is None:
                    assert key not in witnesses, (d, system_class, key)
                    continue
                assert table != tables[0], (d, system_class, key)
                found = witnesses[key]
                assert found["system"] == system_to_json(StructureFunction(n, table))
                if key != "signature_agreement":
                    assert found["t"] == format_rational(d.breakpoints[origin]), (d, key)
                    origins.append((n, system_class, origin))
    # Witnesses under both classes at n = 3..5, some past the first breakpoint; at n = 2
    # every row annihilates both systems, as it does the series system at every n.
    expected = {(n, c) for n in (3, 4, 5) for c in SystemClass}
    assert {(n, c) for n, c, _ in origins} == expected
    assert any(origin > 0 for _, _, origin in origins)


def test_class_tables_match_filtered_objects():
    for n, system_class in ALLOWED:
        systems = (StructureFunction(n, table) for table in _monotone_tables(n))
        expected = [phi.table for phi in systems if len(phi.essential) == n]
        assert list(class_tables(n, system_class)) == expected, (n, system_class)
        assert [phi.table for phi in enumerate_systems(n, system_class)] == expected
    for n in (3, 4, 5):
        assert class_tables(n, SystemClass.COHERENT) is class_tables(n, SystemClass.SEMICOHERENT)


def test_the_first_class_table_is_the_series_system(residual_corpus):
    """The witness search skips ``class_tables(n, c)[0]``: it is the series system, which
    works only at state 2**n - 1, where every residual row is 0."""
    for c in SystemClass:
        for n in range(c.min_components, ENUMERATION_LIMIT + 1):
            assert class_tables(n, c)[0] == 1 << (2**n - 1), (n, c)
    for d in residual_corpus:
        supports = (state_support(d, t) for t in d.breakpoints)
        rows = _residual_rows(WeightFunction.symmetric(d.n), d, supports)
        assert all(row[-1] == 0 for row in rows), d


def rank_by_kernel(n, tables):
    """Rank of the 0/1 table rows: the touched columns minus the dimension of
    the functionals on them that vanish on every row, kept as sparse dicts of
    ints and updated by integer cross-multiplication, one row at a time."""
    touched = 0
    for table in tables:
        touched |= table
    kernel = [{j: 1} for j in range(1 << n) if touched >> j & 1]
    width = len(kernel)
    for table in tables:
        if not kernel:
            break
        row = {j for j in range(1 << n) if table >> j & 1}
        values = [sum(c for j, c in y.items() if j in row) for y in kernel]
        pos = next((i for i, v in enumerate(values) if v), None)
        if pos is None:
            continue
        pivot = kernel.pop(pos)
        a = values.pop(pos)
        for i, b in enumerate(values):
            if not b:
                continue
            # a * y - b * pivot vanishes on the row and on every earlier one.
            z = {j: a * c for j, c in kernel[i].items()}
            for j, c in pivot.items():
                v = z.get(j, 0) - b * c
                if v:
                    z[j] = v
                else:
                    del z[j]
            g = math.gcd(*z.values())
            kernel[i] = {j: c // g for j, c in z.items()}
    return width - len(kernel)


def rank_inputs():
    """(label, n, systems): the classes, the spanning families and the inputs
    that take each branch of the seeding rule."""
    inputs = [(f"class {c.value} n={n}", n, enumerate_systems(n, c)) for n, c in ALLOWED]
    for c in SystemClass:
        for n in range(c.min_components, 9):
            inputs.append((f"basis {c.value} n={n}", n, appendix_basis(n, c)))
    # 2**n - 1 or more tables that lack one family member: the unseeded branch.
    coherent = SystemClass.COHERENT
    member = appendix_basis(5, coherent)[7]
    missing = [phi for phi in enumerate_systems(5, coherent) if phi != member]
    inputs.append(("class n=5 minus a family member", 5, missing))
    # The 20 monotone functions of components 1..3 at n = 4: more than 2**4 - 1
    # tables without the family, whose span has dimension only 8.
    lifted = [StructureFunction(4, t | t << 8) for t in _monotone_tables(3)]
    inputs.append(("n=4 functions of three components", 4, lifted))
    inputs.append(("two n=12 functions", 12, [k_out_of_n(12, 3), k_out_of_n(12, 7)]))
    above = [k_out_of_n(13, 1), k_out_of_n(13, 13), from_path_sets(13, [[1, 2], [3, 13]])]
    inputs.append(("three n=13 functions", 13, above))
    zero = StructureFunction(3, 0)
    inputs.append(("all-zero tables", 3, [zero, zero]))
    inputs.append(("no functions", 3, []))
    return inputs


def test_seeded_class_rank_matches_rank_over_rationals():
    assert len(ALLOWED) == 7
    assert BASIS_LIMIT < 13
    ranks = {}
    for label, n, systems in rank_inputs():
        expected = rank_by_kernel(n, [phi.table for phi in systems])
        assert rank_over_rationals(systems) == expected, label
        ranks[label] = expected
    for n, system_class in ALLOWED:
        expected = ranks[f"class {system_class.value} n={n}"]
        assert class_rank(n, system_class) == expected, (n, system_class)
    assert ranks["class n=5 minus a family member"] == 31
    assert ranks["n=4 functions of three components"] == 8
    assert ranks["two n=12 functions"] == 2 and ranks["three n=13 functions"] == 3
    assert ranks["all-zero tables"] == ranks["no functions"] == 0


def rank_by_fractions(rows):
    """Gauss-Jordan elimination in Fractions."""
    pivots = []
    for row in rows:
        row = [Fraction(u) for u in row]
        for j, basis_row in pivots:
            if row[j]:
                factor = row[j] / basis_row[j]
                row = [u - factor * v for u, v in zip(row, basis_row)]
        lead = next((j for j, u in enumerate(row) if u), None)
        if lead is not None:
            pivots.append((lead, row))
    return len(pivots)


def test_residual_rank_is_within_the_level_bound(residual_corpus):
    ranks = []
    for d in residual_corpus:
        n = d.n
        supports = [state_support(d, t) for t in d.breakpoints]
        weights = [WeightFunction.symmetric(n)]
        if not evaluate_conditions(d, supports)[1]["has_ties"]:
            weights.append(relative_quality(d))
        for w in weights:
            rows = list(_residual_rows(w, d, supports))
            # Zero at state 0 and on every level sum: the reason for the bound.
            for row in rows:
                assert row[0] == 0
                for m in range(1, n + 1):
                    assert sum(u for x, u in enumerate(row) if x.bit_count() == m) == 0
            rank = rank_by_fractions(rows)
            assert rank <= (1 << n) - 1 - n, (d, w)
            assert len(list(islice(echelon(rows), 1 << n))) == rank
            ranks.append((n, rank))
    # Some laws reach the bound, so stopping there is not vacuous.
    assert any(rank == (1 << n) - 1 - n for n, rank in ranks if n >= 4)
    assert any(rank == 0 for _, rank in ranks)


def test_echelon_basis_spans_the_rows():
    rng = random.Random(31)
    for _ in range(50):
        rows = [[rng.randint(-3, 3) * (rng.random() < 0.6) for _ in range(8)] for _ in range(6)]
        basis = [row for _, row in islice(echelon(rows), 8)]
        assert len(basis) == rank_by_fractions(rows) == rank_by_fractions(rows + basis)
        # Echelon: each kept row is zero at the pivot of every earlier one.
        leads = [next(j for j, u in enumerate(row) if u) for row in basis]
        assert all(later[j] == 0 for i, j in enumerate(leads) for later in basis[i + 1 :])


def test_echelon_origin_is_the_first_row_a_vector_breaks():
    """The earlier witness scan as the oracle: the first input row that a 0/1
    vector does not annihilate is the origin of the first basis row that it does
    not annihilate, also when the basis stops at the rank."""
    rng = random.Random(4099)
    for _ in range(200):
        width, rows = rng.randint(1, 8), []
        for _ in range(rng.randint(0, 10)):
            if rows and rng.random() < 0.4:  # a combination of earlier rows
                a, b = rng.choice(rows), rng.choice(rows)
                rows.append([rng.randint(-2, 2) * u + v for u, v in zip(a, b)])
            else:
                rows.append([rng.randint(-3, 3) * (rng.random() < 0.5) for _ in range(width)])
        ranks = [rank_by_fractions(rows[:i]) for i in range(len(rows) + 1)]
        rises = [i for i, (r, s) in enumerate(pairwise(ranks)) if s > r]
        for limit in (width, ranks[-1]):
            basis = list(islice(echelon(rows), limit))
            origins = [origin for origin, _ in basis]
            # Origins strictly increase, each where the rank of the rows read so far rises.
            assert all(a < b for a, b in pairwise(origins))
            assert origins == rises
            for _ in range(10):
                works = [rng.randint(0, 1) for _ in range(width)]
                first = next((i for i, row in enumerate(rows) if sum(compress(row, works))), None)
                assert first == next((o for o, row in basis if sum(compress(row, works))), None)


# --- a timing-free performance guard ------------------------------------------


def test_verify_builds_structure_functions_only_for_witnesses(monkeypatch):
    built = []
    post_init = StructureFunction.__post_init__

    def counting(self):
        built.append(self.table)
        post_init(self)

    monkeypatch.setattr(StructureFunction, "__post_init__", counting)
    _class_tables.cache_clear()
    rng = random.Random(2718)

    exchangeable = exchangeable_mixture(rng, 5)
    report = verify_theorems(exchangeable, SystemClass.COHERENT)
    assert report.systems_checked == 6894
    assert all(report.to_json()["verdicts"].values())
    assert built == []

    generic = random_no_ties(rng, 5)
    report = verify_theorems(generic, SystemClass.COHERENT)
    found = [key for key in REPRESENTATION_KEYS if key in report.witnesses]
    assert found
    assert 0 < len(built) <= len(found)
    # Each witness system is one of the systems built.
    for key in found:
        bits = report.witnesses[key]["system"]["bits"]
        assert int(bits[::-1], 2) in built


def test_verify_builds_residual_rows_only_as_the_echelon_reads_them(monkeypatch):
    built, calls, survival_times = [], [], []
    real_rows, real_survivals = reliability._residual_rows, reliability.survival_numerators

    def counting_rows(*args):
        calls.append(args)
        rows = real_rows(*args)
        if isinstance(rows, list):  # a list is built in full before any row is read
            built.extend(rows)
            return iter(rows)
        return (built.append(row) or row for row in rows)

    def counting_survivals(d, t):
        survival_times.append(t)
        return real_survivals(d, t)

    monkeypatch.setattr(reliability, "_residual_rows", counting_rows)
    monkeypatch.setattr(reliability, "survival_numerators", counting_survivals)
    d = distinct_lifetime_law(random.Random(7), 5, 400)
    report = verify_theorems(d, SystemClass.COHERENT)
    assert len(d.breakpoints) == 2000 and not report.has_ties
    # Both witnesses lie at the first breakpoint, so each of the two representation
    # scans reads one row of 2,000; building the full basis first read 519 each.
    assert len(built) == 2
    # One pass per representation claim: a witness's breakpoint is an echelon
    # origin, so no rows are built again to find it.
    assert len(calls) == 2
    # The residual rows read the columns of d.cdfs; only a representation
    # witness reads the survivals at its own time.
    found = [key for key in ("boland_repr", "prob_repr") if key in report.witnesses]
    assert found
    assert survival_times == [parse_rational(report.witnesses[key]["t"]) for key in found]

