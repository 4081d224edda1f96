"""Structure functions: validation, enumeration, the spanning family, rank."""

import math
import random
import re
from fractions import Fraction

import pytest

from sigrel import (
    BASIS_LIMIT,
    ENUMERATION_LIMIT,
    EnumerationBoundError,
    NonMonotoneError,
    StructureFunction,
    SystemClass,
    appendix_basis,
    class_rank,
    class_tables,
    enumerate_systems,
    evaluate,
    from_path_sets,
    from_truth_table,
    k_out_of_n,
    system_from_json,
    system_to_json,
    rank_over_rationals,
)
from sigrel.structure import (
    PATH_SET_LIMIT,
    _basis_tables,
    _low_side_mask,
    _monomial_table,
    _monotone_tables,
)


def brute_force_tables(n, boundary, essential):
    """Filter all 2**(2**n) truth tables by the raw definitions."""
    states = range(1 << n)
    keep = []
    for table in range(1 << (1 << n)):
        values = [(table >> j) & 1 for j in states]
        if boundary and (values[0] != 0 or values[-1] != 1):
            continue
        if not all(
            values[j] <= values[j | (1 << i)]
            for j in states
            for i in range(n)
            if not (j >> i) & 1
        ):
            continue
        if essential and not all(
            any(
                values[j] != values[j | (1 << i)]
                for j in states
                if not (j >> i) & 1
            )
            for i in range(n)
        ):
            continue
        keep.append(table)
    return keep


def monotonicity_witness(n, table):
    """Oracle: the first covering pair (j, j | bit) where the table decreases, else
    None. Checking single-bit repairs suffices: a function is monotone iff it is
    monotone along every coordinate."""
    for var in range(n):
        step = 1 << var
        bad = table & ~(table >> step) & _low_side_mask(n, var)
        if bad:
            low = (bad & -bad).bit_length() - 1
            return low, low | step
    return None


def essential_by_states(n, table):
    """Oracle: component i is essential iff some state x in which it is failed has
    table[x] != table[x | bit], one state at a time."""
    return tuple(
        i + 1
        for i in range(n)
        if any(
            (table >> x & 1) != (table >> (x | 1 << i) & 1)
            for x in range(1 << n)
            if not x >> i & 1
        )
    )


def construction_cases():
    """Every table at n = 2, 3, every monotone table at n = 4, 5, and at n = 4..8
    seeded random tables (drops at many indices), ORs of random monomials, and those
    ORs with one entry flipped (a drop at one or two indices, or none)."""
    for n in (2, 3):
        yield from ((n, table) for table in range(1 << (1 << n)))
    for n in (4, 5):
        yield from ((n, table) for table in _monotone_tables(n))
    rng = random.Random(2040)
    for n in range(4, 9):
        for _ in range(150):
            yield n, rng.getrandbits(1 << n)
            monotone = 0
            for _ in range(rng.randint(1, 4)):
                monotone |= _monomial_table(n, rng.randrange(1, 1 << n))
            yield n, monotone
            yield n, monotone ^ 1 << rng.randrange(1 << n)


class TestConstruction:
    def test_construction_matches_the_state_oracles(self):
        """The one pass over the coordinates raises the oracle's witness, the lowest
        drop along the first dropping component, and otherwise sets the essential
        components that the per-state oracle finds."""
        raised = 0
        for n, table in construction_cases():
            witness = monotonicity_witness(n, table)
            try:
                phi = StructureFunction(n, table)
            except NonMonotoneError as exc:
                assert (exc.low, exc.high) == witness, (n, table)
                raised += 1
                continue
            assert witness is None, (n, table)
            essential = essential_by_states(n, table)
            assert phi.essential == essential, (n, table)
            assert phi.coherent == (n >= 3 and len(essential) == n), (n, table)
        assert raised > 1000

    def test_and_gate_flags(self):
        phi = from_truth_table(2, "0001")
        assert phi.semicoherent
        assert phi.essential == (1, 2)
        assert not phi.coherent  # the coherent tag is reserved for n >= 3

    def test_projection_flags(self):
        # phi(x) = x1 at n=3: monotone and boundary-correct, but 2 and 3 are idle
        phi = from_truth_table(3, "01010101")
        assert phi.semicoherent
        assert not phi.coherent
        assert phi.essential == (1,)

    def test_constant_zero_not_semicoherent(self):
        phi = from_truth_table(2, "0000")
        assert not phi.semicoherent
        assert not phi.coherent
        assert phi.essential == ()

    def test_monotonicity_witness(self):
        # value 1 at {1,2} but 0 at {1,2,3} breaks monotonicity on 011 -> 111
        with pytest.raises(NonMonotoneError) as exc_info:
            from_truth_table(3, "00010000")
        assert exc_info.value.low == 0b011
        assert exc_info.value.high == 0b111
        assert "index 3" in str(exc_info.value)
        assert "index 7" in str(exc_info.value)

    def test_table_out_of_range(self):
        with pytest.raises(ValueError):
            StructureFunction(2, 1 << 16)
        with pytest.raises(ValueError):
            StructureFunction(2, -1)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            StructureFunction(1, 0b10)

    def test_bits_round_trip(self):
        assert from_truth_table(3, "00010111").bits() == "00010111"
        assert from_truth_table(3, [0, 0, 0, 1, 0, 1, 1, 1]).bits() == "00010111"

    def test_bits_length_checked(self):
        with pytest.raises(ValueError, match=r"^expected 8 table entries for n=3, got 4$"):
            from_truth_table(3, "0001")
        with pytest.raises(ValueError):
            from_truth_table(3, "0001011X")


class TestPathSets:
    def test_bridge_from_paths(self):
        phi = from_path_sets(3, [[1, 2], [1, 3]])
        assert phi.bits() == "00010101"  # x1 and (x2 or x3)

    def test_singleton_paths_give_parallel(self):
        assert from_path_sets(3, [[1], [2], [3]]) == k_out_of_n(3, 3)

    def test_single_full_path_gives_series(self):
        assert from_path_sets(3, [[1, 2, 3]]) == k_out_of_n(3, 1)

    def test_paths_validated(self):
        with pytest.raises(ValueError):
            from_path_sets(3, [])
        with pytest.raises(ValueError):
            from_path_sets(3, [[]])
        with pytest.raises(ValueError):
            from_path_sets(3, [[0]])
        with pytest.raises(ValueError):
            from_path_sets(3, [[4]])


class TestKOutOfN:
    def test_series(self):
        phi = k_out_of_n(3, 1)
        assert [phi.value(j) for j in range(8)] == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_parallel(self):
        phi = k_out_of_n(3, 3)
        assert [phi.value(j) for j in range(8)] == [0, 1, 1, 1, 1, 1, 1, 1]

    def test_majority(self):
        phi = k_out_of_n(3, 2)
        assert phi.bits() == "00010111"

    def test_bounds(self):
        with pytest.raises(ValueError):
            k_out_of_n(3, 0)
        with pytest.raises(ValueError):
            k_out_of_n(3, 4)

    def test_always_coherent(self):
        for n in range(3, 6):
            for k in range(1, n + 1):
                assert k_out_of_n(n, k).coherent


class TestEvaluate:
    def test_series_all_up(self):
        assert evaluate(k_out_of_n(3, 1), (1, 1, 1)) == 1

    def test_series_one_down(self):
        assert evaluate(k_out_of_n(3, 1), (1, 0, 1)) == 0

    def test_bridge(self):
        phi = from_path_sets(3, [[1, 2], [1, 3]])
        assert evaluate(phi, (1, 1, 0)) == 1
        assert evaluate(phi, (0, 1, 1)) == 0
        assert phi((1, 1, 0)) == 1 and phi((0, 1, 1)) == 0
        assert evaluate(phi=phi, states=(1, 1, 0)) == 1 and phi(states=(0, 1, 1)) == 0

    def test_state_vector_validated(self):
        with pytest.raises(ValueError):
            evaluate(k_out_of_n(3, 1), (1, 1))
        with pytest.raises(ValueError):
            evaluate(k_out_of_n(3, 1), (1, 2, 0))


class TestEnumeration:
    def test_frozen_counts(self):
        assert len(enumerate_systems(2, SystemClass.SEMICOHERENT)) == 2
        assert len(enumerate_systems(3, SystemClass.COHERENT)) == 9
        assert len(enumerate_systems(4, SystemClass.COHERENT)) == 114
        assert len(enumerate_systems(5, SystemClass.COHERENT)) == 6894

    def test_n2_semicoherent_is_and_or(self):
        tables = {phi.bits() for phi in enumerate_systems(2, SystemClass.SEMICOHERENT)}
        assert tables == {"0001", "0111"}

    def test_matches_brute_force_filter(self):
        brute = brute_force_tables(3, boundary=True, essential=True)
        enumerated = [phi.table for phi in enumerate_systems(3, SystemClass.COHERENT)]
        assert enumerated == brute

        brute2 = brute_force_tables(2, boundary=True, essential=True)
        packed2 = [phi.table for phi in enumerate_systems(2, SystemClass.SEMICOHERENT)]
        assert packed2 == brute2

    def test_n4_count_matches_brute_force(self):
        assert len(brute_force_tables(4, boundary=True, essential=True)) == 114

    def test_counts_match_inclusion_exclusion(self):
        # all-essential counts from boundary-only counts over variable subsets
        boundary = {0: 0}
        for k in (1, 2, 3, 4):
            boundary[k] = len(brute_force_tables(k, boundary=True, essential=False))
        boundary[5] = 7579  # monotone(5) - 2, a known lattice constant
        for n in (3, 4, 5):
            expected = sum(
                (-1) ** j * math.comb(n, j) * boundary[n - j] for j in range(n + 1)
            )
            assert len(enumerate_systems(n, SystemClass.COHERENT)) == expected

    def test_monotone_table_counts(self):
        # sizes of the free distributive lattices, used by the doubling step
        assert [len(_monotone_tables(k)) for k in range(6)] == [2, 3, 6, 20, 168, 7581]
        for k in range(6):  # class_tables and the witnesses read this order
            tables = _monotone_tables(k)
            assert all(a < b for a, b in zip(tables, tables[1:]))

    def test_classes_agree_for_n_at_least_3(self):
        for n in (3, 4):
            assert enumerate_systems(n, SystemClass.COHERENT) == enumerate_systems(
                n, SystemClass.SEMICOHERENT
            )

    def test_all_enumerated_are_coherent(self):
        for phi in enumerate_systems(3, SystemClass.COHERENT):
            assert phi.coherent
            assert phi.essential == (1, 2, 3)

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_systems(2, SystemClass.COHERENT)
        with pytest.raises(ValueError):
            enumerate_systems(1, SystemClass.SEMICOHERENT)
        with pytest.raises(EnumerationBoundError):
            enumerate_systems(ENUMERATION_LIMIT + 1, SystemClass.COHERENT)


def pairing_map(n):
    """Oracle: the fixed-point-free pairing of components, all of whose cycles
    have odd length; n = 4 uses a map that is not a bijection, because no
    fixed-point-free permutation of 4 elements has only odd cycles."""
    if n % 2 == 1:
        return {k: k % n + 1 for k in range(1, n + 1)}
    if n == 4:
        return {1: 2, 2: 3, 3: 4, 4: 2}
    mapping = {1: 2, 2: 3, 3: 1}
    for k in range(4, n + 1):
        mapping[k] = k + 1 if k < n else 4
    return mapping


def basis_tables_by_pairing_map(n, system_class):
    """Oracle: the spanning family's tables, one or two monomials per member.
    The full set gives the series system; an (n-1)-subset [n] \\ {k} is ORed
    with [n] \\ {pairing_map(n)[k]}, and a smaller subset with [n] minus its
    own maximum."""
    if system_class is SystemClass.SEMICOHERENT:
        return [_monomial_table(n, s) for s in range(1, 1 << n)]
    full = (1 << n) - 1
    tables = []
    pairing = pairing_map(n)
    for subset in range(1, 1 << n):
        if subset == full:
            table = _monomial_table(n, full)
        else:
            if subset.bit_count() <= n - 2:
                partner = full & ~(1 << (subset.bit_length() - 1))
            else:
                missing = (full & ~subset).bit_length()
                partner = full & ~(1 << (pairing[missing] - 1))
            table = _monomial_table(n, subset) | _monomial_table(n, partner)
        tables.append(table)
    return tables


class TestBasis:
    def test_sizes(self):
        for n in range(3, 7):
            assert len(appendix_basis(n, SystemClass.COHERENT)) == (1 << n) - 1
        for n in range(2, 7):
            assert len(appendix_basis(n, SystemClass.SEMICOHERENT)) == (1 << n) - 1

    def test_semicoherent_basis_n2(self):
        # subset-indicator products: x1, x2, x1*x2
        tables = [phi.bits() for phi in appendix_basis(2, SystemClass.SEMICOHERENT)]
        assert tables == ["0101", "0011", "0001"]

    def test_coherent_basis_members_are_coherent(self):
        for n in (3, 4, 5):
            for phi in appendix_basis(n, SystemClass.COHERENT):
                assert phi.coherent

    def test_pairing_for_two_element_subset(self):
        # the element for subset {2,3} at n=3 is paired with {1,3}
        basis = appendix_basis(3, SystemClass.COHERENT)
        phi = basis[5]  # subsets ordered by bitmask; {2,3} has mask 6
        expected = {
            j for j in range(8) if (j & 0b110) == 0b110 or (j & 0b101) == 0b101
        }
        assert {j for j in range(8) if phi.value(j)} == expected

    def test_pairing_for_top_subsets_n4(self):
        # the n=4 pairing sends missing-1 to missing-2
        basis = appendix_basis(4, SystemClass.COHERENT)
        phi = basis[0b1110 - 1]
        a_mask, partner_mask = 0b1110, 0b1101
        expected = {
            j
            for j in range(16)
            if (j & a_mask) == a_mask or (j & partner_mask) == partner_mask
        }
        assert {j for j in range(16) if phi.value(j)} == expected

    def test_tables_match_the_pairing_map_construction(self):
        """One partner rule gives the tables of the pairing-map construction,
        for both classes at every n up to the limit."""
        for system_class in SystemClass:
            for n in range(system_class.min_components, BASIS_LIMIT + 1):
                expected = basis_tables_by_pairing_map(n, system_class)
                assert _basis_tables(n, system_class) == expected, (system_class, n)

    def test_coherent_basis_needs_three_components(self):
        with pytest.raises(ValueError):
            appendix_basis(2, SystemClass.COHERENT)

    def test_size_bound(self):
        for system_class in SystemClass:
            with pytest.raises(EnumerationBoundError, match=f"n <= {BASIS_LIMIT}"):
                appendix_basis(BASIS_LIMIT + 1, system_class)


def fraction_rank(functions):
    """Oracle: rank of the table rows by exact Fraction Gaussian elimination."""
    rows = [[Fraction((f.table >> j) & 1) for j in range(1 << f.n)] for f in functions]
    rank = 0
    for col in range(1 << functions[0].n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            scale = rows[r][col] / rows[rank][col]
            if scale:
                rows[r] = [x - scale * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_families(n, count, seed):
    """Seeded families of monotone tables: plain subsets, subsets with
    repeats and the constant-0 function, and rank-deficient ones that add
    the pointwise max and min of two members (max + min = sum)."""
    rng = random.Random(seed)
    tables = _monotone_tables(n)
    for i in range(count):
        family = rng.sample(tables, rng.randint(1, min(len(tables), (1 << n) + 3)))
        if i % 3 == 1:
            family += [0] + rng.choices(family, k=rng.randint(1, 3))
        elif i % 3 == 2:
            a, b = rng.sample(tables, 2)
            family += [a, b, a | b, a & b]
        rng.shuffle(family)
        yield [StructureFunction(n, t) for t in family]


class TestRank:
    def test_basis_ranks(self):
        assert rank_over_rationals(appendix_basis(3, SystemClass.COHERENT)) == 7
        assert rank_over_rationals(appendix_basis(4, SystemClass.COHERENT)) == 15
        assert rank_over_rationals(appendix_basis(2, SystemClass.SEMICOHERENT)) == 3

    def test_enumerated_class_rank(self):
        systems = enumerate_systems(3, SystemClass.COHERENT)
        assert rank_over_rationals(systems) == 7
        pair = enumerate_systems(2, SystemClass.SEMICOHERENT)
        assert rank_over_rationals(pair) == 2

    def test_enumerated_classes_span(self):
        for n in (3, 4, 5):
            for system_class in SystemClass:
                systems = enumerate_systems(n, system_class)
                assert rank_over_rationals(systems) == (1 << n) - 1

    def test_matches_fraction_oracle(self):
        deficient = 0
        for n in (2, 3, 4, 5):
            for family in random_families(n, 60, seed=n):
                expected = fraction_rank(family)
                assert rank_over_rationals(family) == expected
                deficient += expected < len(family)
        assert deficient >= 100

    def test_zero_function_has_rank_0(self):
        zero = StructureFunction(3, 0)
        assert rank_over_rationals([zero, zero]) == 0

    def test_duplicates_collapse(self):
        series = k_out_of_n(3, 1)
        assert rank_over_rationals([series, series]) == 1

    def test_empty(self):
        assert rank_over_rationals([]) == 0

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            rank_over_rationals([k_out_of_n(3, 1), k_out_of_n(4, 1)])


class TestJson:
    def test_round_trip(self):
        phi = from_path_sets(3, [[1, 2], [1, 3]])
        assert system_from_json(system_to_json(phi)) == phi

    def test_paths_kind(self):
        obj = {"n": 3, "kind": "paths", "paths": [[1, 2], [1, 3]]}
        assert system_from_json(obj).bits() == "00010101"

    def test_path_set_size_bound(self):
        # refused before the 2**40 states are walked, so this returns at once
        with pytest.raises(EnumerationBoundError, match=f"n <= {PATH_SET_LIMIT}"):
            from_path_sets(40, [[1, 2]])
        with pytest.raises(EnumerationBoundError, match=f"n <= {PATH_SET_LIMIT}"):
            system_from_json({"n": 40, "kind": "paths", "paths": [[1, 2]]})

    def test_errors_name_the_problem(self):
        with pytest.raises(ValueError, match="'n'"):
            system_from_json({"kind": "truth_table", "bits": "0001"})
        with pytest.raises(ValueError, match="'n' must be at least 2"):
            system_from_json({"n": -1, "kind": "truth_table", "bits": "01"})
        with pytest.raises(ValueError, match="kind"):
            system_from_json({"n": 2, "kind": "cnf"})
        with pytest.raises(ValueError, match="bits"):
            system_from_json({"n": 2, "kind": "truth_table", "bits": 7})
        with pytest.raises(ValueError):
            system_from_json([1, 2])


ENUMERATION_REFUSALS = [
    (3, "coherent", ValueError, "unknown system class 'coherent'"),
    (ENUMERATION_LIMIT + 1, "semicoherent", ValueError, "unknown system class 'semicoherent'"),
    (2, SystemClass.COHERENT, ValueError, "coherent systems need at least 3 components, got n=2"),
    (1, SystemClass.SEMICOHERENT, ValueError,
     "semicoherent systems need at least 2 components, got n=1"),
    (ENUMERATION_LIMIT + 1, SystemClass.COHERENT, EnumerationBoundError,
     f"enumeration supports n <= {ENUMERATION_LIMIT}, got n={ENUMERATION_LIMIT + 1}"),
    (ENUMERATION_LIMIT + 1, SystemClass.SEMICOHERENT, EnumerationBoundError,
     f"enumeration supports n <= {ENUMERATION_LIMIT}, got n={ENUMERATION_LIMIT + 1}"),
]

BASIS_REFUSALS = [
    (3, "coherent", ValueError, "unknown system class 'coherent'"),
    (BASIS_LIMIT + 1, None, ValueError, "unknown system class None"),
    (2, SystemClass.COHERENT, ValueError, "coherent basis needs at least 3 components, got n=2"),
    (1, SystemClass.SEMICOHERENT, ValueError,
     "semicoherent basis needs at least 2 components, got n=1"),
    (BASIS_LIMIT + 1, SystemClass.COHERENT, EnumerationBoundError,
     f"the spanning family supports n <= {BASIS_LIMIT}, got n={BASIS_LIMIT + 1}"),
    (BASIS_LIMIT + 1, SystemClass.SEMICOHERENT, EnumerationBoundError,
     f"the spanning family supports n <= {BASIS_LIMIT}, got n={BASIS_LIMIT + 1}"),
]

# A bool count is below every class minimum, yet the count rule refuses it, with the same
# wording in both families. Listed last, so that the cases above keep their ids.
BOOL_COUNT_REFUSALS = [
    (True, SystemClass.COHERENT, ValueError,
     "component count must be a positive integer, got True"),
    (True, SystemClass.SEMICOHERENT, ValueError,
     "component count must be a positive integer, got True"),
    (False, SystemClass.SEMICOHERENT, ValueError,
     "component count must be a positive integer, got False"),
]


@pytest.mark.parametrize(
    "call, case",
    [(call, case) for call in (class_tables, enumerate_systems, class_rank)
     for case in ENUMERATION_REFUSALS]
    + [(appendix_basis, case) for case in BASIS_REFUSALS]
    + [(call, case) for call in (class_tables, enumerate_systems, class_rank, appendix_basis)
       for case in BOOL_COUNT_REFUSALS],
)
def test_class_size_refusals(call, case):
    """An unknown class, n below the class minimum and n over the limit are
    refused in that order, with the family's own wording; a bool count is
    refused by the count rule, with its wording."""
    n, system_class, error, message = case
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc_info:
        call(n, system_class)
    assert type(exc_info.value) is error
