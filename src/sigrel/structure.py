"""Monotone binary structure functions: construction, enumeration, bases.

A structure function maps a vector of n component states (1 = working,
0 = failed) to a system state in {0, 1}. Truth tables are packed into a
single integer: a state vector is encoded as the index whose bit i - 1 is
the state of component i (component 1 is the least significant bit), and
bit j of ``table`` is the system state at index j. Index 0 is the
all-failed state, index 2**n - 1 the all-working state.

Classification vocabulary used throughout:

* monotone: never decreases when a component is repaired (enforced for
  every constructed function),
* semicoherent: monotone with value 0 at the all-failed state and 1 at the
  all-working state,
* coherent: monotone with every component essential, n >= 3.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from itertools import combinations, islice
from typing import Iterable, Iterator, Sequence

from .errors import EnumerationBoundError, NonMonotoneError
from .rationals import check_table_length, file_header
from .record import Record

__all__ = [
    "BASIS_LIMIT",
    "ENUMERATION_LIMIT",
    "PATH_SET_LIMIT",
    "StructureFunction",
    "SystemClass",
    "appendix_basis",
    "class_rank",
    "class_tables",
    "enumerate_systems",
    "evaluate",
    "from_path_sets",
    "from_truth_table",
    "k_out_of_n",
    "level_indices",
    "rank_over_rationals",
    "system_from_json",
    "system_to_json",
]

# Enumeration is exhaustive over all monotone functions, whose number grows
# like the Dedekind sequence; five components (7581 functions) is the last
# size that stays trivially cheap: `verify` at n = 5, which enumerates the
# class on every call, takes 7-12 ms on an 8-atom generic or a 3-atom
# comonotone law and 16-28 ms on a 240-atom exchangeable one (Python 3.11 on a
# 2-vCPU VM, in-process, best of nine). Six components have 7,828,354.
ENUMERATION_LIMIT = 5

# The spanning family has 2**n - 1 members of 2**n table entries each, so
# every step up in n costs about four times the memory and time. At n = 12
# the `basis` command already prints 17 MB of JSON and takes 0.3 s, or 3.3-3.7 s
# and 167 MB peak RSS with the rank check (Python 3.11 on a 2-vCPU VM, in a
# subprocess).
BASIS_LIMIT = 12

# A path-set system is tabulated as one OR of monomial masks and built in 1-2 ms
# at n = 18 and 8-14 ms at 20 with five paths; its design signature, per state,
# takes 0.05 s at n = 16, 0.14-0.21 s at 18 and 0.56-0.83 s at 20 (Python 3.11
# on a 2-vCPU VM, in-process and cold, the range of three runs).
PATH_SET_LIMIT = 18


class SystemClass(Enum):
    """Family of systems an enumeration or basis construction ranges over.

    :func:`enumerate_systems` lists, for both classes, only the systems in
    which every component is essential, so at n >= 3 SEMICOHERENT lists the
    same 9/114/6,894 systems as COHERENT and differs from it only by
    admitting n = 2. This is narrower than :attr:`StructureFunction.semicoherent`,
    which means only value 0 at the all-failed state and 1 at the
    all-working state.
    """

    COHERENT = "coherent"
    SEMICOHERENT = "semicoherent"

    @property
    def min_components(self) -> int:
        """Smallest admissible number of components (3 coherent, 2 otherwise)."""
        return 3 if self is SystemClass.COHERENT else 2


@cache
def _low_side_mask(n: int, var: int) -> int:
    """Bitmask over all 2**n indices selecting those where component ``var`` is failed."""
    width = 2 << var
    mask = (1 << (1 << var)) - 1
    while width < 1 << n:  # the pattern repeats with period 2**(var + 1): double it
        mask |= mask << width
        width <<= 1
    return mask


def check_count(n: object) -> None:
    """Refuse a component count that is not an int >= 1, a bool included."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"component count must be a positive integer, got {n!r}")


def check_range(value: object, low: int, high: int, noun: str) -> None:
    """Refuse a level, index or component that is not an int in low..high, a bool included."""
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
        raise ValueError(f"{noun} {value!r} out of range {low}..{high}")


def level_indices(n: int, k: int) -> tuple[int, ...]:
    """All table indices whose state vector has exactly k working components."""
    check_count(n)
    check_range(k, 0, n, "level")
    return tuple(
        sorted(sum(1 << b for b in combo) for combo in combinations(range(n), k))
    )


def evaluate(phi: StructureFunction, states: Sequence[int]) -> int:
    """Apply ``phi`` to a component state vector (component 1 first)."""
    if len(states) != phi.n:
        raise ValueError(f"expected {phi.n} component states, got {len(states)}")
    index = 0
    for i, state in enumerate(states):
        if type(state) is not int or state not in (0, 1):
            raise ValueError(f"component state {state!r} is not 0 or 1")
        index |= state << i
    return phi.value(index)


class StructureFunction(Record):
    """An n-component monotone structure function backed by a packed truth table.

    Construction rejects non-monotone tables (see :class:`NonMonotoneError`)
    and eagerly computes the classification flags ``semicoherent``,
    ``coherent`` and ``essential`` (1-based), so instances are always monotone
    and the flags can be trusted without re-checking. Equality and hashing
    compare only n and the table.
    """

    n: int
    table: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"need at least 2 components, got n={self.n!r}")
        size = 1 << self.n
        if type(self.table) is not int or not 0 <= self.table < (1 << size):
            raise ValueError("truth table must pack exactly 2**n binary entries")
        # A table is monotone iff it is monotone along every coordinate; the witness is the
        # first component, by index, along which the value drops, at its lowest such state.
        essential = []
        for var in range(self.n):
            step, low = 1 << var, _low_side_mask(self.n, var)
            if bad := self.table & ~(self.table >> step) & low:
                j = (bad & -bad).bit_length() - 1
                raise NonMonotoneError(j, j | step)
            if (self.table ^ self.table >> step) & low:
                essential.append(var + 1)
        self._set(
            essential=tuple(essential),
            semicoherent=not (self.table & 1) and bool((self.table >> (size - 1)) & 1),
            coherent=self.n >= 3 and len(essential) == self.n,
        )

    def require_semicoherent(self, what: str) -> None:
        """Refuse a system without the semicoherent boundary values; ``what``
        names the quantity that needs them."""
        if not self.semicoherent:
            raise ValueError(
                f"{what} needs value 0 at the all-failed state and 1 at the all-working state"
            )

    def value(self, index: int) -> int:
        """System state at a packed state index."""
        check_range(index, 0, (1 << self.n) - 1, "state index")
        return (self.table >> index) & 1

    __call__ = evaluate

    def bits(self) -> str:
        """Truth table as a string of '0'/'1', index 0 first."""
        return format(self.table, f"0{1 << self.n}b")[::-1]

    def __repr__(self) -> str:
        return f"StructureFunction(n={self.n}, bits={self.bits()!r})"


def from_truth_table(n: int, bits: Sequence[int] | str) -> StructureFunction:
    """Build a structure function from its 2**n table entries, index 0 first."""
    check_count(n)
    check_table_length(n, len(bits), f"table entries for n={n}")
    for j, entry in enumerate(bits):
        if type(entry) not in (int, str) or entry not in (0, 1, "0", "1"):
            raise ValueError(f"table entry {entry!r} at index {j} is not 0 or 1")
    digits = "".join(map(str, bits))
    return StructureFunction(n, int(digits[::-1], 2))


def from_path_sets(n: int, paths: Iterable[Iterable[int]]) -> StructureFunction:
    """System that works iff every component of some path works.

    ``paths`` holds 1-based component subsets. At least one path is
    required and each path must be a nonempty subset of 1..n.
    """
    check_count(n)
    if n > PATH_SET_LIMIT:
        raise EnumerationBoundError(
            f"path-set systems support n <= {PATH_SET_LIMIT}, got n={n}"
        )
    table = 0
    for path in paths:
        mask = component_mask(n, path, "path component")
        if not mask:
            raise ValueError("paths must be nonempty")
        table |= _monomial_table(n, mask)
    if not table:  # each path works at least in the all-working state
        raise ValueError("at least one path is required")
    return StructureFunction(n, table)


def require_same_count(what: str, *parts: object) -> None:
    """Refuse systems, laws, weights or qualities whose counts n differ; ``what`` names them."""
    if len({part.n for part in parts}) > 1:
        raise ValueError(f"{what} disagree on component count")


def component_mask(n: int, components: Iterable[int], noun: str) -> int:
    """Bitmask of 1-based components, bit i - 1 for component i; ``noun`` names a
    member that is not an int in 1..n, a bool included."""
    mask = 0
    for comp in components:
        check_range(comp, 1, n, noun)
        mask |= 1 << (comp - 1)
    return mask


def k_out_of_n(n: int, k: int) -> StructureFunction:
    """Order-statistic system: works iff at least n - k + 1 components work.

    Its lifetime is the k-th smallest component lifetime, so k = 1 is the
    series system and k = n the parallel system.
    """
    check_count(n)
    check_range(k, 1, n, "order statistic index")
    # at_least[m]: the indices over components 1..i at which at least m of them work.
    at_least = [1] + [0] * (n - k + 1)
    for i in range(n):
        size = 1 << i  # component i + 1 failed: the low half; working: the high half
        at_least = [(1 << 2 * size) - 1] + [
            low | high << size for low, high in zip(at_least[1:], at_least)
        ]
    return StructureFunction(n, at_least[-1])


def _monotone_tables(n: int) -> tuple[int, ...]:
    """All monotone truth tables on n components, ascending as integers.

    Built by doubling: a table on k components is a pair (g, h) of monotone
    tables on k - 1 components with g <= h pointwise, where g is the slice
    with component k failed and h the slice with it working. As g < 2**shift,
    the tables g | h << shift come out ascending with h in the outer loop.
    """
    tables: tuple[int, ...] = (0, 1)
    for k in range(1, n + 1):
        shift = 1 << (k - 1)
        tables = tuple(g | h << shift for h in tables for g in tables if g & ~h == 0)
    return tables


def _check_size(n: int, system_class: SystemClass, needs: str, family: str, limit: int) -> None:
    """Refuse, in this order, an unknown class, a non-bool int n below the class minimum, any
    other bad count and n above ``limit``; ``needs`` and ``family`` word the size messages."""
    if not isinstance(system_class, SystemClass):
        raise ValueError(f"unknown system class {system_class!r}")
    if isinstance(n, int) and not isinstance(n, bool) and n < system_class.min_components:
        raise ValueError(
            f"{system_class.value} {needs} at least {system_class.min_components} "
            f"components, got n={n}"
        )
    check_count(n)
    if n > limit:
        raise EnumerationBoundError(f"{family} supports n <= {limit}, got n={n}")


def class_tables(n: int, system_class: SystemClass) -> tuple[int, ...]:
    """Truth tables of every system of the class on n components, ascending.

    Both classes range over monotone functions in which every component is
    essential (which forces the boundary values 0 and 1); COHERENT requires
    n >= 3 while SEMICOHERENT also admits n = 2, where the only two such
    systems are the series and parallel pair. Every refusal precedes the enumeration.
    """
    _check_size(n, system_class, "systems need", "enumeration", ENUMERATION_LIMIT)
    tables = _monotone_tables(n)
    # Keep, one component at a time, the tables on which it is essential.
    for var in range(n):
        step, mask = 1 << var, _low_side_mask(n, var)
        tables = [t for t in tables if (t ^ t >> step) & mask]
    return tuple(tables)


def enumerate_systems(n: int, system_class: SystemClass) -> tuple[StructureFunction, ...]:
    """Every system of the class on n components: :func:`class_tables` as objects."""
    return tuple(StructureFunction(n, table) for table in class_tables(n, system_class))


def _monomial_table(n: int, subset: int) -> int:
    """Table of the indicator that every component in ``subset`` works."""
    table = (1 << (1 << n)) - 1
    for var in range(n):
        if subset >> var & 1:
            table &= ~_low_side_mask(n, var)
    return table


def _partner(n: int, subset: int) -> int:
    """Subset whose monomial the coherent spanning family ORs with ``subset``'s.

    The full set is its own partner (the series system). A subset of at most
    n - 2 members takes [n] minus its maximum, and [n] \\ {k} takes
    [n] \\ {pair(k)}, where pair steps from k to k + 1, and from the top of
    k's run low..high back to low. Its cycles are odd, which keeps the family
    linearly independent: one n-cycle for odd n, (1 2 3) and (4 ... n) for
    even n, and 1, 2, 3, 4 -> 2, 3, 4, 2 for n = 4, since no fixed-point-free
    permutation of 4 elements has only odd cycles.
    """
    full = (1 << n) - 1
    if subset == full:
        return full
    if subset.bit_count() <= n - 2:
        return full & ~(1 << (subset.bit_length() - 1))
    k = (full & ~subset).bit_length()  # the missing component
    if n % 2:
        low, high = 1, n
    elif n == 4:
        low, high = 2, 4
    else:
        low, high = (1, 3) if k <= 3 else (4, n)
    return full & ~(1 << ((k + 1 if k < high else low) - 1))


def appendix_basis(n: int, system_class: SystemClass) -> list[StructureFunction]:
    """A spanning family of 2**n - 1 systems of the given class.

    SEMICOHERENT: the all-of-subset indicators for every nonempty subset.
    COHERENT: for each nonempty subset A, the OR of the A indicator with the
    indicator of its partner (:func:`_partner`): the full set gives the series
    system, and every other A an (n-1)-subset that covers [n] together with A
    without either containing the other, so every member really is coherent.

    Functions are returned ordered by subset bitmask.
    """
    return [StructureFunction(n, table) for table in _basis_tables(n, system_class)]


def _basis_tables(n: int, system_class: SystemClass) -> list[int]:
    """Truth tables of :func:`appendix_basis`, in its order."""
    _check_size(n, system_class, "basis needs", "the spanning family", BASIS_LIMIT)
    monomials = [_monomial_table(n, s) for s in range(1 << n)]
    if system_class is SystemClass.SEMICOHERENT:
        return monomials[1:]
    return [monomials[s] | monomials[_partner(n, s)] for s in range(1, 1 << n)]


def echelon(rows: Iterable[Sequence[int]]) -> Iterator[tuple[int, list[int]]]:
    """An echelon basis of the rows' span, reduced fraction-free: each row it keeps is
    divided by its gcd and yielded at once with the index of the input row it reduced,
    its origin. It reads a row only when pulled; callers bound it with ``islice``."""
    kept: list[tuple[int, list[int]]] = []
    for origin, row in enumerate(rows):
        for pivot, basis_row in kept:
            if c := row[pivot]:
                a = basis_row[pivot]
                row = [a * u - c * v for u, v in zip(row, basis_row)]
        if g := math.gcd(*row):  # 0 only for the zero row
            row = [u // g for u in row]
            kept.append((next(j for j, u in enumerate(row) if u), row))
            yield origin, row


def rank_over_rationals(functions: Iterable[StructureFunction]) -> int:
    """Exact rank over the rationals of the functions' value vectors.

    Each function contributes the length-2**n row of its table entries, and
    the rank is the count of their :func:`echelon` basis, pulled at most up to
    the number of columns that some row touches. The rank ignores the order of
    the rows, and rank(B + C) = rank(C) when every row of B is in C. So when
    the tables contain the coherent spanning family and more (3 <= n <=
    ``BASIS_LIMIT``), its 2**n - 1 tables go first, and the reduction stops
    at full width after them instead of after thousands of other rows.
    """
    fs = list(functions)
    if not fs:
        return 0
    require_same_count("functions", *fs)
    return _table_rank(fs[0].n, [f.table for f in fs])


def class_rank(n: int, system_class: SystemClass) -> int:
    """``rank_over_rationals(enumerate_systems(n, system_class))``, with its refusals. Each class
    table is 0 at state 0, and from n = 3 the class holds the spanning family, of rank 2**n - 1."""
    _check_size(n, system_class, "systems need", "enumeration", ENUMERATION_LIMIT)
    return _table_rank(
        n, _basis_tables(n, SystemClass.COHERENT) if n >= 3 else class_tables(n, system_class)
    )


def _table_rank(n: int, tables: Sequence[int]) -> int:
    """:func:`rank_over_rationals` of the systems with these truth tables."""
    distinct = set(tables)
    if SystemClass.COHERENT.min_components <= n <= BASIS_LIMIT and len(distinct) > (1 << n) - 1:
        basis = _basis_tables(n, SystemClass.COHERENT)
        if distinct.issuperset(basis):
            tables = basis + list(tables)
    touched = 0
    for table in distinct:
        touched |= table
    rows = (list(map(int, format(table, f"0{1 << n}b")[::-1])) for table in tables)
    return sum(1 for _ in islice(echelon(rows), touched.bit_count()))


def system_to_json(phi: StructureFunction) -> dict:
    """System-file form of a structure function."""
    return {"n": phi.n, "kind": "truth_table", "bits": phi.bits()}


def system_from_json(obj: object) -> StructureFunction:
    """Parse the system-file form: a truth table or a list of path sets."""
    n, kind = file_header(obj, "system", "kind")
    if n < 2:
        raise ValueError(f"system field 'n' must be at least 2, got {n}")
    if kind == "truth_table":
        bits = obj.get("bits")
        if not isinstance(bits, str):
            raise ValueError("truth_table systems need a 'bits' string")
        return from_truth_table(n, bits)
    if kind == "paths":
        paths = obj.get("paths")
        if not isinstance(paths, list) or not all(isinstance(p, list) for p in paths):
            raise ValueError("paths systems need a 'paths' list of lists")
        return from_path_sets(n, paths)
    raise ValueError(f"unknown system kind {kind!r}")
