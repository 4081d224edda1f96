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
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import EnumerationBoundError, NonMonotoneError
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
# size that stays trivially cheap: `verify` at n = 5 takes 13-17 ms on an
# 8-atom generic or a 3-atom comonotone law and 25 ms on a 240-atom
# exchangeable one (Python 3.11 on a 2-vCPU VM, in-process, tables not yet
# cached). Six components have 7,828,354 monotone functions.
ENUMERATION_LIMIT = 5

# The spanning family has 2**n - 1 members of 2**n table entries each, so
# every step up in n costs about four times the memory and time. At n = 12
# the `basis` command already prints 17 MB of JSON and takes 1.2 s, or 10 s
# with the rank check (Python 3.11 on a 2-vCPU VM, in a subprocess).
BASIS_LIMIT = 12

# A path-set system is tabulated as one OR of monomial masks, 2 ms at n = 18
# and 7 ms at 20 with five paths; what follows is per state: its design
# signature takes 0.13 s at n = 16, 0.71 s at 18 and 2.6 s at 20 (Python 3.11
# on a 2-vCPU VM, in-process).
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


@lru_cache(maxsize=None)
def _low_side_mask(n: int, var: int) -> int:
    """Bitmask over all 2**n indices selecting those where component ``var`` is failed."""
    width = 2 << var
    mask = (1 << (1 << var)) - 1
    while width < 1 << n:  # the pattern repeats with period 2**(var + 1): double it
        mask |= mask << width
        width <<= 1
    return mask


def _monotonicity_witness(n: int, table: int) -> tuple[int, int] | None:
    """First covering pair (j, j | bit) where the table decreases, else None.

    Checking single-bit repairs suffices: a function is monotone iff it is
    monotone along every coordinate.
    """
    for var in range(n):
        step = 1 << var
        bad = table & ~(table >> step) & _low_side_mask(n, var)
        if bad:
            low = (bad & -bad).bit_length() - 1
            return low, low | step
    return None


@lru_cache(maxsize=None)
def level_indices(n: int, k: int) -> tuple[int, ...]:
    """All table indices whose state vector has exactly k working components."""
    if not 0 <= k <= n:
        raise ValueError(f"level {k} out of range for n={n}")
    return tuple(
        sorted(sum(1 << b for b in combo) for combo in combinations(range(n), k))
    )


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
        if not isinstance(self.table, int) or not 0 <= self.table < (1 << size):
            raise ValueError("truth table must pack exactly 2**n binary entries")
        witness = _monotonicity_witness(self.n, self.table)
        if witness is not None:
            raise NonMonotoneError(*witness)
        essential = tuple(
            var + 1
            for var in range(self.n)
            if (self.table ^ (self.table >> (1 << var))) & _low_side_mask(self.n, var)
        )
        object.__setattr__(self, "essential", essential)
        semi = not (self.table & 1) and bool((self.table >> (size - 1)) & 1)
        object.__setattr__(self, "semicoherent", semi)
        object.__setattr__(
            self, "coherent", self.n >= 3 and len(essential) == self.n
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
        if not 0 <= index < (1 << self.n):
            raise ValueError(f"state index {index} out of range")
        return (self.table >> index) & 1

    def __call__(self, states: Sequence[int]) -> int:
        return evaluate(self, states)

    def bits(self) -> str:
        """Truth table as a string of '0'/'1', index 0 first."""
        return format(self.table, f"0{1 << self.n}b")[::-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StructureFunction(n={self.n}, bits={self.bits()!r})"


def from_truth_table(n: int, bits: Sequence[int] | str) -> StructureFunction:
    """Build a structure function from its 2**n table entries, index 0 first."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"component count must be an integer, got {n!r}")
    # Only a length of bit length n + 1 can be 2**n: test it before shifting.
    if len(bits).bit_length() != n + 1 or len(bits) != 1 << n:
        expected = 1 << n if n < 64 else f"2**{n}"
        raise ValueError(f"expected {expected} table entries for n={n}, got {len(bits)}")
    for j, entry in enumerate(bits):
        if entry not in ("0", "1", 0, 1):
            raise ValueError(f"table entry {entry!r} at index {j} is not 0 or 1")
    digits = bits if isinstance(bits, str) else "".join(str(int(entry)) for entry in bits)
    return StructureFunction(n, int(digits[::-1], 2))


def from_path_sets(n: int, paths: Iterable[Iterable[int]]) -> StructureFunction:
    """System that works iff every component of some path works.

    ``paths`` holds 1-based component subsets. At least one path is
    required and each path must be a nonempty subset of 1..n.
    """
    if n > PATH_SET_LIMIT:
        raise EnumerationBoundError(
            f"path-set systems support n <= {PATH_SET_LIMIT}, got n={n}"
        )
    table = 0
    for path in paths:
        members = list(path)
        if not members:
            raise ValueError("paths must be nonempty")
        mask = 0
        for comp in members:
            if not isinstance(comp, int) or isinstance(comp, bool) or not 1 <= comp <= n:
                raise ValueError(f"path component {comp!r} out of range 1..{n}")
            mask |= 1 << (comp - 1)
        table |= _monomial_table(n, mask)
    if not table:  # each path works at least in the all-working state
        raise ValueError("at least one path is required")
    return StructureFunction(n, table)


def k_out_of_n(n: int, k: int) -> StructureFunction:
    """Order-statistic system: works iff at least n - k + 1 components work.

    Its lifetime is the k-th smallest component lifetime, so k = 1 is the
    series system and k = n the parallel system.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    # at_least[m]: the indices over components 1..i at which at least m of them work.
    at_least = [1] + [0] * (n - k + 1)
    for i in range(n):
        size = 1 << i  # component i + 1 failed: the low half; working: the high half
        at_least = [(1 << 2 * size) - 1] + [
            low | high << size for low, high in zip(at_least[1:], at_least)
        ]
    return StructureFunction(n, at_least[-1])


def evaluate(phi: StructureFunction, states: Sequence[int]) -> int:
    """Apply ``phi`` to a component state vector (component 1 first)."""
    if len(states) != phi.n:
        raise ValueError(f"expected {phi.n} component states, got {len(states)}")
    index = 0
    for i, state in enumerate(states):
        if state not in (0, 1):
            raise ValueError(f"component state {state!r} is not 0 or 1")
        index |= int(state) << i
    return phi.value(index)


@lru_cache(maxsize=None)
def _monotone_tables(n: int) -> tuple[int, ...]:
    """All monotone truth tables on n components, ascending as integers.

    Built by doubling: a table on k components is a pair (g, h) of monotone
    tables on k - 1 components with g <= h pointwise, where g is the slice
    with component k failed and h the slice with it working.
    """
    tables: tuple[int, ...] = (0, 1)
    for k in range(1, n + 1):
        shift = 1 << (k - 1)
        merged = (g | (h << shift) for g in tables for h in tables if g & ~h == 0)
        tables = tuple(sorted(merged))
    return tables


def _check_size(n: int, system_class: SystemClass, needs: str, family: str, limit: int) -> None:
    """Refuse, in this order, an unknown class, n below the class minimum and n
    above ``limit``; ``needs`` and ``family`` word the two size messages."""
    if not isinstance(system_class, SystemClass):
        raise ValueError(f"unknown system class {system_class!r}")
    if n < system_class.min_components:
        raise ValueError(
            f"{system_class.value} {needs} at least {system_class.min_components} "
            f"components, got n={n}"
        )
    if n > limit:
        raise EnumerationBoundError(f"{family} supports n <= {limit}, got n={n}")


@lru_cache(maxsize=None)
def class_tables(n: int, system_class: SystemClass) -> tuple[int, ...]:
    """Truth tables of every system of the class on n components, ascending.

    Both classes range over monotone functions in which every component is
    essential (which forces the boundary values 0 and 1); COHERENT requires
    n >= 3 while SEMICOHERENT also admits n = 2, where the only two such
    systems are the series and parallel pair.
    """
    _check_size(n, system_class, "systems need", "enumeration", ENUMERATION_LIMIT)
    tables = _monotone_tables(n)
    # Keep, one component at a time, the tables on which it is essential.
    for var in range(n):
        step, mask = 1 << var, _low_side_mask(n, var)
        tables = [t for t in tables if (t ^ t >> step) & mask]
    return tuple(tables)


@lru_cache(maxsize=None)
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


def _pairing_map(n: int) -> dict[int, int]:
    """Fixed-point-free pairing of components used by the coherent basis.

    All cycles have odd length, which is what keeps the resulting family
    linearly independent; n = 4 uses a special non-bijective map because no
    fixed-point-free permutation of 4 elements has only odd cycles.
    """
    if n % 2 == 1:
        return {k: k % n + 1 for k in range(1, n + 1)}
    if n == 4:
        return {1: 2, 2: 3, 3: 4, 4: 2}
    mapping = {1: 2, 2: 3, 3: 1}
    for k in range(4, n + 1):
        mapping[k] = k + 1 if k < n else 4
    return mapping


def appendix_basis(n: int, system_class: SystemClass) -> list[StructureFunction]:
    """A spanning family of 2**n - 1 systems of the given class.

    SEMICOHERENT: the all-of-subset indicators for every nonempty subset.
    COHERENT: for each nonempty proper subset A, the OR of the A indicator
    with a covering (n-1)-subset indicator; the full set maps to the series
    system. The partner of an (n-1)-subset [n] \\ {k} is [n] \\ {pair(k)};
    smaller subsets take [n] minus their own maximum, which always has size
    n - 1 and always covers [n] together with A. Every coherent-basis member
    really is coherent: the two subsets jointly cover [n] and neither
    contains the other.

    Functions are returned ordered by subset bitmask.
    """
    return [StructureFunction(n, table) for table in _basis_tables(n, system_class)]


def _basis_tables(n: int, system_class: SystemClass) -> list[int]:
    """Truth tables of :func:`appendix_basis`, in its order."""
    _check_size(n, system_class, "basis needs", "the spanning family", BASIS_LIMIT)
    if system_class is SystemClass.SEMICOHERENT:
        return [_monomial_table(n, s) for s in range(1, 1 << n)]
    full = (1 << n) - 1
    tables = []
    pairing = _pairing_map(n)
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


def rank_over_rationals(functions: Iterable[StructureFunction]) -> int:
    """Exact rank over the rationals of the functions' value vectors.

    Each function contributes the length-2**n row of its table entries. The
    rank is the number of columns that some row touches, minus the
    dimension of the space of functionals on those columns that vanish on
    every row seen so far. That space starts with one unit functional per
    touched column. A row that every functional annihilates is already in
    the span of the earlier rows and is skipped. Otherwise one functional
    that does not annihilate the row leaves the space, and each of the
    others is combined with it by integer cross-multiplication so that it
    annihilates the row too, then divided by the gcd of its entries. The
    functionals are sparse dicts of Python ints, so the arithmetic is exact,
    and the scan stops once no functional is left.
    """
    fs = list(functions)
    if not fs:
        return 0
    n = fs[0].n
    if any(f.n != n for f in fs):
        raise ValueError("all functions must share the same component count")
    return _table_rank(n, [f.table for f in fs])


def class_rank(n: int, system_class: SystemClass) -> int:
    """``rank_over_rationals(enumerate_systems(n, system_class))``, from the tables.

    The rank ignores the order of the rows, and rank(B + C) = rank(C) when
    every row of B is in C. So when the coherent spanning family (n >= 3)
    lies in the class, its 2**n - 1 tables go first, and the scan stops at
    full width after them instead of after thousands of class rows.
    """
    tables = class_tables(n, system_class)
    if n >= SystemClass.COHERENT.min_components:
        basis = _basis_tables(n, SystemClass.COHERENT)
        if set(basis) <= set(tables):
            tables = basis + list(tables)
    return _table_rank(n, tables)


def _table_rank(n: int, tables: Sequence[int]) -> int:
    """:func:`rank_over_rationals` of the systems with these truth tables."""
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


def system_to_json(phi: StructureFunction) -> dict:
    """System-file form of a structure function."""
    return {"n": phi.n, "kind": "truth_table", "bits": phi.bits()}


def system_from_json(obj: object) -> StructureFunction:
    """Parse the system-file form: a truth table or a list of path sets."""
    if not isinstance(obj, dict):
        raise ValueError("system file must be a JSON object")
    try:
        n = obj["n"]
        kind = obj["kind"]
    except KeyError as exc:
        raise ValueError(f"system file is missing the {exc.args[0]!r} field") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"system field 'n' must be an integer, got {n!r}")
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
