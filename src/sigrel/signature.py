"""Signatures of monotone systems via level averages of the structure function.

The k-th level average of phi is its mean over all state vectors with
exactly k working components. Differencing consecutive level averages from
the top yields the design signature (s_k is the probability, under a
uniformly random failure order, that the k-th component failure brings the
system down). Replacing the uniform level average by an arbitrary weighting
of the state vectors yields weighted level sums and, with the weights taken
from a relative quality function, the probability signature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise
from typing import Iterator

from .errors import TiesError
from .rationals import format_rational, parse_rationals, state_table
from .record import Record
from .structure import StructureFunction, check_count, check_range, require_same_count

__all__ = [
    "QualityFunction",
    "Signature",
    "WeightFunction",
    "boland_signature",
    "phi_level",
    "probability_signature",
    "signatures_agree",
    "weighted_phi_level",
    "weighted_signature",
]


class Signature(Record):
    """A vector of n rational entries, index k for the k-th order statistic.

    Entries produced by :func:`boland_signature` are guaranteed nonnegative
    and sum to 1. :func:`probability_signature` always sums to 1 but its
    entries are only guaranteed to be probabilities when the quality
    function comes from an actual no-ties distribution; the container itself
    therefore does not police ranges.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coerced = parse_rationals(self.values, "signature entries")
        if not coerced:
            raise ValueError("a signature needs at least one entry")
        self._set(values=coerced)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def as_strings(self) -> tuple[str, ...]:
        return tuple(format_rational(v) for v in self.values)


class WeightFunction(Record):
    """A rational weight for every packed state index of an n-component system; the
    relative quality, :class:`QualityFunction`, is one. Construction sets ``denominator``,
    the lcm of the weight denominators, and ``numerators``, the weights times it as ints."""

    n: int
    values: tuple[Fraction, ...]
    _noun = "weights"  # names the entries when their count is not 2**n

    def __post_init__(self) -> None:
        check_count(self.n)
        coerced = state_table(self.n, self.values, f"{self._noun} for n={self.n}")
        D = math.lcm(*(v.denominator for v in coerced))
        scaled = tuple(v.numerator * (D // v.denominator) for v in coerced)
        self._set(values=coerced, denominator=D, numerators=scaled)

    @classmethod
    def symmetric(cls, n: int) -> "WeightFunction":
        """Level-uniform weights 1 / C(n, |x|); weighted sums become level averages.
        Each call checks n, then builds the table."""
        check_count(n)
        levels = [Fraction(1, math.comb(n, k)) for k in range(n + 1)]
        return cls(n, tuple(levels[mask.bit_count()] for mask in range(1 << n)))

    def signature_numerators(self, phi: StructureFunction) -> tuple[int, ...]:
        """:func:`weighted_signature` of ``phi`` times :attr:`denominator`, as ints:
        entry k is W(n - k + 1) - W(n - k), where W(m) sums w(x) * phi(x) over the
        level-m state vectors x and W(0) = 0 (see :func:`weighted_phi_level`)."""
        require_same_count("weight function and system", self, phi)
        weights = self.numerators
        bits = phi.bits()
        levels = [0] * (self.n + 1)
        for index in range(1, 1 << self.n):
            if bits[index] == "1":
                levels[index.bit_count()] += weights[index]
        return tuple(a - b for a, b in pairwise(reversed(levels)))


class QualityFunction(WeightFunction):
    """Relative quality of every component subset, packed-index order: the
    :class:`WeightFunction` of the probability signature.

    values[mask] is the probability that every component in the subset
    outlives every component outside it; the empty and full subsets carry
    the conventional value 1. A tie-free law's quality sums to 1 on every
    level, and a tie makes some level sum fall short, so construction sets
    ``from_tied`` iff a level sum is not 1; signature operations refuse those.
    """

    _noun = "values"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.numerators[0] == self.numerators[-1] == self.denominator:
            raise ValueError("the empty and full subsets must have quality 1")
        if min(self.numerators) < 0 or max(self.numerators) > self.denominator:
            raise ValueError("quality values must lie in [0, 1]")
        levels = [0] * (self.n + 1)
        for x, value in enumerate(self.numerators):
            levels[x.bit_count()] += value
        self._set(from_tied=any(level != self.denominator for level in levels))


def phi_level(phi: StructureFunction, k: int) -> Fraction:
    """Mean of ``phi`` over the C(n, k) state vectors with k working components:
    :func:`weighted_phi_level` under the symmetric weights, except phi(0) at k = 0."""
    level = weighted_phi_level(phi, WeightFunction.symmetric(phi.n), k)
    return level if k else Fraction(phi.value(0))


def boland_signature(phi: StructureFunction) -> Signature:
    """Design signature of a semicoherent system.

    Entry k is the drop in the level average between n - k + 1 and n - k
    working components; the boundary values 0 and 1 make the entries
    telescope to exactly 1. This is :func:`weighted_signature` under the
    symmetric weights: their level sums are the level averages, and the
    convention W(0) = 0 equals phi(0) = 0 for every semicoherent system.
    """
    phi.require_semicoherent("signature")
    return weighted_signature(phi, WeightFunction.symmetric(phi.n))


def weighted_phi_level(phi: StructureFunction, w: WeightFunction, k: int) -> Fraction:
    """Weighted sum of ``phi`` over the level-k state vectors: the top k entries of
    :meth:`WeightFunction.signature_numerators` telescope to it. The value at
    k = 0 is 0 by convention (not w(0) * phi(0)), which makes signature entries
    telescope cleanly for any weights."""
    check_range(k, 0, phi.n, "level")
    return Fraction(sum(w.signature_numerators(phi)[phi.n - k :]), w.denominator)


def weighted_signature(phi: StructureFunction, w: WeightFunction) -> Signature:
    """Differenced weighted level sums: entry k is W(n - k + 1) - W(n - k).

    W(k) is :func:`weighted_phi_level`, so W(0) = 0. The design signature
    takes the symmetric weights and the probability signature the relative
    quality; the entries telescope to W(n). The level sums are taken in
    integers over the weights' common denominator, which divides once at
    the end.
    """
    scale = w.denominator
    return Signature(tuple(Fraction(s, scale) for s in w.signature_numerators(phi)))


def probability_signature(
    phi: StructureFunction, quality: QualityFunction
) -> Signature:
    """Signature of a semicoherent system, levels weighted by a relative quality function.

    For a quality function derived from a no-ties distribution, entry k is
    the probability that the system lifetime equals the k-th smallest
    component lifetime. The entries always sum to exactly 1 because the
    quality of the full component set is 1 by convention.
    """
    phi.require_semicoherent("signature")
    if not isinstance(quality, QualityFunction):
        raise ValueError(
            f"probability signature needs a relative quality, not a {type(quality).__name__}"
        )
    if quality.from_tied:
        raise TiesError(
            "probability signature needs a quality that sums to 1 on every level, "
            "which no law with tied lifetimes has"
        )
    return weighted_signature(phi, quality)


def signatures_agree(phi: StructureFunction, quality: QualityFunction) -> bool:
    """Exact equality of the design and probability signatures of ``phi``."""
    return probability_signature(phi, quality) == boland_signature(phi)
