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
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterator

from .errors import TiesError
from .rationals import as_fractions, format_rational
from .record import Record
from .structure import StructureFunction, level_indices

if TYPE_CHECKING:  # pragma: no cover
    from .distribution import QualityFunction

__all__ = [
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
        coerced = as_fractions(self.values)
        if not coerced:
            raise ValueError("a signature needs at least one entry")
        object.__setattr__(self, "values", coerced)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def as_strings(self) -> tuple[str, ...]:
        return tuple(format_rational(v) for v in self.values)


class WeightFunction(Record):
    """A rational weight for every packed state index of an n-component system."""

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("weight functions need n >= 1")
        coerced = as_fractions(self.values)
        if len(coerced) != 1 << self.n:
            raise ValueError(
                f"expected {1 << self.n} weights for n={self.n}, got {len(coerced)}"
            )
        object.__setattr__(self, "values", coerced)

    @classmethod
    @lru_cache(maxsize=None)
    def symmetric(cls, n: int) -> "WeightFunction":
        """Level-uniform weights 1 / C(n, |x|); weighted sums become level averages.

        One instance per n is built and shared; instances are frozen.
        """
        values = [
            Fraction(1, math.comb(n, mask.bit_count())) for mask in range(1 << n)
        ]
        return cls(n, tuple(values))

    @classmethod
    def from_quality(cls, quality: "QualityFunction") -> "WeightFunction":
        """Read a relative quality function as weights on state vectors.

        A state vector is identified with the subset of its working
        components, so the packed encodings coincide.
        """
        return cls(quality.n, tuple(quality.values))

    @cached_property
    def denominator(self) -> int:
        """Least common denominator of the weights."""
        return math.lcm(*(v.denominator for v in self.values))

    @cached_property
    def numerators(self) -> tuple[int, ...]:
        """The weights times :attr:`denominator`, as ints."""
        return tuple(v.numerator * (self.denominator // v.denominator) for v in self.values)

    def phi_level_numerators(self, phi: StructureFunction) -> tuple[int, ...]:
        """Weighted level sums W(0), ..., W(n) of ``phi`` times :attr:`denominator`.

        W(k) sums w(x) * phi(x) over the level-k state vectors x, in exact
        integers; W(0) is 0 by convention (see :func:`weighted_phi_level`).
        """
        if phi.n != self.n:
            raise ValueError("weight function and system disagree on component count")
        weights = self.numerators
        bits = phi.bits()
        levels = [0] * (self.n + 1)
        for index in range(1, 1 << self.n):
            if bits[index] == "1":
                levels[index.bit_count()] += weights[index]
        return tuple(levels)

    def signature_numerators(self, phi: StructureFunction) -> tuple[int, ...]:
        """:func:`weighted_signature` of ``phi`` times :attr:`denominator`, as ints."""
        levels = self.phi_level_numerators(phi)
        n = self.n
        return tuple(levels[n - k + 1] - levels[n - k] for k in range(1, n + 1))


def phi_level(phi: StructureFunction, k: int) -> Fraction:
    """Mean of ``phi`` over the C(n, k) state vectors with k working components."""
    if not 0 <= k <= phi.n:
        raise ValueError(f"level {k} out of range 0..{phi.n}")
    total = sum(phi.value(i) for i in level_indices(phi.n, k))
    return Fraction(total, math.comb(phi.n, k))


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
    """Weighted sum of ``phi`` over the level-k state vectors.

    The value at k = 0 is 0 by convention (not w(0) * phi(0)), which makes
    signature entries telescope cleanly for any weights.
    """
    if not 0 <= k <= phi.n:
        raise ValueError(f"level {k} out of range 0..{phi.n}")
    return Fraction(w.phi_level_numerators(phi)[k], w.denominator)


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
    phi: StructureFunction, quality: "QualityFunction"
) -> Signature:
    """Signature with levels weighted by a relative quality function.

    For a quality function derived from a no-ties distribution, entry k is
    the probability that the system lifetime equals the k-th smallest
    component lifetime. The entries always sum to exactly 1 because the
    quality of the full component set is 1 by convention.
    """
    if quality.from_tied:
        raise TiesError(
            "probability signature is undefined for distributions with tied lifetimes"
        )
    if quality.n != phi.n:
        raise ValueError("quality function and system disagree on component count")
    return weighted_signature(phi, WeightFunction.from_quality(quality))


def signatures_agree(phi: StructureFunction, quality: "QualityFunction") -> bool:
    """Exact equality of the design and probability signatures of ``phi``."""
    return probability_signature(phi, quality) == boland_signature(phi)
