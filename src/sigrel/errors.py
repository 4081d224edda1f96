"""Exception types shared across the library."""

from __future__ import annotations

__all__ = [
    "EnumerationBoundError",
    "NonMonotoneError",
    "TheoremInconsistencyError",
    "TiesError",
]


class NonMonotoneError(ValueError):
    """A truth table decreases along a covering pair of state indices.

    ``low`` and ``high`` are table indices with ``high = low | single_bit``,
    so the state at ``high`` dominates the one at ``low`` componentwise while
    the table value drops from 1 to 0.
    """

    def __init__(self, low: int, high: int) -> None:
        self.low = low
        self.high = high
        super().__init__(
            f"not monotone: table value drops from index {low} to the "
            f"dominating index {high}"
        )


class TiesError(ValueError):
    """The operation needs a distribution in which component lifetimes never tie."""


class EnumerationBoundError(ValueError):
    """An enumeration or spanning family was requested above its component limit."""


class TheoremInconsistencyError(RuntimeError):
    """Two independently computed sides of an equivalence disagree.

    Raised by the verifier. This is never a property of the input
    distribution; it means the implementation itself is broken.
    """
