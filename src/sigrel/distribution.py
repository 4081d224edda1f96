"""Finite joint lifetime distributions and their exchangeability diagnostics.

A distribution is a finite set of atoms, each a vector of n strictly
positive rational lifetimes with a rational probability; probabilities must
sum to exactly 1. All questions quantified over "every t > 0" are decided
at the breakpoints (the distinct lifetime values): the component state
vector at time t is constant on each interval between consecutive
breakpoints, so checking at the left endpoints covers the whole half-line.

:attr:`LifetimeDistribution.ranked_atoms` holds, per atom, each lifetime's
breakpoint rank and the probability times D, the least common denominator of
the atom probabilities. :func:`state_support` and the one order-statistic
sweep :func:`order_stat_cdfs` read lifetimes only through it, so their tests
of a lifetime against t are int comparisons; Fractions are built only for
witnesses and public values.

State vectors use the same packed encoding as truth-table indices:
component i working at time t sets bit i - 1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, permutations
from typing import Iterable

from .errors import EnumerationBoundError, TiesError
from .rationals import as_fractions, format_rational, parse_rational, parse_time
from .record import Record
from .signature import WeightFunction
from .structure import level_indices

__all__ = [
    "ORDERING_LIMIT",
    "LifetimeDistribution",
    "QualityFunction",
    "StateDistribution",
    "breakpoints",
    "condition_w",
    "distribution_from_json",
    "distribution_to_json",
    "evaluate_conditions",
    "group_reliability",
    "has_ties",
    "is_q_symmetric",
    "lifetimes_exchangeable",
    "order_stat_survival",
    "relative_quality",
    "state_distribution",
    "states_exchangeable_at",
    "states_exchangeable_everywhere",
    "survival_numerators",
    "weakly_exchangeable",
]

Atom = tuple[tuple[Fraction, ...], Fraction]
RankedAtom = tuple[tuple[int, ...], int]
Support = tuple[tuple[int, int], ...]

# The weak scan lists every zero-probability ordering: `diagnose` on a 3-atom comonotone law took
# (2-vCPU VM) 1.2 s, 34 MB of JSON and 111 MB peak RSS at n = 9, and 14 s, 374 MB and 1.0 GB at 10.
ORDERING_LIMIT = 9


class LifetimeDistribution(Record):
    """Finitely supported joint distribution of n component lifetimes.

    Atoms are canonicalized on construction: lifetimes coerced to exact
    rationals, duplicate vectors merged, atoms sorted. Equality is therefore
    a canonical-form comparison. Merging and sorting read each lifetime x as
    the int x * L, L the lcm of the lifetime denominators, which keeps order
    and distinctness. These grid vectors and the cached views of the law take
    no part in equality and hashing.
    """

    n: int
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"component count must be a positive integer, got {self.n!r}")
        if not self.atoms:
            raise ValueError("a distribution needs at least one atom")
        parsed: list[Atom] = []
        total = Fraction(0)
        for entry in self.atoms:
            try:
                lifetimes, prob = entry
            except (TypeError, ValueError) as exc:
                raise ValueError(f"atom {entry!r} is not a (lifetimes, probability) pair") from exc
            xs = tuple(parse_rational(v) for v in lifetimes)
            if len(xs) != self.n:
                raise ValueError(
                    f"atom {entry!r} has {len(xs)} lifetimes, expected {self.n}"
                )
            if any(x.numerator <= 0 for x in xs):
                raise ValueError("lifetimes must be strictly positive")
            p = parse_rational(prob)
            if not 0 < p.numerator <= p.denominator:
                raise ValueError(f"atom probability {p} is outside (0, 1]")
            parsed.append((xs, p))
            total += p
        if total != 1:
            raise ValueError(
                f"atom probabilities sum to {total}, off by {1 - total}"
            )
        L = math.lcm(*(x.denominator for xs, _ in parsed for x in xs))
        merged: dict[tuple[int, ...], Atom] = {}
        for xs, p in parsed:  # merged and sorted on int keys: Fractions hash and compare slowly
            key = tuple(x.numerator * (L // x.denominator) for x in xs)
            if key in merged:
                p += merged[key][1]
            merged[key] = xs, p
        grid = sorted(merged)
        object.__setattr__(self, "atoms", tuple(map(merged.__getitem__, grid)))
        object.__setattr__(self, "_grid", tuple(grid))

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Sorted distinct lifetime values; state vectors only change there."""
        value = {g: x for key, (xs, _) in zip(self._grid, self.atoms) for g, x in zip(key, xs)}
        return tuple(map(value.__getitem__, sorted(value)))

    @cached_property
    def denominator(self) -> int:
        """D, the least common denominator of the atom probabilities."""
        return math.lcm(*(p.denominator for _, p in self.atoms))

    @cached_property
    def ranked_atoms(self) -> tuple[RankedAtom, ...]:
        """Per atom, the breakpoint rank of each lifetime and the probability times D."""
        rank = {g: b for b, g in enumerate(sorted({g for key in self._grid for g in key}))}
        D, atoms = self.denominator, zip(self._grid, self.atoms)
        return tuple((tuple(map(rank.__getitem__, key)), int(p * D)) for key, (_, p) in atoms)

    @cached_property
    def cdfs(self) -> tuple[tuple[int, ...], ...]:
        """:func:`order_stat_cdfs` over all atoms, as tuples."""
        return tuple(map(tuple, order_stat_cdfs(self, self.ranked_atoms)))


class QualityFunction(Record, uncompared=("from_tied",)):
    """Relative quality of every component subset, packed-index order.

    values[mask] is the probability that every component in the subset
    outlives every component outside it; the empty and full subsets carry
    the conventional value 1. ``from_tied`` records whether the source
    distribution had tied lifetimes, in which case signature operations
    must refuse the function.
    """

    n: int
    values: tuple[Fraction, ...]
    from_tied: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("quality functions need n >= 1")
        coerced = as_fractions(self.values)
        if len(coerced) != 1 << self.n:
            raise ValueError(
                f"expected {1 << self.n} values for n={self.n}, got {len(coerced)}"
            )
        if coerced[0] != 1 or coerced[-1] != 1:
            raise ValueError("the empty and full subsets must have quality 1")
        if any(not 0 <= v.numerator <= v.denominator for v in coerced):
            raise ValueError("quality values must lie in [0, 1]")
        object.__setattr__(self, "values", coerced)


class StateDistribution(Record):
    """Distribution of the component state vector at a fixed time."""

    n: int
    t: Fraction
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coerced = as_fractions(self.probs)
        if len(coerced) != 1 << self.n:
            raise ValueError(
                f"expected {1 << self.n} state probabilities, got {len(coerced)}"
            )
        if any(v.numerator < 0 for v in coerced):
            raise ValueError("state probabilities must be nonnegative")
        if sum(coerced) != 1:
            raise ValueError("state probabilities must sum to exactly 1")
        object.__setattr__(self, "probs", coerced)
        object.__setattr__(self, "t", Fraction(self.t))

    def prob(self, index: int) -> Fraction:
        return self.probs[index]

    def level_total(self, k: int) -> Fraction:
        """Probability that exactly k components are working."""
        return sum(
            (self.probs[i] for i in level_indices(self.n, k)), Fraction(0)
        )


def has_ties(d: LifetimeDistribution) -> bool:
    """True iff two components tie with positive probability."""
    return any(len(set(ranks)) < d.n for ranks, _ in d.ranked_atoms)


def breakpoints(d: LifetimeDistribution) -> tuple[Fraction, ...]:
    """Public spelling of :attr:`LifetimeDistribution.breakpoints`."""
    return d.breakpoints


def state_support(d: LifetimeDistribution, t: object) -> Support:
    """(state index, probability times D) of each state with positive probability at t.

    One state per atom (component alive iff lifetime > t), merged, sorted by index.
    """
    alive = bisect_right(d.breakpoints, parse_time(t))  # lifetime > t iff its rank >= alive
    probs: dict[int, int] = {}
    for ranks, p in d.ranked_atoms:
        index = sum(1 << i for i, r in enumerate(ranks) if r >= alive)
        probs[index] = probs.get(index, 0) + p
    return tuple(sorted(probs.items()))


def order_stat_cdfs(d: LifetimeDistribution, atoms: Iterable[RankedAtom]) -> list[list[int]]:
    """Row k - 1: P(X_(k:n) <= each breakpoint, one of ``atoms``) times D, summed
    from one mass per atom at the rank of its k-th smallest lifetime."""
    mass = [[0] * len(d.breakpoints) for _ in range(d.n)]
    for ranks, p in atoms:
        for row, r in zip(mass, sorted(ranks)):
            row[r] += p
    return [list(accumulate(row)) for row in mass]


def state_distribution(d: LifetimeDistribution, t: object) -> StateDistribution:
    """Distribution of the working/failed vector at time t (component alive iff lifetime > t)."""
    t = parse_rational(t)
    probs = [Fraction(0)] * (1 << d.n)
    for index, p in state_support(d, t):
        probs[index] = Fraction(p, d.denominator)
    return StateDistribution(d.n, t, tuple(probs))


def _state_vector(n: int, index: int) -> list[int]:
    return [(index >> i) & 1 for i in range(n)]


def _state_exchangeability_at(d: LifetimeDistribution, support: Support) -> dict | None:
    """Witness of the first same-level state pair, by level then index, with
    unequal probabilities; the caller adds the time."""
    probs = dict(support)
    # A level without a supported state is all zero.
    for k in sorted({index.bit_count() for index in probs}):
        first, *others = level_indices(d.n, k)
        p = probs.get(first, 0)
        for other in others:
            q = probs.get(other, 0)
            if q != p:
                return {
                    "state": _state_vector(d.n, first),
                    "other_state": _state_vector(d.n, other),
                    "probability": format_rational(Fraction(p, d.denominator)),
                    "other_probability": format_rational(Fraction(q, d.denominator)),
                }
    return None


def states_exchangeable_at(d: LifetimeDistribution, t: object) -> bool:
    """True iff state probabilities at t depend only on how many components work."""
    return _state_exchangeability_at(d, state_support(d, t)) is None


def states_exchangeable_everywhere(d: LifetimeDistribution) -> bool:
    """State exchangeability at every t > 0, decided at the breakpoints."""
    return all(_state_exchangeability_at(d, state_support(d, t)) is None for t in d.breakpoints)


def relative_quality(d: LifetimeDistribution) -> QualityFunction:
    """Probability, per subset, that its components outlive all of the others.

    One sweep over the ranked atoms: a subset outlives the rest in an atom
    exactly when it is the top-j set of the atom's descending order and
    v_j > v_(j+1) there. The sums are ints over D, kept for the at most n - 1
    subsets per atom that get mass. Computed for tied distributions as well;
    the result then carries ``from_tied`` so that signature operations can refuse it.
    """
    sums: dict[int, int] = {}
    for ranks, p in d.ranked_atoms:
        order = sorted(range(d.n), key=ranks.__getitem__, reverse=True)
        mask = 0
        for j in range(d.n - 1):
            mask |= 1 << order[j]
            if ranks[order[j]] > ranks[order[j + 1]]:
                sums[mask] = sums.get(mask, 0) + p
    values = [Fraction(0)] * (1 << d.n)
    for mask, p in sums.items():
        values[mask] = Fraction(p, d.denominator)
    values[0] = values[-1] = Fraction(1)
    return QualityFunction(d.n, tuple(values), from_tied=has_ties(d))


def is_q_symmetric(q: QualityFunction) -> bool:
    """True iff every subset's quality is 1 / C(n, |subset|)."""
    return _q_symmetry_witness(q) is None


def _q_symmetry_witness(q: QualityFunction) -> dict | None:
    """Witness of the first subset, by packed index, off the symmetric quality."""
    symmetric = WeightFunction.symmetric(q.n).values
    for mask, (value, expected) in enumerate(zip(q.values, symmetric)):
        if value != expected:
            return {
                "subset": [i + 1 for i in range(q.n) if mask >> i & 1],
                "value": format_rational(value),
                "symmetric_value": format_rational(expected),
            }
    return None


def lifetimes_exchangeable(d: LifetimeDistribution) -> bool:
    """True iff the joint law is invariant under every relabeling of components."""
    return _lifetime_exchangeability_witness(d) is None


def _lifetime_exchangeability_witness(d: LifetimeDistribution) -> dict | None:
    """Witness of the first permutation (lexicographic) and vector where the
    pushforward law differs.

    The relabelings that fix the law form a group, and every permutation before
    the transposition of components i + 1 and i + 2 fixes components 1..i + 1 and
    is a product of the later adjacent transpositions, checked first; so the
    first transposition found to move the law is the first permutation that does.
    """
    base = dict(d.ranked_atoms)
    for i in reversed(range(d.n - 1)):
        # Atoms are distinct vectors, so relabeling merges none of them.
        pushed = {r[:i] + (r[i + 1], r[i]) + r[i + 2 :]: p for r, p in d.ranked_atoms}
        if pushed != base:
            ranks = min(r for r in base.keys() | pushed if base.get(r) != pushed.get(r))
            p, q = base.get(ranks, 0), pushed.get(ranks, 0)
            return {
                "permutation": [*range(1, i + 1), i + 2, i + 1, *range(i + 3, d.n + 1)],
                "lifetimes": [format_rational(d.breakpoints[r]) for r in ranks],
                "probability": format_rational(Fraction(p, d.denominator)),
                "permuted_probability": format_rational(Fraction(q, d.denominator)),
            }
    return None


def order_stat_survival(d: LifetimeDistribution, k: int, t: object) -> Fraction:
    """Probability that the k-th smallest lifetime exceeds t (k in 1..n)."""
    if not 1 <= k <= d.n:
        raise ValueError(f"order statistic index {k} out of range 1..{d.n}")
    return Fraction(survival_numerators(d, t)[k - 1], d.denominator)


def survival_numerators(d: LifetimeDistribution, t: object) -> list[int]:
    """P(X_(k:n) > t) times D for k = 1..n: D minus :attr:`LifetimeDistribution.cdfs`
    at the last breakpoint <= t, or D before the first breakpoint."""
    b = bisect_right(d.breakpoints, parse_time(t))
    return [d.denominator - (row[b - 1] if b else 0) for row in d.cdfs]


def group_reliability(
    d: LifetimeDistribution, components: Iterable[int], t: object
) -> Fraction:
    """Probability that every component in the (1-based) group survives past t:
    the :func:`state_support` mass on the states in which the whole group works."""
    support = state_support(d, t)
    group = 0
    for comp in components:
        if not isinstance(comp, int) or isinstance(comp, bool) or not 1 <= comp <= d.n:
            raise ValueError(f"component {comp!r} out of range 1..{d.n}")
        group |= 1 << (comp - 1)
    return Fraction(sum(p for x, p in support if x & group == group), d.denominator)


def weakly_exchangeable(d: LifetimeDistribution) -> bool:
    """True iff order statistics are independent of the realized failure order.

    For every strict ordering of the components with positive probability
    and every k, the conditional law of the k-th smallest lifetime given
    that ordering must match the unconditional one. Orderings of zero
    probability are skipped (the conditional is undefined there). Tied
    distributions are refused.
    """
    return _weak_exchangeability_scan(d)[0] is None


def _weak_exchangeability_scan(
    d: LifetimeDistribution,
) -> tuple[dict | None, tuple[tuple[int, ...], ...]]:
    """(witness, skipped zero-probability orderings), witness lexicographically first.

    The ranked atoms are grouped by realized ordering once. With P(X_(k:n) <= t,
    group) = mass / D and P(X_(k:n) <= t) = u / D from :func:`order_stat_cdfs` and
    P(group) = total / D, the conditional equals u / D iff mass * D == u * total.
    """
    if has_ties(d):
        raise TiesError("weak exchangeability needs a distribution without ties")
    by_order: dict[tuple[int, ...], list[RankedAtom]] = {}
    for ranks, p in d.ranked_atoms:
        order = tuple(i + 1 for i in sorted(range(d.n), key=ranks.__getitem__))
        by_order.setdefault(order, []).append((ranks, p))
    D = d.denominator
    skipped = []
    for sigma in permutations(range(1, d.n + 1)):
        members = by_order.get(sigma)
        if members is None:
            skipped.append(sigma)
            continue
        total = sum(p for _, p in members)
        for k, (joint, marginal) in enumerate(zip(order_stat_cdfs(d, members), d.cdfs), start=1):
            for t, mass, u in zip(d.breakpoints, joint, marginal):
                if mass * D != u * total:
                    return {
                        "permutation": list(sigma),
                        "k": k,
                        "t": format_rational(t),
                        "unconditional": format_rational(Fraction(u, D)),
                        "conditional": format_rational(Fraction(mass, total)),
                    }, tuple(skipped)
    return None, tuple(skipped)


def condition_w(d: LifetimeDistribution, w: WeightFunction, t: object) -> bool:
    """Whether each nonzero state's probability at t is w(state) times its level total.

    The weight function is taken as given; nothing here requires its level
    sums to equal 1.
    """
    if w.n != d.n:
        raise ValueError("weight function and distribution disagree on component count")
    return _condition_w_witness(d, w, state_support(d, t)) is None


def _condition_w_witness(
    d: LifetimeDistribution, w: WeightFunction, support: Support
) -> dict | None:
    """Witness of the first state x >= 1 where P(x) != w(x) * P(level of x),
    compared as ints: P(x) * Q against ``w.numerators[x]`` times the level
    total, both over D. The caller adds the time."""
    Q, weights = w.denominator, w.numerators
    probs = dict(support)
    totals = [0] * (d.n + 1)
    for index, p in support:
        totals[index.bit_count()] += p
    for x in range(1, 1 << d.n):
        p, expected = probs.get(x, 0), weights[x] * totals[x.bit_count()]
        if p * Q != expected:
            return {
                "state": _state_vector(d.n, x),
                "probability": format_rational(Fraction(p, d.denominator)),
                "expected": format_rational(Fraction(expected, Q * d.denominator)),
            }
    return None


def evaluate_conditions(
    d: LifetimeDistribution, supports: Iterable[Support]
) -> tuple[WeightFunction, dict]:
    """Evaluate every condition of the equivalences once, for n <= ORDERING_LIMIT.

    ``supports`` are :func:`state_support` at each breakpoint, in order; the
    walk stops reading them at the breakpoint where both state conditions
    have their witness. Returns (weights, fields): ``weights`` is the
    relative quality read as a :class:`WeightFunction`, and ``fields`` holds
    the condition keywords of :class:`~sigrel.reliability.DiagnosisReport`.
    Each flag is True iff its condition has no witness (weakly_exchangeable
    is None for tied laws). ``witnesses`` maps each failed condition to its
    lexicographically first counterexample, rationals as strings, and
    ``skipped_orderings`` lists the zero-probability orderings.
    """
    if d.n > ORDERING_LIMIT:
        raise EnumerationBoundError(
            f"the condition scan supports n <= {ORDERING_LIMIT}, got n={d.n}"
        )
    quality = relative_quality(d)
    w = WeightFunction.from_quality(quality)
    state_wit = cond_wit = None
    for t, support in zip(d.breakpoints, supports):
        if state_wit is None and (wit := _state_exchangeability_at(d, support)):
            state_wit = {"t": format_rational(t), **wit}
        if cond_wit is None and (wit := _condition_w_witness(d, w, support)):
            cond_wit = {"t": format_rational(t), **wit}
        if state_wit and cond_wit:
            break
    ties = has_ties(d)
    weak_wit, skipped = (None, ()) if ties else _weak_exchangeability_scan(d)
    witnesses = {
        "q_symmetric": _q_symmetry_witness(quality),
        "states_exchangeable": state_wit,
        "lifetimes_exchangeable": _lifetime_exchangeability_witness(d),
        "weakly_exchangeable": weak_wit,
        "condition_q": cond_wit,
    }
    fields = {
        "has_ties": ties,
        "q_symmetric": witnesses["q_symmetric"] is None,
        "states_exchangeable_everywhere": state_wit is None,
        "lifetimes_exchangeable": witnesses["lifetimes_exchangeable"] is None,
        "weakly_exchangeable": None if ties else weak_wit is None,
        "condition_q_everywhere": cond_wit is None,
        "witnesses": {key: wit for key, wit in witnesses.items() if wit is not None},
        "skipped_orderings": skipped,
    }
    return w, fields


def distribution_to_json(d: LifetimeDistribution) -> dict:
    """Distribution-file form with all rationals as "a/b" strings."""
    return {
        "n": d.n,
        "atoms": [
            {
                "x": [format_rational(x) for x in xs],
                "p": format_rational(p),
            }
            for xs, p in d.atoms
        ],
    }


def distribution_from_json(obj: object) -> LifetimeDistribution:
    """Parse the distribution-file form; validation errors name the offending field."""
    if not isinstance(obj, dict):
        raise ValueError("distribution file must be a JSON object")
    try:
        n = obj["n"]
        atoms = obj["atoms"]
    except KeyError as exc:
        raise ValueError(
            f"distribution file is missing the {exc.args[0]!r} field"
        ) from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"distribution field 'n' must be an integer, got {n!r}")
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("distribution field 'atoms' must be a nonempty list")
    parsed = []
    for i, entry in enumerate(atoms):
        if not isinstance(entry, dict) or "x" not in entry or "p" not in entry:
            raise ValueError(f"atom {i} must be an object with 'x' and 'p' fields")
        xs = entry["x"]
        if not isinstance(xs, list):
            raise ValueError(f"atom {i}: 'x' must be a list of rationals")
        parsed.append((tuple(parse_rational(v) for v in xs), parse_rational(entry["p"])))
    return LifetimeDistribution(n, tuple(parsed))
