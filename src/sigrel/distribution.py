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
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, pairwise, permutations
from typing import Iterable, Iterator

from .errors import EnumerationBoundError, TheoremInconsistencyError, TiesError
from .rationals import (
    check_sequence, file_header, format_rational, parse_rational, parse_rationals, parse_time,
    state_table,
)
from .record import Record
from .signature import QualityFunction, WeightFunction
from .structure import check_count, check_range, component_mask, level_indices, require_same_count

__all__ = [
    "ORDERING_LIMIT",
    "LifetimeDistribution",
    "StateDistribution",
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
Support = dict[int, int]

# The weak scan lists every zero-probability ordering: `diagnose` on a 3-atom comonotone law took
# (2-vCPU VM) 1.2 s, 34 MB of JSON and 111 MB peak RSS at n = 9, and 14 s, 374 MB and 1.0 GB at 10.
ORDERING_LIMIT = 9


class LifetimeDistribution(Record):
    """Finitely supported joint distribution of n component lifetimes.

    Atoms are canonicalized on construction: lifetimes coerced to exact
    rationals, duplicate vectors merged, atoms sorted. Equality is therefore
    a canonical-form comparison. The pass reads each lifetime x as the int
    x * L and each probability p as the int mass p * P, L and P the lcms of
    the lifetime and the probability denominators: the int keys keep order and
    distinctness, and a merge adds masses. It sets ``breakpoints``, the sorted
    distinct lifetimes; ``denominator``, D, the lcm of the merged probabilities;
    ``ranked_atoms``, per atom the breakpoint rank of each lifetime and the
    probability times D; and ``state_chains``, per atom the (rank, packed state)
    pairs from (-1, all working) to the empty state, one per distinct rank: the
    state once the components of that rank have failed. These views take no
    part in equality and hashing.
    """

    n: int
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        check_count(self.n)
        if not self.atoms:
            raise ValueError("a distribution needs at least one atom")
        check_sequence(self.atoms, "atoms", "(lifetimes, probability) pairs")
        parsed: list[Atom] = []
        for entry in self.atoms:
            try:
                lifetimes, prob = entry
            except (TypeError, ValueError) as exc:
                raise ValueError(f"atom {entry!r} is not a (lifetimes, probability) pair") from exc
            xs = parse_rationals(lifetimes, "lifetimes")
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
        P = math.lcm(*(p.denominator for _, p in parsed))
        L = math.lcm(*(x.denominator for xs, _ in parsed for x in xs))
        merged: dict[tuple[int, ...], tuple[tuple[Fraction, ...], int]] = {}  # lifetimes, p * P
        value: dict[int, Fraction] = {}  # grid value -> lifetime
        for xs, p in parsed:  # merged and sorted on int keys: Fractions hash and compare slowly
            key = tuple(x.numerator * (L // x.denominator) for x in xs)
            value.update(zip(key, xs))
            merged[key] = xs, merged.get(key, (xs, 0))[1] + p.numerator * (P // p.denominator)
        total = sum(m for _, m in merged.values())
        if total != P:
            raise ValueError(
                f"atom probabilities sum to {Fraction(total, P)}, off by {Fraction(P - total, P)}"
            )
        rank = {g: b for b, g in enumerate(sorted(value))}  # keys ascend, for the breakpoints
        atoms = sorted(merged.items())
        D = P // math.gcd(P, *(m for _, m in merged.values()))  # merged masses may share a factor
        ranked = tuple((tuple(map(rank.__getitem__, key)), m // (P // D)) for key, (_, m) in atoms)
        chains = []
        for ranks, _ in ranked:
            state = (1 << self.n) - 1
            chain = {-1: state}
            for i in sorted(range(self.n), key=ranks.__getitem__):
                state ^= 1 << i
                chain[ranks[i]] = state  # a tie group keeps the state after all of it
            chains.append(tuple(chain.items()))
        self._set(
            atoms=tuple((xs, Fraction(m, P)) for _, (xs, m) in atoms),
            breakpoints=tuple(map(value.__getitem__, rank)), denominator=D, ranked_atoms=ranked,
            state_chains=tuple(chains),
        )

    # Lazy, unlike the chains: `reliability` and `prob-signature` never read it.
    @cached_property
    def cdfs(self) -> tuple[tuple[int, ...], ...]:
        """:func:`order_stat_cdfs` over all atoms, as tuples."""
        return tuple(map(tuple, order_stat_cdfs(self, self.ranked_atoms)))


class StateDistribution(Record):
    """Distribution of the component state vector at a fixed time."""

    n: int
    t: Fraction
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_count(self.n)
        coerced = state_table(self.n, self.probs, "state probabilities")
        if any(v.numerator < 0 for v in coerced):
            raise ValueError("state probabilities must be nonnegative")
        if sum(coerced) != 1:
            raise ValueError("state probabilities must sum to exactly 1")
        self._set(probs=coerced, t=parse_time(self.t))

    def prob(self, index: int) -> Fraction:
        check_range(index, 0, (1 << self.n) - 1, "state index")
        return self.probs[index]

    def level_total(self, k: int) -> Fraction:
        """Probability that exactly k components are working."""
        return sum(
            (self.probs[i] for i in level_indices(self.n, k)), Fraction(0)
        )


def has_ties(d: LifetimeDistribution) -> bool:
    """True iff two components tie with positive probability."""
    return any(len(chain) <= d.n for chain in d.state_chains)


def require_no_ties(d: LifetimeDistribution, what: str) -> None:
    """Refuse a law in which two components tie with positive probability; ``what``
    names the quantity that needs one component to fail at a time."""
    if has_ties(d):
        raise TiesError(f"{what} needs a distribution without ties")


def state_support(d: LifetimeDistribution, t: object) -> Support:
    """State index -> probability times D, for each state with positive probability at t.

    One state per atom (component alive iff lifetime > t), merged.
    """
    alive = bisect_right(d.breakpoints, parse_time(t))  # by t the ranks below alive have failed
    probs: dict[int, int] = {}
    for chain, (_, p) in zip(d.state_chains, d.ranked_atoms):
        index = chain[bisect_left(chain, (alive,)) - 1][1]  # the last entry with rank < alive
        probs[index] = probs.get(index, 0) + p
    return probs


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
    probs = [Fraction(0)] * (1 << d.n)
    for index, p in state_support(d, t).items():
        probs[index] = Fraction(p, d.denominator)
    return StateDistribution(d.n, t, tuple(probs))


def _state_vector(n: int, index: int) -> list[int]:
    return [(index >> i) & 1 for i in range(n)]


def _state_exchangeability_at(d: LifetimeDistribution, probs: Support) -> dict | None:
    """Witness of the first same-level state pair, by level then index, with
    unequal probabilities; the caller adds the time.

    The pair is a level's first state and the least later state whose
    probability differs. That state is supported or directly follows a
    supported state at its level, so no level is listed in full."""
    candidates: dict[int, list[int]] = {}
    for x in probs:
        # The next index at x's level: the lowest run of ones in x moves its top bit
        # up by one and the rest of the run down to bit 0.
        low = x & -x
        after = x + low | (x ^ x + low) // low >> 2 if x else x
        candidates.setdefault(x.bit_count(), []).extend((x, after))
    # A level without a supported state is all zero.
    for k, level in sorted(candidates.items()):
        first = (1 << k) - 1
        p = probs.get(first, 0)
        other = min((x for x in level if x >> d.n == 0 and probs.get(x, 0) != p), default=None)
        if other is not None:
            return {
                "state": _state_vector(d.n, first),
                "other_state": _state_vector(d.n, other),
                "probability": format_rational(Fraction(p, d.denominator)),
                "other_probability": format_rational(Fraction(probs.get(other, 0), d.denominator)),
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

    A subset outlives the rest in an atom exactly when it is the working set of an
    entry of the atom's state chain; every chain starts at all and ends at none, so
    those get the conventional 1. The sums are ints over D, kept for the at most n + 1
    subsets per atom that get mass. Computed for tied distributions as well, whose
    chains skip a level: the result's ``from_tied`` then lets signatures refuse it.
    """
    sums: dict[int, int] = {}
    for chain, (_, p) in zip(d.state_chains, d.ranked_atoms):
        for _, mask in chain:
            sums[mask] = sums.get(mask, 0) + p
    values = [Fraction(0)] * (1 << d.n)
    for mask, p in sums.items():
        values[mask] = Fraction(p, d.denominator)
    return QualityFunction(d.n, tuple(values))


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
    check_range(k, 1, d.n, "order statistic index")
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
    group = component_mask(d.n, components, "component")
    return Fraction(sum(p for x, p in support.items() if x & group == group), d.denominator)


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
) -> tuple[dict | None, Iterator[tuple[int, ...]]]:
    """(witness, skipped zero-probability orderings), witness lexicographically first.

    Only the realized orderings are read, sorted, which is the order of
    :func:`itertools.permutations`; the skipped ones, before the witness's or all
    without one, are generated as read. With P(X_(k:n) <= t, group) = mass / D and
    P(X_(k:n) <= t) = u / D from :func:`order_stat_cdfs` and P(group) = total / D,
    the conditional equals u / D iff mass * D == u * total.
    """
    require_no_ties(d, "weak exchangeability")
    by_order: dict[tuple[int, ...], list[RankedAtom]] = {}
    for atom, chain in zip(d.ranked_atoms, d.state_chains):
        # Without ties consecutive states differ in the one component that fails.
        sigma = tuple((a ^ b).bit_length() for (_, a), (_, b) in pairwise(chain))
        by_order.setdefault(sigma, []).append(atom)

    def skipped(stop: tuple[int, ...] | None) -> Iterator[tuple[int, ...]]:
        for sigma in permutations(range(1, d.n + 1)):
            if sigma == stop:
                return
            if sigma not in by_order:
                yield sigma

    for sigma, members in sorted(by_order.items()):
        total = sum(p for _, p in members)
        for k, (joint, marginal) in enumerate(zip(order_stat_cdfs(d, members), d.cdfs), start=1):
            for t, mass, u in zip(d.breakpoints, joint, marginal):
                if mass * d.denominator != u * total:
                    return {
                        "permutation": list(sigma),
                        "k": k,
                        "t": format_rational(t),
                        "unconditional": format_rational(Fraction(u, d.denominator)),
                        "conditional": format_rational(Fraction(mass, total)),
                    }, skipped(sigma)
    return None, skipped(None)


def condition_w(d: LifetimeDistribution, w: WeightFunction, t: object) -> bool:
    """Whether each nonzero state's probability at t is w(state) times its level total.

    The weight function is taken as given; nothing here requires its level
    sums to equal 1.
    """
    require_same_count("weight function and distribution", w, d)
    return _condition_w_witness(d, w, state_support(d, t)) is None


def _condition_w_witness(
    d: LifetimeDistribution, w: WeightFunction, probs: Support
) -> dict | None:
    """Witness of the first state x >= 1 where P(x) != w(x) * P(level of x),
    compared as ints: P(x) * Q against ``w.numerators[x]`` times the level
    total, both over D. The caller adds the time."""
    Q, weights = w.denominator, w.numerators
    totals = [0] * (d.n + 1)
    for index, p in probs.items():
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
) -> tuple[QualityFunction, dict]:
    """Evaluate every condition of the equivalences once, for n <= ORDERING_LIMIT.

    ``supports`` are :func:`state_support` at each breakpoint, in order; the
    walk stops reading them at the breakpoint where both state conditions
    have their witness. Returns (quality, fields): ``quality`` is
    :func:`relative_quality`, the weights of condition (Q), and ``fields`` holds
    the condition keywords of :class:`~sigrel.reliability.DiagnosisReport`.
    Each flag is True iff its condition has no witness (weakly_exchangeable
    is None for tied laws). ``witnesses`` maps each failed condition to its
    lexicographically first counterexample, rationals as strings, and
    ``skipped_orderings`` lists the zero-probability orderings before the weak
    witness's, or all of them. The flags, K, S, L, W and Q in their order in ``fields``,
    must meet the paper's implications (three only on tie-free laws): a broken one is a
    bug, and :class:`TheoremInconsistencyError` names it.
    """
    if d.n > ORDERING_LIMIT:
        raise EnumerationBoundError(
            f"the condition scan supports n <= {ORDERING_LIMIT}, got n={d.n}"
        )
    quality = relative_quality(d)
    state_wit = cond_wit = None
    for t, support in zip(d.breakpoints, supports):
        if state_wit is None and (wit := _state_exchangeability_at(d, support)):
            state_wit = {"t": format_rational(t), **wit}
        if cond_wit is None and (wit := _condition_w_witness(d, quality, support)):
            cond_wit = {"t": format_rational(t), **wit}
        if state_wit and cond_wit:
            break
    ties = quality.from_tied
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
        "q_symmetric": (K := witnesses["q_symmetric"] is None),
        "states_exchangeable_everywhere": (S := state_wit is None),
        "lifetimes_exchangeable": (L := witnesses["lifetimes_exchangeable"] is None),
        "weakly_exchangeable": (W := None if ties else weak_wit is None),
        "condition_q_everywhere": (Q := cond_wit is None),
        "witnesses": {key: wit for key, wit in witnesses.items() if wit is not None},
        "skipped_orderings": tuple(skipped),
    }
    clauses = {
        "lifetimes_exchangeable_implies_states_exchangeable": L and not S,
        "q_symmetry_implies_condition_q_iff_states_exchangeable": K and Q != S,
        "lifetimes_exchangeable_implies_q_symmetry": L and not ties and not K,
        "lifetimes_exchangeable_implies_weak_exchangeability": L and not ties and not W,
        "weak_exchangeability_implies_condition_q": W and not Q,
    }
    if broken := [name for name, fails in clauses.items() if fails]:
        raise TheoremInconsistencyError(f"the conditions break: {'; '.join(broken)}")
    return quality, fields


def distribution_to_json(d: LifetimeDistribution) -> dict:
    """Distribution-file form with all rationals as "a/b" strings."""
    atoms = [{"x": [format_rational(x) for x in xs], "p": format_rational(p)} for xs, p in d.atoms]
    return {"n": d.n, "atoms": atoms}


def distribution_from_json(obj: object) -> LifetimeDistribution:
    """Parse the distribution-file form; validation errors name the offending field."""
    n, atoms = file_header(obj, "distribution", "atoms")
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("distribution field 'atoms' must be a nonempty list")
    for i, entry in enumerate(atoms):
        if not isinstance(entry, dict) or "x" not in entry or "p" not in entry:
            raise ValueError(f"atom {i} must be an object with 'x' and 'p' fields")
        if not isinstance(entry["x"], list):
            raise ValueError(f"atom {i}: 'x' must be a list of rationals")
    # The law parses each value once.
    return LifetimeDistribution(n, tuple((entry["x"], entry["p"]) for entry in atoms))
