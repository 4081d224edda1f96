"""System reliability, signature representations, and their verification.

Two decompositions of the system survival probability into order-statistic
survivals are implemented: one weighted by the design signature and one by
the probability signature. Each is exact for every system precisely when
the joint lifetime law satisfies a matching condition (state
exchangeability for the former, proportionality of state probabilities to
the relative quality for the latter). The verifier evaluates both sides of
each equivalence independently on a concrete distribution and treats any
disagreement as a fatal implementation bug.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import accumulate, compress, pairwise
from operator import mul, sub
from typing import Iterable, Sequence

from .distribution import (
    LifetimeDistribution,
    Support,
    evaluate_conditions,
    has_ties,
    relative_quality,
    state_support,
    survival_numerators,
)
from .errors import TheoremInconsistencyError, TiesError
from .rationals import as_fractions, format_rational, parse_rational, parse_time
from .record import Record
from .signature import Signature, WeightFunction
from .structure import (
    StructureFunction,
    SystemClass,
    class_rank,
    class_tables,
    system_to_json,
)

__all__ = [
    "DiagnosisReport",
    "ReliabilityCurve",
    "TheoremCheck",
    "diagnose",
    "probability_signature_oracle",
    "reliability_curve",
    "repr_boland",
    "repr_prob_signature",
    "repr_weighted",
    "system_lifetime",
    "system_reliability",
    "verify_theorems",
]


class ReliabilityCurve(Record):
    """Piecewise-constant survival curve of a system.

    ``values`` has one entry per interval: values[0] on (0, b_1), then
    values[i] on [b_i, b_(i+1)) and the final entry on [b_last, infinity).
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        bps = as_fractions(self.breakpoints)
        vals = as_fractions(self.values)
        if not bps:
            raise ValueError("a curve needs at least one breakpoint")
        if any(b.numerator <= 0 for b in bps):
            raise ValueError("breakpoints must be positive")
        if not all(a < b for a, b in pairwise(bps)):
            raise ValueError("breakpoints must be strictly increasing")
        if len(vals) != len(bps) + 1:
            raise ValueError("need exactly one value per interval")
        if any(not 0 <= v.numerator <= v.denominator for v in vals):
            raise ValueError("curve values must lie in [0, 1]")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    def value_at(self, t: object) -> Fraction:
        return self.values[bisect.bisect_right(self.breakpoints, parse_time(t))]

    def to_json(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "values": [format_rational(v) for v in self.values],
        }


def _failing_component(phi: StructureFunction, keys: Sequence) -> int:
    """Index of the component whose failure stops ``phi`` when components fail in
    the order of ``keys``, lifetimes or their ranks. Components sharing a key
    fail together; by monotonicity, ties cannot move the failure time. ``phi``
    must be semicoherent."""
    index = (1 << phi.n) - 1
    for i in sorted(range(phi.n), key=keys.__getitem__):
        index &= ~(1 << i)
        if not phi.table >> index & 1:
            return i
    raise AssertionError("unreachable: a semicoherent system fails by the last failure")


def system_lifetime(phi: StructureFunction, lifetimes: Sequence[object]) -> Fraction:
    """Failure time of the system under one realization of component lifetimes.

    Components sharing a lifetime value fail simultaneously. The system
    needs the semicoherent boundary values, otherwise it might never fail.
    """
    phi.require_semicoherent("system lifetime")
    xs = [parse_rational(v) for v in lifetimes]
    if len(xs) != phi.n:
        raise ValueError(f"expected {phi.n} lifetimes, got {len(xs)}")
    if any(x <= 0 for x in xs):
        raise ValueError("lifetimes must be strictly positive")
    return xs[_failing_component(phi, xs)]


def probability_signature_oracle(
    phi: StructureFunction, d: LifetimeDistribution
) -> Signature:
    """Probability signature by direct atom scan, no quality function involved.

    For each atom the system lifetime is located among the sorted component
    lifetimes; entry k accumulates the probability that it is the k-th
    smallest, in ints over D. Needs a no-ties distribution so that the rank
    is unambiguous.
    """
    if has_ties(d):
        raise TiesError("signature oracle needs a distribution without ties")
    if phi.n != d.n:
        raise ValueError("system and distribution disagree on component count")
    phi.require_semicoherent("system lifetime")
    acc = [0] * d.n
    for ranks, p in d.ranked_atoms:
        failing = ranks[_failing_component(phi, ranks)]
        acc[sum(r < failing for r in ranks)] += p
    return Signature(tuple(Fraction(a, d.denominator) for a in acc))


def system_reliability(
    phi: StructureFunction, d: LifetimeDistribution, t: object
) -> Fraction:
    """Probability that the system works at time t, summed over the state support."""
    if phi.n != d.n:
        raise ValueError("system and distribution disagree on component count")
    support = state_support(d, t)
    return Fraction(sum(p for x, p in support if phi.table >> x & 1), d.denominator)


def reliability_curve(
    phi: StructureFunction, d: LifetimeDistribution
) -> ReliabilityCurve:
    """Full survival curve of the system, one exact value per interval.

    The system works at t iff its lifetime exceeds t, so each atom adds its
    mass at the breakpoint rank of the system lifetime, and one cumulative
    sum over the breakpoints, in ints over D, gives every value.
    """
    if phi.n != d.n:
        raise ValueError("system and distribution disagree on component count")
    bps = d.breakpoints
    if not phi.semicoherent:
        # A monotone system without the semicoherent boundary values is constant.
        return ReliabilityCurve(bps, (Fraction(phi.value(0)),) * (len(bps) + 1))
    failing = [0] * len(bps)
    for ranks, p in d.ranked_atoms:
        failing[ranks[_failing_component(phi, ranks)]] += p
    # On (0, b_1) every component works, and so does the system.
    alive = accumulate(failing, sub, initial=d.denominator)
    return ReliabilityCurve(bps, tuple(Fraction(a, d.denominator) for a in alive))


def repr_boland(phi: StructureFunction, d: LifetimeDistribution, t: object) -> Fraction:
    """Design-signature mixture of order-statistic survivals at time t."""
    phi.require_semicoherent("signature")
    return repr_weighted(phi, d, WeightFunction.symmetric(phi.n), t)


def repr_prob_signature(
    phi: StructureFunction, d: LifetimeDistribution, t: object
) -> Fraction:
    """Probability-signature mixture of order-statistic survivals at time t."""
    if has_ties(d):
        raise TiesError(
            "probability-signature representation needs a distribution without ties"
        )
    return repr_weighted(phi, d, WeightFunction.from_quality(relative_quality(d)), t)


def repr_weighted(
    phi: StructureFunction, d: LifetimeDistribution, w: WeightFunction, t: object
) -> Fraction:
    """Mixture of order-statistic survivals weighted by differenced level sums of w."""
    if phi.n != d.n or w.n != d.n:
        raise ValueError("system, weights, and distribution disagree on component count")
    # Both sides in ints: the signature over w.denominator, the survivals over D.
    mixture = sum(map(mul, w.signature_numerators(phi), survival_numerators(d, t)))
    return Fraction(mixture, w.denominator * d.denominator)


class TheoremCheck(Record):
    """One equivalence with both sides computed independently.

    ``relation`` is "iff" when the two sides must agree exactly, or "if"
    when only the right side forces the left (used when the enumerated
    class is too small to span the full state space, so the necessity
    direction is not guaranteed).
    """

    name: str
    relation: str
    lhs: bool
    rhs: bool

    @property
    def consistent(self) -> bool:
        if self.relation == "iff":
            return self.lhs == self.rhs
        return self.lhs or not self.rhs

    def to_json(self) -> dict:
        return {**{f: getattr(self, f) for f in self._fields}, "consistent": self.consistent}


class DiagnosisReport(Record):
    """Conditions, verdicts, and witnesses for one distribution.

    In "predicted" mode (from :func:`diagnose`) the verdicts are the values
    the equivalences dictate from the conditions alone; no systems are
    enumerated, and the predictions refer to the representation holding for
    the whole semicoherent family. In "verified" mode (from
    :func:`verify_theorems`) the verdicts are measured over an enumerated
    class and cross-checked against the conditions.

    Verdicts and conditions that need a tie-free distribution are None when
    ties are present. Reports compare and hash by identity.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__
    # The fields of the "conditions" and "verdicts" blocks of the JSON form.
    _conditions = (
        "has_ties",
        "q_symmetric",
        "states_exchangeable_everywhere",
        "lifetimes_exchangeable",
        "weakly_exchangeable",
        "condition_q_everywhere",
    )
    _verdicts = ("boland_repr_all_systems", "prob_repr_all_systems", "both_representations")

    mode: str
    n: int
    breakpoints: tuple[Fraction, ...]
    has_ties: bool
    q_symmetric: bool
    states_exchangeable_everywhere: bool
    lifetimes_exchangeable: bool
    weakly_exchangeable: bool | None
    condition_q_everywhere: bool
    boland_repr_all_systems: bool | None
    prob_repr_all_systems: bool | None
    both_representations: bool | None
    witnesses: dict
    skipped_orderings: tuple[tuple[int, ...], ...]
    system_class: SystemClass | None = None
    systems_checked: int | None = None
    class_rank: int | None = None
    theorem_checks: tuple[TheoremCheck, ...] = ()

    def to_json(self) -> dict:
        out: dict = {"mode": self.mode, "n": self.n}
        if self.system_class is not None:
            out["class"] = self.system_class.value
            out["systems_checked"] = self.systems_checked
            out["class_rank"] = self.class_rank
        out["breakpoints"] = [format_rational(b) for b in self.breakpoints]
        out["conditions"] = {name: getattr(self, name) for name in self._conditions}
        out["verdicts"] = {name: getattr(self, name) for name in self._verdicts}
        out["witnesses"] = self.witnesses
        out["skipped_orderings"] = [list(s) for s in self.skipped_orderings]
        if self.theorem_checks:
            out["theorem_checks"] = [c.to_json() for c in self.theorem_checks]
        return out


def diagnose(d: LifetimeDistribution) -> DiagnosisReport:
    """Evaluate the conditions and predict the representation verdicts.

    No systems are enumerated: each verdict is what the corresponding
    equivalence forces for the family of all semicoherent systems given the
    measured conditions. Tie-dependent entries are None for tied inputs.
    The condition walk builds each state support only when it reaches it.
    """
    _, fields = evaluate_conditions(d, (state_support(d, t) for t in d.breakpoints))
    ties, states = fields["has_ties"], fields["states_exchangeable_everywhere"]
    return DiagnosisReport(
        mode="predicted",
        n=d.n,
        breakpoints=d.breakpoints,
        **fields,
        boland_repr_all_systems=states,
        prob_repr_all_systems=None if ties else fields["condition_q_everywhere"],
        both_representations=None if ties else fields["q_symmetric"] and states,
    )


def _residual_rows(
    w: WeightFunction, D: int, survivals: Sequence[Sequence[int]], supports: Sequence[Support]
) -> list[list[int]]:
    """Per breakpoint t, R_t(x) = w(x) * P(exactly |x| work at t) - P(state x at t), in
    ints over w.denominator * D, from the :func:`survival_numerators` and
    :func:`state_support` at t.

    By summation by parts the representation at t is the sum over m of the
    level sums W(m) times P(exactly m work), so for phi(0) = 0 it exceeds
    the reliability by R_t summed over the states where phi works.
    R_t(0) = 0, since w(0) = 1 and state 0 is the only one with no
    component working.
    """
    S, weights = w.denominator, w.numerators
    rows = []
    for surv, support in zip(survivals, supports):
        # At least m work iff X_(n-m+1:n) > t; m = 0..n + 1.
        exactly = [a - b for a, b in pairwise([D, *reversed(surv), 0])]
        row = [weights[x] * exactly[x.bit_count()] for x in range(1 << w.n)]
        for x, p in support:
            row[x] -= S * p
        rows.append(row)
    return rows


def _echelon(rows: Iterable[Sequence[int]], limit: int) -> list[list[int]]:
    """An echelon basis of the rows' span, reduced fraction-free, each row
    divided by its gcd; it stops at ``limit`` rows, which must bound the rank."""
    kept: list[tuple[int, list[int]]] = []
    for row in rows:
        if len(kept) == limit:
            break
        for pivot, basis_row in kept:
            if c := row[pivot]:
                a = basis_row[pivot]
                row = [a * u - c * v for u, v in zip(row, basis_row)]
        if any(row):
            g = math.gcd(*row)
            row = [u // g for u in row]
            kept.append((next(j for j, u in enumerate(row) if u), row))
    return [row for _, row in kept]


def verify_theorems(
    n: int, d: LifetimeDistribution, system_class: SystemClass
) -> DiagnosisReport:
    """Measure the representation verdicts over an enumerated class and
    cross-check them against the independently evaluated conditions.

    Each equivalence is asserted in both directions when the enumerated
    class spans the full rank 2**n - 1 (its necessity direction rests on
    that span); for smaller classes only the sufficiency direction
    (condition implies representation) is asserted. Any violated assertion
    raises :class:`TheoremInconsistencyError`: the equivalences are exact
    mathematics, so a mismatch can only be an implementation bug.

    Witnesses for failed universally quantified claims are the
    lexicographically smallest counterexamples, ordering systems by their
    packed tables and times by breakpoint index.

    Both sides of each claim are linear in phi, so a claim is a set of
    integer rows over the states, broken by exactly the systems on which
    some row does not vanish: one residual row per breakpoint for each
    representation, read from the survivals and the supports (built once and
    shared with the condition walk), and one row per level for the signature
    agreement. A claim's witness is the first table of :func:`class_tables`
    that the rows' echelon basis does not annihilate, at the first breakpoint
    whose own row does not; only a witness becomes a
    :class:`StructureFunction`. The class rank is :func:`class_rank`.
    """
    if n != d.n:
        raise ValueError(f"n={n} does not match the distribution's n={d.n}")
    tables = class_tables(n, system_class)
    supports = [state_support(d, t) for t in d.breakpoints]
    survivals = [survival_numerators(d, t) for t in d.breakpoints]
    weights, fields = evaluate_conditions(d, supports)
    ties, witnesses = fields["has_ties"], fields["witnesses"]
    symmetric = WeightFunction.symmetric(n)
    D, L, Q = d.denominator, symmetric.denominator, weights.denominator

    def first_breaking(rows: Sequence[Sequence[int]]) -> StructureFunction | None:
        # Every row is 0 at state 0 and sums to 0 on each level m = 1..n (both
        # weight functions sum to 1 on each level, the quality on the tie-free
        # laws it is used for), so the rows span at most 2**n - 1 - n dimensions.
        basis = _echelon(rows, (1 << n) - 1 - n)
        if not basis:
            return None
        for table in tables:
            works = [table >> x & 1 for x in range(1 << n)]
            if any(sum(compress(row, works)) for row in basis):
                return StructureFunction(n, table)
        return None

    def representation_witness(w: WeightFunction) -> dict | None:
        rows = _residual_rows(w, D, survivals, supports)
        phi = first_breaking(rows)
        if phi is None:
            return None
        works = [phi.table >> x & 1 for x in range(1 << n)]
        b = next(b for b, row in enumerate(rows) if sum(compress(row, works)))
        t, reliability = d.breakpoints[b], sum(p for x, p in supports[b] if works[x])
        return {
            "system": system_to_json(phi),
            "t": format_rational(t),
            "representation": format_rational(repr_weighted(phi, d, w, t)),
            "reliability": format_rational(Fraction(reliability, D)),
        }

    def strings(sig: Sequence[int], scale: int) -> tuple[str, ...]:
        return tuple(format_rational(Fraction(s, scale)) for s in sig)

    found = {"boland_repr": representation_witness(symmetric)}
    if not ties:
        found["prob_repr"] = representation_witness(weights)
        # Row m is W(m) * Q under the design weights minus W(m) * L under the
        # quality; the signatures, differenced W with W(0) = 0, agree iff all vanish.
        gap = [a * Q - b * L for a, b in zip(symmetric.numerators, weights.numerators)]
        phi = first_breaking(
            [[g if x.bit_count() == m else 0 for x, g in enumerate(gap)] for m in range(1, n + 1)]
        )
        found["signature_agreement"] = None if phi is None else {
            "system": system_to_json(phi),
            "boland": strings(symmetric.signature_numerators(phi), L),
            "probability": strings(weights.signature_numerators(phi), Q),
        }
    witnesses.update((key, wit) for key, wit in found.items() if wit is not None)
    boland_all = found["boland_repr"] is None
    prob_all = None if ties else found["prob_repr"] is None
    agree_all = None if ties else found["signature_agreement"] is None

    rank = class_rank(n, system_class)
    full_rank = rank == (1 << n) - 1
    relation = "iff" if full_rank else "if"

    states = fields["states_exchangeable_everywhere"]
    claims = [("boland_repr_iff_states_exchangeable", boland_all, states)]
    both: bool | None = None
    if not ties:
        assert prob_all is not None and agree_all is not None
        both = boland_all and prob_all
        claims += [
            ("prob_repr_iff_condition_q", prob_all, fields["condition_q_everywhere"]),
            ("signatures_agree_iff_q_symmetric", agree_all, fields["q_symmetric"]),
            (
                "both_reprs_iff_agreement_and_state_exchangeability",
                both,
                agree_all and states,
            ),
            (
                "both_reprs_iff_q_symmetry_and_state_exchangeability",
                both,
                fields["q_symmetric"] and states,
            ),
        ]
    checks = [TheoremCheck(name, relation, lhs, rhs) for name, lhs, rhs in claims]

    broken = [c for c in checks if not c.consistent]
    if broken:
        details = "; ".join(
            f"{c.name}: lhs={c.lhs}, rhs={c.rhs} ({c.relation})" for c in broken
        )
        raise TheoremInconsistencyError(
            f"independently computed sides disagree: {details}"
        )

    return DiagnosisReport(
        mode="verified",
        n=d.n,
        breakpoints=d.breakpoints,
        **fields,
        boland_repr_all_systems=boland_all,
        prob_repr_all_systems=prob_all,
        both_representations=both,
        system_class=system_class,
        systems_checked=len(tables),
        class_rank=rank,
        theorem_checks=tuple(checks),
    )
