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
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul, sub
from typing import Sequence

from .distribution import (
    LifetimeDistribution,
    evaluate_conditions,
    has_ties,
    order_stat_survival,
    relative_quality,
    state_support,
)
from .errors import TheoremInconsistencyError, TiesError
from .rationals import format_rational, parse_rational
from .signature import (
    Signature,
    WeightFunction,
    boland_signature,
    probability_signature,
    weighted_signature,
)
from .structure import (
    StructureFunction,
    SystemClass,
    enumerate_systems,
    rank_over_rationals,
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


@dataclass(frozen=True)
class ReliabilityCurve:
    """Piecewise-constant survival curve of a system.

    ``values`` has one entry per interval: values[0] on (0, b_1), then
    values[i] on [b_i, b_(i+1)) and the final entry on [b_last, infinity).
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        bps = tuple(Fraction(b) for b in self.breakpoints)
        vals = tuple(Fraction(v) for v in self.values)
        if not bps:
            raise ValueError("a curve needs at least one breakpoint")
        if any(b <= 0 for b in bps):
            raise ValueError("breakpoints must be positive")
        if list(bps) != sorted(set(bps)):
            raise ValueError("breakpoints must be strictly increasing")
        if len(vals) != len(bps) + 1:
            raise ValueError("need exactly one value per interval")
        if any(not 0 <= v <= 1 for v in vals):
            raise ValueError("curve values must lie in [0, 1]")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    def value_at(self, t: object) -> Fraction:
        t = parse_rational(t)
        if t <= 0:
            raise ValueError(f"time must be positive, got {t}")
        return self.values[bisect.bisect_right(self.breakpoints, t)]

    def to_json(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "values": [format_rational(v) for v in self.values],
        }


def system_lifetime(phi: StructureFunction, lifetimes: Sequence[object]) -> Fraction:
    """Failure time of the system under one realization of component lifetimes.

    Components sharing a lifetime value fail simultaneously. The system
    needs the semicoherent boundary values, otherwise it might never fail.
    """
    if not phi.semicoherent:
        raise ValueError(
            "system lifetime needs value 0 at the all-failed state and 1 at "
            "the all-working state"
        )
    xs = [parse_rational(v) for v in lifetimes]
    if len(xs) != phi.n:
        raise ValueError(f"expected {phi.n} lifetimes, got {len(xs)}")
    if any(x <= 0 for x in xs):
        raise ValueError("lifetimes must be strictly positive")
    # Fail components in lifetime order; by monotonicity, ties cannot move the time.
    index = (1 << phi.n) - 1
    for i in sorted(range(phi.n), key=xs.__getitem__):
        index &= ~(1 << i)
        if phi.value(index) == 0:
            return xs[i]
    raise AssertionError("unreachable: a semicoherent system fails by the last failure")


def probability_signature_oracle(
    phi: StructureFunction, d: LifetimeDistribution
) -> Signature:
    """Probability signature by direct atom scan, no quality function involved.

    For each atom the system lifetime is located among the sorted component
    lifetimes; entry k accumulates the probability that it is the k-th
    smallest. Needs a no-ties distribution so that the rank is unambiguous.
    """
    if has_ties(d):
        raise TiesError("signature oracle needs a distribution without ties")
    if phi.n != d.n:
        raise ValueError("system and distribution disagree on component count")
    acc = [Fraction(0)] * d.n
    for xs, p in d.atoms:
        failure_time = system_lifetime(phi, xs)
        k = sorted(xs).index(failure_time) + 1
        acc[k - 1] += p
    return Signature(tuple(acc))


def _reliability_sum(phi: StructureFunction, support: Sequence[tuple[int, int]]) -> int:
    """Sum of the support's probabilities (ints over D) over the states where ``phi`` works."""
    table = phi.table
    return sum(p for index, p in support if table >> index & 1)


def _order_stat_survivals(d: LifetimeDistribution, t: object) -> tuple[Fraction, ...]:
    """P(X_(k:n) > t) for k = 1..n."""
    return tuple(order_stat_survival(d, k, t) for k in range(1, d.n + 1))


def _order_stat_mixture(sig: Sequence[Fraction | int], survivals: Sequence[Fraction | int]):
    """The representation formula: sum over k of sig[k] * P(X_(k:n) > t), in
    Fractions, or in ints when both sides are scaled numerators."""
    return sum(map(mul, sig, survivals))


def system_reliability(
    phi: StructureFunction, d: LifetimeDistribution, t: object
) -> Fraction:
    """Probability that the system works at time t, summed over the state support."""
    if phi.n != d.n:
        raise ValueError("system and distribution disagree on component count")
    return Fraction(_reliability_sum(phi, state_support(d, t)), d.denominator)


def reliability_curve(
    phi: StructureFunction, d: LifetimeDistribution
) -> ReliabilityCurve:
    """Full survival curve of the system, one exact value per interval.

    The system works at t iff its lifetime exceeds t, so one system lifetime
    per atom and one cumulative sum over the breakpoints give every value.
    """
    if phi.n != d.n:
        raise ValueError("system and distribution disagree on component count")
    bps = d.breakpoints
    if not phi.semicoherent:
        # A monotone system without the semicoherent boundary values is constant.
        return ReliabilityCurve(bps, (Fraction(phi.value(0)),) * (len(bps) + 1))
    failing = [Fraction(0)] * len(bps)
    for xs, p in d.atoms:
        failing[bisect.bisect_left(bps, system_lifetime(phi, xs))] += p
    # On (0, b_1) every component works, and so does the system.
    return ReliabilityCurve(bps, tuple(accumulate(failing, sub, initial=Fraction(1))))


def repr_boland(phi: StructureFunction, d: LifetimeDistribution, t: object) -> Fraction:
    """Design-signature mixture of order-statistic survivals at time t."""
    if phi.n != d.n:
        raise ValueError("system and distribution disagree on component count")
    return _order_stat_mixture(boland_signature(phi), _order_stat_survivals(d, t))


def repr_prob_signature(
    phi: StructureFunction, d: LifetimeDistribution, t: object
) -> Fraction:
    """Probability-signature mixture of order-statistic survivals at time t."""
    if phi.n != d.n:
        raise ValueError("system and distribution disagree on component count")
    if has_ties(d):
        raise TiesError(
            "probability-signature representation needs a distribution without ties"
        )
    p = probability_signature(phi, relative_quality(d))
    return _order_stat_mixture(p, _order_stat_survivals(d, t))


def repr_weighted(
    phi: StructureFunction, d: LifetimeDistribution, w: WeightFunction, t: object
) -> Fraction:
    """Mixture of order-statistic survivals weighted by differenced level sums of w."""
    if phi.n != d.n or w.n != d.n:
        raise ValueError("system, weights, and distribution disagree on component count")
    return _order_stat_mixture(weighted_signature(phi, w), _order_stat_survivals(d, t))


@dataclass(frozen=True)
class TheoremCheck:
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
        return {
            "name": self.name,
            "relation": self.relation,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "consistent": self.consistent,
        }


@dataclass(frozen=True, eq=False)
class DiagnosisReport:
    """Conditions, verdicts, and witnesses for one distribution.

    In "predicted" mode (from :func:`diagnose`) the verdicts are the values
    the equivalences dictate from the conditions alone; no systems are
    enumerated, and the predictions refer to the representation holding for
    the whole semicoherent family. In "verified" mode (from
    :func:`verify_theorems`) the verdicts are measured over an enumerated
    class and cross-checked against the conditions.

    Verdicts and conditions that need a tie-free distribution are None when
    ties are present.
    """

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
        out["conditions"] = {
            "has_ties": self.has_ties,
            "q_symmetric": self.q_symmetric,
            "states_exchangeable_everywhere": self.states_exchangeable_everywhere,
            "lifetimes_exchangeable": self.lifetimes_exchangeable,
            "weakly_exchangeable": self.weakly_exchangeable,
            "condition_q_everywhere": self.condition_q_everywhere,
        }
        out["verdicts"] = {
            "boland_repr_all_systems": self.boland_repr_all_systems,
            "prob_repr_all_systems": self.prob_repr_all_systems,
            "both_representations": self.both_representations,
        }
        out["witnesses"] = self.witnesses
        out["skipped_orderings"] = [list(s) for s in self.skipped_orderings]
        if self.theorem_checks:
            out["theorem_checks"] = [c.to_json() for c in self.theorem_checks]
        return out


def _build_report(
    d: LifetimeDistribution, conditions: tuple, **fields
) -> DiagnosisReport:
    """Report with the condition fields from :func:`evaluate_conditions` filled in."""
    flags, _, skipped, witnesses = conditions
    return DiagnosisReport(
        n=d.n,
        breakpoints=d.breakpoints,
        **flags,
        witnesses=witnesses,
        skipped_orderings=skipped,
        **fields,
    )


def diagnose(d: LifetimeDistribution) -> DiagnosisReport:
    """Evaluate the conditions and predict the representation verdicts.

    No systems are enumerated: each verdict is what the corresponding
    equivalence forces for the family of all semicoherent systems given the
    measured conditions. Tie-dependent entries are None for tied inputs.
    """
    conditions = evaluate_conditions(d)
    flags = conditions[0]
    ties = flags["has_ties"]
    states = flags["states_exchangeable_everywhere"]
    return _build_report(
        d,
        conditions,
        mode="predicted",
        boland_repr_all_systems=states,
        prob_repr_all_systems=None if ties else flags["condition_q_everywhere"],
        both_representations=None if ties else flags["q_symmetric"] and states,
    )


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

    The representation scan runs on exact integers: supports and survivals
    (D minus :attr:`LifetimeDistribution.cdfs`) over D, each signature over
    its weights' common denominator (L = lcm C(n, m) for the design signature,
    a divisor of D for the probability one). Fractions are built only for a
    witness, whose values and format do not depend on the scan.
    """
    if n != d.n:
        raise ValueError(f"n={n} does not match the distribution's n={d.n}")
    systems = enumerate_systems(n, system_class)
    conditions = evaluate_conditions(d)
    flags, weights, _, witnesses = conditions
    ties = flags["has_ties"]
    symmetric = WeightFunction.symmetric(n)
    D = d.denominator
    survivals = [[D - row[b] for row in d.cdfs] for b in range(len(d.breakpoints))]
    supports = [state_support(d, t) for t in d.breakpoints]

    def strings(sig: Sequence[int], scale: int) -> tuple[str, ...]:
        return tuple(format_rational(Fraction(s, scale)) for s in sig)

    def representation_witness(
        phi: StructureFunction, sig: Sequence[int], scale: int
    ) -> dict | None:
        # sig is over ``scale``, the survivals and supports over D.
        for t, surv, support in zip(d.breakpoints, survivals, supports):
            lhs = _order_stat_mixture(sig, surv)
            rhs = scale * _reliability_sum(phi, support)
            if lhs != rhs:
                return {
                    "system": system_to_json(phi),
                    "t": format_rational(t),
                    "representation": format_rational(Fraction(lhs, scale * D)),
                    "reliability": format_rational(Fraction(rhs, scale * D)),
                }
        return None

    # One pass over the systems; each claim keeps the first system that
    # breaks it, and the pass stops once every claim is broken.
    L, Q = symmetric.denominator, weights.denominator
    boland_wit = prob_wit = agree_wit = None
    for phi in systems:
        # Only the two design-signature claims read it; skip it once both broke.
        design = None if boland_wit and agree_wit else symmetric.signature_numerators(phi)
        if boland_wit is None:
            boland_wit = representation_witness(phi, design, L)
        if not ties:
            probability = weights.signature_numerators(phi)
            if prob_wit is None:
                prob_wit = representation_witness(phi, probability, Q)
            # design / L == probability / Q, entry by entry.
            if agree_wit is None and any(a * Q != b * L for a, b in zip(design, probability)):
                agree_wit = {
                    "system": system_to_json(phi),
                    "boland": strings(design, L),
                    "probability": strings(probability, Q),
                }
        if boland_wit is not None and (
            ties or (prob_wit is not None and agree_wit is not None)
        ):
            break

    for key, wit in (
        ("boland_repr", boland_wit),
        ("prob_repr", prob_wit),
        ("signature_agreement", agree_wit),
    ):
        if wit is not None:
            witnesses[key] = wit
    boland_all = boland_wit is None
    prob_all = None if ties else prob_wit is None
    agree_all = None if ties else agree_wit is None

    class_rank = rank_over_rationals(systems)
    full_rank = class_rank == (1 << n) - 1
    relation = "iff" if full_rank else "if"

    states = flags["states_exchangeable_everywhere"]
    claims = [("boland_repr_iff_states_exchangeable", boland_all, states)]
    both: bool | None = None
    if not ties:
        assert prob_all is not None and agree_all is not None
        both = boland_all and prob_all
        claims += [
            ("prob_repr_iff_condition_q", prob_all, flags["condition_q_everywhere"]),
            ("signatures_agree_iff_q_symmetric", agree_all, flags["q_symmetric"]),
            (
                "both_reprs_iff_agreement_and_state_exchangeability",
                both,
                agree_all and states,
            ),
            (
                "both_reprs_iff_q_symmetry_and_state_exchangeability",
                both,
                flags["q_symmetric"] and states,
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

    return _build_report(
        d,
        conditions,
        mode="verified",
        boland_repr_all_systems=boland_all,
        prob_repr_all_systems=prob_all,
        both_representations=both,
        system_class=system_class,
        systems_checked=len(systems),
        class_rank=class_rank,
        theorem_checks=tuple(checks),
    )
