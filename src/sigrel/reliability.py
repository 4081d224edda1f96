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
from fractions import Fraction
from itertools import accumulate, compress, islice, pairwise, tee
from operator import mul, sub
from typing import Iterable, Iterator, Sequence

from .distribution import (
    LifetimeDistribution,
    Support,
    evaluate_conditions,
    relative_quality,
    require_no_ties,
    state_support,
    survival_numerators,
)
from .errors import TheoremInconsistencyError
from .rationals import format_rational, parse_rationals, parse_time
from .record import Record
from .signature import Signature, WeightFunction, weighted_signature
from .structure import (
    StructureFunction,
    SystemClass,
    class_rank,
    class_tables,
    echelon,
    require_same_count,
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
        bps = parse_rationals(self.breakpoints, "breakpoints")
        vals = parse_rationals(self.values, "curve values")
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
        self._set(breakpoints=bps, values=vals)

    def value_at(self, t: object) -> Fraction:
        return self.values[bisect.bisect_right(self.breakpoints, parse_time(t))]

    def to_json(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "values": [format_rational(v) for v in self.values],
        }


def _stopping_entry(phi: StructureFunction, chain: Iterable[tuple]) -> tuple[int, int] | None:
    """The first (rank, state) entry of a :attr:`LifetimeDistribution.state_chains` chain where
    ``phi`` is 0: (-1, all working) for the table 0, and None only for the all-ones table."""
    for entry in chain:
        if not phi.table >> entry[1] & 1:
            return entry


def system_lifetime(phi: StructureFunction, lifetimes: Sequence[object]) -> Fraction:
    """Failure time of the system under one realization of component lifetimes: the
    breakpoint at which the state chain of the one-atom law stops phi.

    The system needs the semicoherent boundary values, otherwise it might never fail.
    """
    phi.require_semicoherent("system lifetime")
    d = LifetimeDistribution(phi.n, ((lifetimes, 1),))
    return d.breakpoints[_stopping_entry(phi, d.state_chains[0])[0]]


def probability_signature_oracle(
    phi: StructureFunction, d: LifetimeDistribution
) -> Signature:
    """Probability signature by direct atom scan, no quality function involved.

    Each atom's mass goes to entry k when the system stops in its state chain
    with n - k components working, so at the k-th failure; the sums are ints
    over D. Needs a no-ties distribution so that one component fails at a time.
    """
    require_no_ties(d, "signature oracle")
    require_same_count("system and distribution", phi, d)
    phi.require_semicoherent("system lifetime")
    acc = [0] * d.n
    for chain, (_, p) in zip(d.state_chains, d.ranked_atoms):
        acc[d.n - 1 - _stopping_entry(phi, chain)[1].bit_count()] += p
    return Signature(tuple(Fraction(a, d.denominator) for a in acc))


def _system_survivals(phi: StructureFunction, d: LifetimeDistribution) -> list[int]:
    """P(the system works) times D on (0, b_1), then from each breakpoint on.

    Each atom's mass leaves in slot r + 1 if its chain stops phi at rank r (slot 0: down from
    the start) and stays if it never does; one cumulative sum from D gives the values after D.
    """
    require_same_count("system and distribution", phi, d)
    failing = [0] * (len(d.breakpoints) + 1)
    for chain, (_, p) in zip(d.state_chains, d.ranked_atoms):
        if stop := _stopping_entry(phi, chain):
            failing[stop[0] + 1] += p
    return list(accumulate(failing, sub, initial=d.denominator))[1:]


def system_reliability(
    phi: StructureFunction, d: LifetimeDistribution, t: object
) -> Fraction:
    """Probability that the system works at time t: its lifetime exceeds t."""
    alive = _system_survivals(phi, d)  # first: a count mismatch is refused before t
    return Fraction(alive[bisect.bisect_right(d.breakpoints, parse_time(t))], d.denominator)


def reliability_curve(
    phi: StructureFunction, d: LifetimeDistribution
) -> ReliabilityCurve:
    """Full survival curve of the system, one exact value per interval."""
    alive = _system_survivals(phi, d)
    return ReliabilityCurve(d.breakpoints, tuple(Fraction(a, d.denominator) for a in alive))


def repr_boland(phi: StructureFunction, d: LifetimeDistribution, t: object) -> Fraction:
    """Design-signature mixture of order-statistic survivals at time t."""
    phi.require_semicoherent("signature")
    return repr_weighted(phi, d, WeightFunction.symmetric(phi.n), t)


def repr_prob_signature(
    phi: StructureFunction, d: LifetimeDistribution, t: object
) -> Fraction:
    """Probability-signature mixture of order-statistic survivals at time t."""
    phi.require_semicoherent("signature")
    require_no_ties(d, "probability-signature representation")
    return repr_weighted(phi, d, relative_quality(d), t)


def repr_weighted(
    phi: StructureFunction, d: LifetimeDistribution, w: WeightFunction, t: object
) -> Fraction:
    """Mixture of order-statistic survivals weighted by differenced level sums of w."""
    require_same_count("system, weights, and distribution", phi, w, d)
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

    def __post_init__(self) -> None:
        if self.relation not in ("iff", "if"):
            raise ValueError(f"relation must be 'iff' or 'if', got {self.relation!r}")
        for field, kind in (("lhs", bool), ("rhs", bool), ("name", str)):  # sides first
            if not isinstance(value := getattr(self, field), kind):
                raise ValueError(f"{field} must be a {kind.__name__}, got {value!r}")

    @property
    def consistent(self) -> bool:
        if self.relation == "iff":
            return self.lhs == self.rhs
        return self.lhs or not self.rhs

    def to_json(self) -> dict:
        return {**{f: getattr(self, f) for f in self._fields}, "consistent": self.consistent}


class DiagnosisReport(Record):
    """Conditions, verdicts, and witnesses for one distribution.

    The mode follows from the class. In "predicted" mode (from :func:`diagnose`,
    no class) the verdicts are the values the equivalences dictate from the
    conditions alone; no systems are enumerated, and the predictions refer to
    the representation holding for the whole semicoherent family. In "verified"
    mode (from :func:`verify_theorems`) the verdicts are measured over an
    enumerated class and cross-checked against the conditions.

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

    def __post_init__(self) -> None:
        if not isinstance(self.system_class, (SystemClass, type(None))):
            raise ValueError(f"unknown system class {self.system_class!r}")

    @property
    def mode(self) -> str:
        return "predicted" if self.system_class is None else "verified"

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
    """Evaluate the conditions and report the verdicts they predict; no systems
    are enumerated. The condition walk builds each state support only when it
    reaches it."""
    _, fields = evaluate_conditions(d, (state_support(d, t) for t in d.breakpoints))
    return DiagnosisReport(n=d.n, breakpoints=d.breakpoints, **fields)


def _residual_rows(
    w: WeightFunction, d: LifetimeDistribution, supports: Iterable[Support]
) -> Iterator[list[int]]:
    """Per breakpoint t, R_t(x) = w(x) * P(exactly |x| work at t) - P(state x at t), in
    ints over w.denominator * D, from the column of ``d.cdfs`` and the
    :func:`state_support` at t, each row built only when it is read.

    By summation by parts the representation at t is the sum over m of the
    level sums W(m) times P(exactly m work), so for phi(0) = 0 it exceeds
    the reliability by R_t summed over the states where phi works.
    R_t(0) = 0, since w(0) = 1 and state 0 is the only one with no
    component working.
    """
    S, weights = w.denominator, w.numerators
    for column, support in zip(zip(*d.cdfs), supports):
        # Exactly m work iff X_(n-m:n) <= t < X_(n-m+1:n), X_(0:n) = 0, X_(n+1:n) infinite.
        exactly = [b - a for a, b in pairwise([0, *reversed(column), d.denominator])]
        row = [weights[x] * exactly[x.bit_count()] for x in range(1 << w.n)]
        for x, p in support.items():
            row[x] -= S * p
        yield row


def verify_theorems(d: LifetimeDistribution, system_class: SystemClass) -> DiagnosisReport:
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
    representation, built as the echelon pulls them from the columns of
    ``d.cdfs`` and the supports (each built once, when its first reader reaches it),
    and one row per level for the signature agreement. A claim's witness is the
    first table of :func:`class_tables` that the rows' echelon basis does not
    annihilate, at the origin of its first basis row that does not, which is the first
    row that does not. The series system, which every row annihilates, is skipped; each
    later table replays the kept basis rows and pulls more only while it survives them.
    Only a witness becomes a :class:`StructureFunction`. The class rank is :func:`class_rank`.
    """
    n = d.n
    tables = class_tables(n, system_class)
    walk, boland_scan, prob_scan = tee((state_support(d, t) for t in d.breakpoints), 3)
    weights, fields = evaluate_conditions(d, walk)
    ties, witnesses = fields["has_ties"], fields["witnesses"]
    symmetric = WeightFunction.symmetric(n)
    L, Q = symmetric.denominator, weights.denominator

    def first_breaking(rows: Iterable[list[int]]) -> tuple[StructureFunction | None, int | None]:
        # Every row is 0 at state 0 and at 2**n - 1, the only state where the series system
        # tables[0] works, and sums to 0 on each level m = 1..n (both weight functions sum to 1
        # on each level, the quality on tie-free laws): the rows span <= 2**n - 1 - n dimensions.
        basis = tee(islice(echelon(rows), (1 << n) - 1 - n), 1)[0]
        if any(basis.__copy__()):  # a tee's copy: no import of the copy module at start-up
            for table in tables[1:]:
                works = [table >> x & 1 for x in range(1 << n)]
                for origin, row in basis.__copy__():  # the rows kept so far, then new ones
                    if sum(compress(row, works)):
                        return StructureFunction(n, table), origin
        return None, None

    def representation_witness(w: WeightFunction, supports: Iterator[Support]) -> dict | None:
        phi, b = first_breaking(_residual_rows(w, d, supports))
        if phi is None:
            return None
        t = d.breakpoints[b]
        return {
            "system": system_to_json(phi),
            "t": format_rational(t),
            "representation": format_rational(repr_weighted(phi, d, w, t)),
            "reliability": format_rational(system_reliability(phi, d, t)),
        }

    rank = class_rank(n, system_class)
    relation = "iff" if rank == (1 << n) - 1 else "if"

    states = fields["states_exchangeable_everywhere"]
    found = {"boland_repr": representation_witness(symmetric, boland_scan)}
    boland_all = found["boland_repr"] is None
    claims = [
        ("boland_repr_iff_states_exchangeable", boland_all, fields["boland_repr_all_systems"])
    ]
    prob_all = both = None
    if not ties:
        found["prob_repr"] = representation_witness(weights, prob_scan)
        # Row m is W(m) * Q under the design weights minus W(m) * L under the
        # quality; the signatures, differenced W with W(0) = 0, agree iff all vanish.
        gap = [a * Q - b * L for a, b in zip(symmetric.numerators, weights.numerators)]
        phi, _ = first_breaking(
            [[g if x.bit_count() == m else 0 for x, g in enumerate(gap)] for m in range(1, n + 1)]
        )
        found["signature_agreement"] = None if phi is None else {
            "system": system_to_json(phi),
            "boland": weighted_signature(phi, symmetric).as_strings(),
            "probability": weighted_signature(phi, weights).as_strings(),
        }
        prob_all = found["prob_repr"] is None
        agree_all = phi is None
        both = boland_all and prob_all
        claims += [
            ("prob_repr_iff_condition_q", prob_all, fields["prob_repr_all_systems"]),
            ("signatures_agree_iff_q_symmetric", agree_all, fields["q_symmetric"]),
            ("both_reprs_iff_agreement_and_state_exchangeability", both, agree_all and states),
            (
                "both_reprs_iff_q_symmetry_and_state_exchangeability",
                both,
                fields["both_representations"],
            ),
        ]
    witnesses.update((key, wit) for key, wit in found.items() if wit is not None)
    checks = [TheoremCheck(name, relation, lhs, rhs) for name, lhs, rhs in claims]

    broken = [c for c in checks if not c.consistent]
    if broken:
        details = "; ".join(f"{c.name}: lhs={c.lhs}, rhs={c.rhs} ({c.relation})" for c in broken)
        raise TheoremInconsistencyError(f"independently computed sides disagree: {details}")

    return DiagnosisReport(
        n=d.n,
        breakpoints=d.breakpoints,
        **fields | dict(zip(DiagnosisReport._verdicts, (boland_all, prob_all, both))),
        system_class=system_class,
        systems_checked=len(tables),
        class_rank=rank,
        theorem_checks=tuple(checks),
    )
