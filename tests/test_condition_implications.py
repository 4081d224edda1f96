"""The conditions of one :func:`diagnose` report against each other.

They relate the conditions, not a condition to a measured verdict. Lifetime
exchangeability implies state exchangeability; under a symmetric relative quality,
condition (Q) and state exchangeability are the same condition; and on a tie-free law
lifetime exchangeability implies a symmetric quality and weak exchangeability, which
in turn implies condition (Q). :func:`evaluate_conditions` checks them on every call
and raises :class:`TheoremInconsistencyError` naming each broken one; the tests below
assert them as well, and make one condition routine answer wrong per implication to
see that the check names exactly that one.

The corpus: every nonempty set of the twelve orderings of (1, 2, 3) and (1, 2, 4)
with equal weights (4,095 laws at n = 3), and seeded generic and exchangeable laws
at n = 6 to 9, above the n = 5 that the enumerating verifier reaches.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from sigrel import TheoremInconsistencyError, diagnose
from sigrel import distribution

from conftest import exchangeable_mixture, make_dist, ordering_set_laws, random_no_ties


def implications(r):
    """(premise, conclusion) per implication that the conditions of report ``r`` must meet."""
    states, symmetric, q = r.states_exchangeable_everywhere, r.q_symmetric, r.condition_q_everywhere
    pairs = {
        "lifetimes => states": (r.lifetimes_exchangeable, states),
        "Q and q-symmetry => states": (q and symmetric, states),
        "states and q-symmetry => Q": (states and symmetric, q),
    }
    if not r.has_ties:
        pairs["lifetimes => q-symmetry"] = (r.lifetimes_exchangeable, symmetric)
        pairs["lifetimes => weak"] = (r.lifetimes_exchangeable, r.weakly_exchangeable)
        pairs["weak => Q"] = (r.weakly_exchangeable, q)
    return pairs


def check(laws):
    """Assert every implication on each law, and that each premise holds on at least
    one law, so that no implication passes only vacuously."""
    held, checked = set(), set()
    for d in laws:
        for name, (premise, conclusion) in implications(diagnose(d)).items():
            assert conclusion or not premise, (name, d)
            checked.add(name)
            if premise:
                held.add(name)
    assert held == checked


def test_conditions_imply_each_other_on_every_ordering_set_at_n3():
    laws = ordering_set_laws()
    assert len(laws) == 4095
    check(laws)


def test_conditions_imply_each_other_at_n6_to_9():
    rng = random.Random(6789)
    laws = [random_no_ties(rng, n) for n in range(6, 10) for _ in range(8)]
    check(laws + [exchangeable_mixture(rng, n) for n in (6, 6, 7)])


# The library's own check: one condition routine answers wrong on a law whose true flags
# make exactly one implication break, which ``diagnose`` must then name.
EVERY_ORDER = make_dist(3, [(v, Fraction(1, 6)) for v in permutations((1, 2, 3))])
BROKEN = [
    (
        "lifetimes_exchangeable_implies_states_exchangeable",
        "_lifetime_exchangeability_witness", None,
        make_dist(2, [((1, 1), Fraction(1, 2)), ((1, 2), Fraction(1, 2))]),
        dict(has_ties=True, lifetimes_exchangeable=False, states_exchangeable_everywhere=False,
             q_symmetric=False),
    ),
    (
        "q_symmetry_implies_condition_q_iff_states_exchangeable",
        "_state_exchangeability_at", {"state": "wrong"},
        make_dist(3, [(v, Fraction(1, 3)) for v in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]]),
        dict(has_ties=False, lifetimes_exchangeable=False, states_exchangeable_everywhere=True,
             q_symmetric=True, condition_q_everywhere=True),
    ),
    (
        "lifetimes_exchangeable_implies_q_symmetry",
        "_q_symmetry_witness", {"subset": "wrong"},
        EVERY_ORDER,
        dict(has_ties=False, lifetimes_exchangeable=True, q_symmetric=True),
    ),
    (
        "lifetimes_exchangeable_implies_weak_exchangeability",
        "_weak_exchangeability_scan", ({"permutation": "wrong"}, iter(())),
        EVERY_ORDER,
        dict(has_ties=False, lifetimes_exchangeable=True, weakly_exchangeable=True),
    ),
    (
        "weak_exchangeability_implies_condition_q",
        "_condition_w_witness", {"state": "wrong"},
        make_dist(3, [((1, 2, 3), Fraction(1, 2)), ((2, 4, 6), Fraction(1, 2))]),
        dict(has_ties=False, lifetimes_exchangeable=False, q_symmetric=False,
             weakly_exchangeable=True, condition_q_everywhere=True),
    ),
]


@pytest.mark.parametrize(
    "clause, routine, wrong, law, flags", BROKEN, ids=[case[0] for case in BROKEN]
)
def test_diagnose_names_the_one_broken_implication(
    clause, routine, wrong, law, flags, monkeypatch
):
    report = diagnose(law)
    assert {key: getattr(report, key) for key in flags} == flags
    monkeypatch.setattr(distribution, routine, lambda *args: wrong)
    with pytest.raises(TheoremInconsistencyError) as raised:
        diagnose(law)
    assert str(raised.value) == f"the conditions break: {clause}"
