"""The conditions of one :func:`diagnose` report against each other.

No verifier checks these: they relate the conditions, not a condition to a
measured verdict. Lifetime exchangeability implies state exchangeability; under
a symmetric relative quality, condition (Q) and state exchangeability are the same
condition; and on a tie-free law lifetime exchangeability implies a symmetric
quality and weak exchangeability, which in turn implies condition (Q).

The corpus: every nonempty set of the twelve orderings of (1, 2, 3) and (1, 2, 4)
with equal weights (4,095 laws at n = 3), and seeded generic and exchangeable laws
at n = 6 to 9, above the n = 5 that the enumerating verifier reaches.
"""

import random
from fractions import Fraction
from itertools import permutations

from sigrel import diagnose

from conftest import exchangeable_mixture, make_dist, random_no_ties


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
    vectors = [*permutations((1, 2, 3)), *permutations((1, 2, 4))]
    laws = []
    for mask in range(1, 1 << len(vectors)):
        chosen = [v for i, v in enumerate(vectors) if mask >> i & 1]
        laws.append(make_dist(3, [(v, Fraction(1, len(chosen))) for v in chosen]))
    assert len(laws) == 4095
    check(laws)


def test_conditions_imply_each_other_at_n6_to_9():
    rng = random.Random(6789)
    laws = [random_no_ties(rng, n) for n in range(6, 10) for _ in range(8)]
    check(laws + [exchangeable_mixture(rng, n) for n in (6, 6, 7)])
