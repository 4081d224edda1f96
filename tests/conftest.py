"""Shared distributions and randomized corpora for the test suite."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from sigrel import LifetimeDistribution

# The six coordinate orderings of (1,2,3), in the fixed order used by tests
# that address this family through a probability 6-vector.
ORBIT_VECTORS = [
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (2, 3, 1),
    (3, 2, 1),
    (3, 1, 2),
]

CORPUS_PER_GENERATOR = 100


def make_dist(n, rows):
    atoms = tuple((tuple(Fraction(v) for v in xs), Fraction(p)) for xs, p in rows)
    return LifetimeDistribution(n, atoms)


def lifetime_by_definition(phi, lifetimes):
    """The system's failure time from its definition, on Fraction lifetimes: the least
    lifetime x at which phi is 0 on the components whose lifetimes exceed x. It shares
    no code with the state chains, so the oracles that read it check them from outside."""
    phi.require_semicoherent("system lifetime")
    xs = [Fraction(x) for x in lifetimes]
    return min(x for x in xs if not phi.value(sum(1 << i for i, y in enumerate(xs) if y > x)))


def orbit_dist(probs):
    """Distribution on the six orderings of (1,2,3) with the given weights."""
    rows = [(xs, p) for xs, p in zip(ORBIT_VECTORS, probs) if p]
    return make_dist(3, rows)


def staggered_pairs_dist():
    """Two components failing in staggered waves; states mix but roles differ."""
    quarter = Fraction(1, 4)
    return make_dist(
        2, [((2, 1), quarter), ((4, 2), quarter), ((1, 3), quarter), ((3, 4), quarter)]
    )


def shifted_ladders_dist():
    """Eight equiprobable atoms whose alive-sets balance level by level."""
    rows = [
        ((1, 2, 4), Fraction(1, 8)),
        ((2, 4, 5), Fraction(1, 8)),
        ((3, 1, 2), Fraction(1, 8)),
        ((4, 2, 3), Fraction(1, 8)),
        ((5, 3, 4), Fraction(1, 8)),
        ((2, 3, 1), Fraction(1, 8)),
        ((3, 4, 2), Fraction(1, 8)),
        ((4, 5, 3), Fraction(1, 8)),
    ]
    return make_dist(3, rows)


def random_no_ties(rng, n, min_atoms=4, max_atoms=10):
    """Generic atoms: distinct coordinates inside each atom, random weights."""
    n_atoms = rng.randint(min_atoms, max_atoms)
    vectors = set()
    while len(vectors) < n_atoms:
        vectors.add(tuple(rng.sample(range(1, 13), n)))
    weights = [rng.randint(1, 9) for _ in range(n_atoms)]
    total = sum(weights)
    rows = [(xs, Fraction(w, total)) for xs, w in zip(sorted(vectors), weights)]
    return make_dist(n, rows)


def tied_law(rng, n):
    """One to four atoms on lifetimes 1..3: ties inside atoms, and repeated vectors that
    the law merges."""
    weights = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
    rows = [(tuple(rng.choices(range(1, 4), k=n)), Fraction(w, sum(weights))) for w in weights]
    return make_dist(n, rows)


def ordering_set_laws():
    """Every nonempty set of the twelve orderings of (1, 2, 3) and (1, 2, 4), with equal
    weights: 4,095 tie-free laws at n = 3."""
    vectors = [*permutations((1, 2, 3)), *permutations((1, 2, 4))]
    laws = []
    for mask in range(1, 1 << len(vectors)):
        chosen = [v for i, v in enumerate(vectors) if mask >> i & 1]
        laws.append(make_dist(3, [(v, Fraction(1, len(chosen))) for v in chosen]))
    return laws


def exchangeable_mixture(rng, n):
    """Mixture of uniform-over-orderings blocks: exchangeable lifetimes."""
    n_blocks = rng.randint(1, 3)
    weights = [rng.randint(1, 5) for _ in range(n_blocks)]
    total = sum(weights) * math.factorial(n)
    rows = []
    for w in weights:
        values = rng.sample(range(1, 13), n)
        for perm in permutations(values):
            rows.append((perm, Fraction(w, total)))
    return make_dist(n, rows)


def coset_mixture(rng):
    """Rotations of one increasing triple against its swaps, mixed unevenly.

    Both halves spread the alive-sets uniformly over each level, so the
    states are exchangeable at every time; the uneven mix keeps the
    lifetimes themselves non-exchangeable.
    """
    a, b, c = sorted(rng.sample(range(1, 13), 3))
    rotations = [(a, b, c), (b, c, a), (c, a, b)]
    swaps = [(a, c, b), (c, b, a), (b, a, c)]
    lam = Fraction(rng.choice([0, 1, 2, 4, 5, 6]), 6)
    rows = []
    if lam:
        rows.extend((xs, lam / 3) for xs in rotations)
    if lam != 1:
        rows.extend((xs, (1 - lam) / 3) for xs in swaps)
    return make_dist(3, rows)


@pytest.fixture(scope="session")
def staggered_pairs():
    return staggered_pairs_dist()


@pytest.fixture(scope="session")
def shifted_ladders():
    return shifted_ladders_dist()


@pytest.fixture(scope="session")
def theorem_corpus():
    """Three generators, CORPUS_PER_GENERATOR n=3 distributions each."""
    rng = random.Random(20240817)
    corpus = [
        ("exchangeable", exchangeable_mixture(rng, 3))
        for _ in range(CORPUS_PER_GENERATOR)
    ]
    corpus += [
        ("generic", random_no_ties(rng, 3)) for _ in range(CORPUS_PER_GENERATOR)
    ]
    corpus += [("coset", coset_mixture(rng)) for _ in range(CORPUS_PER_GENERATOR)]
    return corpus


@pytest.fixture(scope="session")
def signature_corpus():
    """No-ties distributions at n=3 and n=4 for signature oracle comparisons."""
    rng = random.Random(90125)
    dists = [random_no_ties(rng, 3) for _ in range(60)]
    dists += [random_no_ties(rng, 4) for _ in range(60)]
    return dists
