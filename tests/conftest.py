import random
from fractions import Fraction

import pytest

from circuitfan import IdealHandle, PolyRing, Polynomial
from circuitfan.ring import monomials_of_degree, poly_str

SUITE_SEED = 2024
VARS = ("x", "y", "z")


def random_homogeneous(ring, degree, rng, density=0.7, bound=3):
    """Random nonzero homogeneous polynomial with small integer coefficients."""
    monos = monomials_of_degree(ring.n, degree)
    while True:
        terms = {}
        for m in monos:
            if rng.random() < density:
                c = rng.randint(-bound, bound)
                if c:
                    terms[m] = Fraction(c)
        if terms:
            return Polynomial(ring, terms)


def over(field, I):
    """The ideal's generators in the same variables over the given field."""
    if field == I.ring.field:
        return I
    ring = PolyRing(I.ring.names, field)
    return IdealHandle(ring, [ring.parse(poly_str(g)) for g in I.generators])


def make_suite(count=20, seed=SUITE_SEED):
    """Deterministic suite: homogeneous ideals in 2-3 variables, 2 generators
    of degree at most 3."""
    rng = random.Random(seed)
    suite = []
    for i in range(count):
        n = 2 if i % 2 == 0 else 3
        ring = PolyRing(VARS[:n])
        gens = [random_homogeneous(ring, rng.choice([2, 3]), rng) for _ in range(2)]
        suite.append(IdealHandle(ring, gens))
    return suite


@pytest.fixture(scope="session")
def suite():
    return make_suite()


@pytest.fixture(scope="session")
def suite_rng():
    return random.Random(SUITE_SEED + 1)
