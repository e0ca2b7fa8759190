"""End-to-end acceptance suite: eleven exact criteria, one pass line each."""
import random
import time
from fractions import Fraction

import pytest

from circuitfan import (
    DRL,
    LEX,
    IdealHandle,
    PolyRing,
    Polynomial,
    PrimeField,
    RandomSpec,
    Substitution,
    alpha_vector,
    circuits_truncated,
    enumerate_fan,
    gcs_truncated,
    hilbert_function,
    ideal_equal,
    initial_circuits,
    initial_ideal,
    initial_ideal_w,
    is_circuit,
    newton_fan_oracle,
    normalize_weight,
    random_change,
    span_matrix,
    specialize_t,
    stab_check,
    transform_ideal,
    weight_equiv,
    weighted,
)
from circuitfan.circuits import circuits_of_space
from circuitfan.groebner import homogenize_ideal_w, lex_bound
from circuitfan.linalg import graded_basis
from circuitfan.order import leading_monomial
from circuitfan.ring import monomials_of_degree

from conftest import random_homogeneous
from oracles import circuits_bruteforce, diagonal_change, weight_component_dims


@pytest.fixture(autouse=True)
def announce(request, capsys):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    label = request.node.name.replace("test_", "", 1)
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


def random_weight(rng, n, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def test_01_pair_example():
    R = PolyRing(("x", "y"))
    sq = ["x^2", "x*y", "y^2"]
    I = IdealHandle(R, [R.parse(s) for s in ["x + y"] + sq])
    J = IdealHandle(R, [R.parse(s) for s in ["x - y"] + sq])
    assert circuits_truncated(I, 2) == circuits_truncated(J, 2)
    assert not ideal_equal(I, J)
    R2 = PolyRing(("x", "y"), PrimeField(2))
    I2 = IdealHandle(R2, [R2.parse(s) for s in ["x + y"] + sq])
    J2 = IdealHandle(R2, [R2.parse(s) for s in ["x - y"] + sq])
    assert ideal_equal(I2, J2)


def test_02_basis_supports_are_circuits(suite, suite_rng):
    rng = suite_rng
    for I in suite:
        n = I.ring.n
        orders = [LEX, DRL] + [
            weighted(random_weight(rng, n), tie=DRL) for _ in range(3)
        ]
        for order in orders:
            for g in I.groebner(order).elements:
                d = g.degree()
                W = graded_basis(I, d)
                assert is_circuit(W, list(g.terms)), (g, order)


def test_03_initial_circuits_identity(suite, suite_rng):
    rng = suite_rng
    d = 3
    for I in suite:
        cs = circuits_truncated(I, d)
        for _ in range(3):
            w = random_weight(rng, I.ring.n)
            got = initial_circuits(cs, w)
            want = circuits_truncated(initial_ideal_w(I, w), d)
            assert got == want, (I.generators, w)


def test_04_hilbert_preservation(suite, suite_rng):
    rng = suite_rng
    for I in suite:
        H = hilbert_function(I, 6).ideal_dims
        assert hilbert_function(initial_ideal(I, LEX), 6).ideal_dims == H
        assert hilbert_function(initial_ideal(I, DRL), 6).ideal_dims == H
        w = random_weight(rng, I.ring.n)
        assert hilbert_function(initial_ideal_w(I, w), 6).ideal_dims == H


def test_05_flat_family(suite, suite_rng):
    rng = suite_rng
    for I in suite:
        fld = I.ring.field
        for _ in range(2):
            w = random_weight(rng, I.ring.n, -2, 2)
            H = homogenize_ideal_w(I, w)
            assert ideal_equal(specialize_t(H, fld.one), I)
            assert ideal_equal(specialize_t(H, fld.zero), initial_ideal_w(I, w))
            for a in (Fraction(2), Fraction(3)):
                Da = diagonal_change(I.ring, w, a)
                assert ideal_equal(specialize_t(H, a), transform_ideal(Da, I))


def test_06_weight_equivalence(suite, suite_rng):
    rng = suite_rng
    for I in suite:
        n = I.ring.n
        for _ in range(10):
            w, w2 = random_weight(rng, n), random_weight(rng, n)
            assert weight_equiv(I, w, w2) == ideal_equal(
                initial_ideal_w(I, w), initial_ideal_w(I, w2)
            )


def test_07_newton_oracle():
    from circuitfan.ring import Polynomial

    rng = random.Random(71)
    for _ in range(10):
        n = rng.choice([2, 3])
        ring = PolyRing(("x", "y", "z")[:n])
        d = rng.randint(1, 4)
        all_monos = monomials_of_degree(n, d)
        monos = rng.sample(all_monos, min(rng.randint(2, 4), len(all_monos)))
        f = Polynomial(ring, {m: Fraction(rng.randint(1, 5)) for m in monos})
        B = 4 if n == 2 else 2
        got = enumerate_fan(IdealHandle(ring, [f]), B)
        want = newton_fan_oracle(f, B)
        assert len(got.cells) == len(want.cells)
        by_basis = {c.initial_basis: c for c in want.cells}
        for c in got.cells:
            assert c.initial_basis in by_basis
            assert c.cone == by_basis[c.initial_basis].cone


def test_08_generic_fan_certificates(suite):
    planes = [I for I in suite if I.ring.n == 2][:5]
    for I in planes:
        _, D = lex_bound(I)
        g = random_change(RandomSpec(81, entry_bound=50), I.ring)
        gI = transform_ideal(g, I)
        a = gcs_truncated(gI, D, RandomSpec(82))
        b = gcs_truncated(gI, D, RandomSpec(83))
        assert a == b, (I.generators, D)


def test_09_borel_invariance(suite):
    weights = [(2, 1), (1, 0), (1, 1, 0), (3, 1, 1)]
    for I in suite[:8]:
        n = I.ring.n
        for w in weights:
            if len(w) > n:
                continue
            sorted_w, _, _ = normalize_weight(w + (0,) * (n - len(w)))
            report = stab_check(I, sorted_w, RandomSpec(91), g_trials=2, b_trials=5)
            assert report["passed"], (I.generators, sorted_w)
    # negative control: without a generic change the invariance fails
    R = PolyRing(("x", "y"))
    bad = stab_check(
        IdealHandle(R, [R.parse("y")]),
        (1, 0),
        RandomSpec(92),
        g_trials=1,
        force_identity_g=True,
    )
    assert not bad["passed"]


def test_10_filtration_ranks():
    rng = random.Random(101)
    built = 0
    while built < 20:
        n = rng.choice([2, 3])
        ring = PolyRing(("x", "y", "z")[:n])
        d = rng.randint(1, 3)
        w = tuple(sorted((rng.randint(0, 3) for _ in range(n)), reverse=True))
        # omega-homogeneous generators: random support inside one weight level
        monos = monomials_of_degree(n, d)
        from circuitfan.ring import Polynomial, weight_value

        gens = []
        for _ in range(rng.randint(1, 3)):
            level = weight_value(rng.choice(monos), w)
            support = [m for m in monos if weight_value(m, w) == level]
            gens.append(
                Polynomial(
                    ring, {m: Fraction(rng.randint(-3, 3)) for m in support}
                )
            )
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        W = span_matrix(ring, d, gens)
        built += 1
        a = alpha_vector(W, w)
        top = w[0] * d
        comp = {}
        prev = 0
        for i, v in enumerate(a.values):
            if v - prev:
                comp[top - i] = v - prev
            prev = v
        if W.dim - prev:
            comp[0] = W.dim - prev
        assert comp == dict(weight_component_dims(W, w))
        for _ in range(5):
            m = [
                [Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)
            ]
            for i in range(n):
                for j in range(i + 1, n):
                    if w[i] != w[j]:
                        m[i][j] = Fraction(rng.randint(-4, 4))
            # the Borel element acts by columns, a substitution by rows
            s = Substitution(ring, list(zip(*m)))
            rows = [Polynomial(ring, dict(zip(W.basis, row))) for row in W.rows]
            bW = span_matrix(ring, d, [s.apply(f) for f in rows])
            assert alpha_vector(bW, w) >= a


def test_11_oracle_equivalence(suite):
    for I in suite:
        for d in (1, 2, 3):
            W = graded_basis(I, d)
            if W.ncols > 12 or W.dim == 0:
                continue
            circ, truncated = circuits_of_space(W)
            assert not truncated
            assert circ == circuits_bruteforce(W), (I.generators, d)
