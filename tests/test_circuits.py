import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from circuitfan import (
    DRL,
    IdealHandle,
    PolyRing,
    PrimeField,
    RandomSpec,
    Substitution,
    alpha_vector,
    circuits_truncated,
    initial_circuits,
    initial_space_w,
    is_circuit,
    random_change,
    span_matrix,
    transform_ideal,
)
from circuitfan.circuits import AlphaVector, CircuitsSet, circuits_of_space
from circuitfan.linalg import graded_basis
from circuitfan.ring import QQ, Polynomial, monomials_of_degree

from conftest import over, random_homogeneous
from oracles import circuits_bruteforce, rank_rel, weight_component_dims


X, Y = (1, 0), (0, 1)
X2, XY, Y2 = (2, 0), (1, 1), (0, 2)


@pytest.fixture
def R():
    return PolyRing(("x", "y"))


class TestPairExample:
    def pair_ideal(self, ring):
        return IdealHandle(ring, [ring.parse("x + y"), ring.parse("y^2")])

    def test_over_q(self, R):
        cs = circuits_truncated(self.pair_ideal(R), 2)
        by_degree = dict(cs.by_degree)
        assert by_degree.get(1, frozenset()) == {frozenset({X, Y})}
        assert by_degree.get(2, frozenset()) == {
            frozenset({X2}),
            frozenset({XY}),
            frozenset({Y2}),
        }
        assert not cs.truncated

    def test_field_independence(self, R):
        # the same circuits over a large prime field and over GF(2)
        base = circuits_truncated(self.pair_ideal(R), 2)
        for p in (32003, 2):
            Rp = PolyRing(("x", "y"), PrimeField(p))
            assert circuits_truncated(self.pair_ideal(Rp), 2) == base

    def test_zero_piece_omitted(self, R):
        cs = circuits_truncated(IdealHandle(R, [R.parse("x^2")]), 1)
        assert cs.by_degree == ()


class TestEnumeration:
    def test_matches_bruteforce_oracle(self):
        rng = random.Random(41)
        for n, names in ((2, ("x", "y")), (3, ("x", "y", "z"))):
            ring = PolyRing(names)
            for _ in range(8):
                d = rng.choice([2, 3])
                W = span_matrix(
                    ring,
                    d,
                    [random_homogeneous(ring, d, rng) for _ in range(rng.randint(1, 3))],
                )
                circ, truncated = circuits_of_space(W)
                assert not truncated
                assert circ == circuits_bruteforce(W)

    @staticmethod
    def random_spaces(fld, rng, count=8):
        for names in (("x", "y"), ("x", "y", "z")):
            ring = PolyRing(names, fld)
            for _ in range(count):
                d = rng.choice([2, 3])
                polys = [random_homogeneous(ring, d, rng) for _ in range(rng.randint(1, 3))]
                yield span_matrix(ring, d, polys)

    def test_matches_bruteforce_oracle_over_prime_fields(self):
        rng = random.Random(45)
        for p in (2, 32003):
            for W in self.random_spaces(PrimeField(p), rng):
                circ, truncated = circuits_of_space(W)
                assert not truncated
                assert circ == circuits_bruteforce(W)

    def test_matches_bruteforce_oracle_after_random_change(self, suite):
        # pieces of suite ideals after a coordinate change with entries up to
        # 10^4, as gcs draws them: the quotient images are large integers, so
        # residuals go through content removal and integer growth
        largest = 0
        for k, I in enumerate(suite[:6]):
            J = transform_ideal(random_change(RandomSpec(300 + k, entry_bound=10_000), I.ring), I)
            for d in (2, 3):
                W = graded_basis(J, d)
                largest = max([largest] + [abs(x.numerator) for r in W.rows for x in r])
                circ, truncated = circuits_of_space(W)
                assert not truncated
                assert circ == circuits_bruteforce(W)
        assert largest > 10**12

    @staticmethod
    def random_subspace(ring, d, rng, kind):
        """The whole degree-d piece, a line, a span of random polynomials
        on a narrower support, or one on every monomial; over Q the
        coefficients go up to 10^12."""
        fld = ring.field
        monos = monomials_of_degree(ring.n, d)
        if kind == "whole":
            return span_matrix(ring, d, [ring.monomial(m) for m in monos])
        support = rng.sample(monos, rng.randint(2, len(monos) - 1)) if kind == "narrow" else monos
        count = 1 if kind == "line" else rng.randint(1, len(support) - 1)
        bound = 10**12 if not fld.characteristic else fld.characteristic
        polys = []
        while len(polys) < count:
            f = Polynomial(ring, {m: Fraction(rng.randint(-bound, bound)) for m in support})
            if not f.is_zero():
                polys.append(f)
        return span_matrix(ring, d, polys)

    @pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)], ids=str)
    def test_random_subspaces_at_every_size_cap(self, fld):
        # subspaces that are not ideal pieces: the whole piece (codimension
        # 0, every monomial a circuit), lines, and spans on narrower supports
        rng = random.Random(47)
        for names in (("x", "y"), ("x", "y", "z")):
            ring = PolyRing(names, fld)
            for d in (2, 3):
                for kind in ("whole", "line", "narrow", "random") * 2:
                    W = self.random_subspace(ring, d, rng, kind)
                    full = circuits_bruteforce(W)
                    q = W.ncols - W.dim
                    n = len(W.support_columns())
                    if kind == "whole":
                        assert q == 0 and full == {frozenset([m]) for m in W.basis}
                    elif kind == "line":
                        assert W.dim == 1
                    elif kind == "narrow":
                        assert n < W.ncols
                    assert circuits_of_space(W) == (full, False)
                    for k in range(1, q + 2):
                        circ, truncated = circuits_of_space(W, size_cap=k)
                        assert circ == {c for c in full if len(c) <= k}
                        assert truncated == (min(k, q + 1, n) < min(q + 1, n))

    @pytest.mark.parametrize("fld", [QQ, PrimeField(32003)], ids=str)
    def test_uniform_piece(self, fld):
        # a dense random span of dimension 6 in the 10 cubics of 3 variables
        # (q = 4) is uniform: every 5 monomials form a circuit, and each is
        # read off a path of 4 that spans the quotient
        rng = random.Random(48)
        ring = PolyRing(("x", "y", "z"), fld)
        monos = monomials_of_degree(3, 3)
        bound = 10**12 if not fld.characteristic else fld.characteristic
        polys = [
            Polynomial(ring, {m: Fraction(rng.randint(-bound, bound)) for m in monos})
            for _ in range(6)
        ]
        W = span_matrix(ring, 3, polys)
        assert W.ncols - W.dim == 4
        circ, truncated = circuits_of_space(W)
        assert not truncated
        assert len(circ) == math.comb(10, 5) and all(len(c) == 5 for c in circ)
        assert circ == circuits_bruteforce(W)

    @pytest.mark.parametrize("p", [2, 3])
    def test_spanning_paths_over_small_fields(self, suite, p):
        # after a coordinate change over GF(2) or GF(3), the slots of a path
        # that spans the quotient often cancel (pivot*x == head*y mod p); the
        # suite's ideals in 3 variables keep both generators mod 2 and mod 3
        fld = PrimeField(p)
        for k, I in enumerate(suite[1:10:2]):
            I = over(fld, I)
            J = transform_ideal(random_change(RandomSpec(400 + k), I.ring), I)
            for d in (2, 3):
                W = graded_basis(J, d)
                full = circuits_bruteforce(W)
                q = W.ncols - W.dim
                for cap in range(1, q + 2):
                    circ, _ = circuits_of_space(W, size_cap=cap)
                    assert circ == {c for c in full if len(c) <= cap}

    def test_binomial_pair_degree_four(self):
        # (a*b - c*d, a^2 - b*c) has 36 circuits in degree 4
        ring = PolyRing(("a", "b", "c", "d"))
        I = IdealHandle(ring, [ring.parse("a*b - c*d"), ring.parse("a^2 - b*c")])
        W = graded_basis(I, 4)
        # the search holds one path of nodes, not a level of independent sets
        tracemalloc.start()
        try:
            circ, truncated = circuits_of_space(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert not truncated
        assert len(circ) == 36

    def test_size_cap_keeps_the_small_circuits(self):
        rng = random.Random(46)
        for fld in (QQ, PrimeField(32003), PrimeField(2)):
            for W in self.random_spaces(fld, rng, count=5):
                if W.dim == 0:
                    continue
                full = circuits_bruteforce(W)
                bound = min(W.ncols - W.dim + 1, len(W.support_columns()))
                for k in (1, 2, 3):
                    circ, truncated = circuits_of_space(W, size_cap=k)
                    assert circ == {c for c in full if len(c) <= k}
                    assert truncated == (k < bound)

    def test_antichain(self, suite):
        for I in suite[:8]:
            cs = circuits_truncated(I, 4)
            for _, circ in cs.by_degree:
                for a in circ:
                    for b in circ:
                        assert not (a < b)

    def test_support_of_member_contains_circuit(self, suite, suite_rng):
        # the support of any nonzero element of the graded piece is dependent,
        # so it must contain a circuit
        rng = suite_rng
        for I in suite[:6]:
            d = 3
            W = graded_basis(I, d)
            if W.dim == 0:
                continue
            circ, _ = circuits_of_space(W)
            polys = [Polynomial(I.ring, dict(zip(W.basis, row))) for row in W.rows]
            for _ in range(5):
                coeffs = [Fraction(rng.randint(-4, 4)) for _ in polys]
                f = I.ring.zero()
                for c, p in zip(coeffs, polys):
                    f = f + p.scale(c)
                if f.is_zero():
                    continue
                supp = frozenset(f.terms)
                assert any(c <= supp for c in circ)

    def test_size_bounded_by_codim_plus_one(self, suite):
        for I in suite[:8]:
            for d in (2, 3):
                W = graded_basis(I, d)
                circ, _ = circuits_of_space(W)
                for c in circ:
                    assert len(c) <= W.ncols - W.dim + 1

    def test_truncation_flag(self, R):
        I = IdealHandle(R, [R.parse("x^3 + y^3")])
        cs = circuits_truncated(I, 3, size_cap=1)
        assert cs.truncated
        assert dict(cs.by_degree).get(3, frozenset()) == frozenset()

    def test_truncation_flag_not_compared(self):
        # the size-cap flag is not part of the value: equal, equally hashed,
        # one dict key
        m = {1: {frozenset({X, Y})}, 2: {frozenset({X2}), frozenset({XY, Y2})}}
        capped, full = CircuitsSet.build(m, truncated=True), CircuitsSet.build(m)
        assert capped.truncated and not full.truncated
        assert capped == full and hash(capped) == hash(full)
        assert len({capped: 0, full: 1}) == 1

    def test_bad_size_cap(self, R):
        I = IdealHandle(R, [R.parse("x")])
        with pytest.raises(ValueError):
            circuits_truncated(I, 1, size_cap=0)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_bad_size_cap_on_zero_pieces(self, R, cap):
        # every piece up to degree 1 is zero: the cap fails all the same
        I = IdealHandle(R, [R.parse("x^2 + 3*x*y - 2*y^2"), R.parse("x*y^2 - y^3")])
        with pytest.raises(ValueError):
            circuits_truncated(I, 1, size_cap=cap)


class TestMembership:
    def test_examples(self, R):
        W = span_matrix(R, 1, [R.parse("x + y")])
        assert is_circuit(W, [X, Y])
        assert not is_circuit(W, [X])
        assert not is_circuit(W, [])
        assert not is_circuit(W, [X, X])
        assert not is_circuit(W, [X, X2])  # x^2 is not in the degree-1 piece

    def test_agrees_with_enumeration(self, suite):
        import itertools

        for I in suite[:4]:
            W = graded_basis(I, 2)
            circ, _ = circuits_of_space(W)
            monos = W.basis
            for r in range(1, min(4, len(monos)) + 1):
                for S in itertools.combinations(monos, r):
                    assert is_circuit(W, S) == (frozenset(S) in circ)


class TestInitialCircuits:
    def test_selection_example(self, R):
        T = CircuitsSet.build({1: {frozenset({X, Y})}})
        got = initial_circuits(T, (1, 0))
        assert dict(got.by_degree).get(1, frozenset()) == {frozenset({X})}

    def test_uniform_weight_identity(self, suite):
        for I in suite[:4]:
            cs = circuits_truncated(I, 3)
            n = I.ring.n
            assert initial_circuits(cs, (1,) * n) == cs

    def test_commutes_with_initial_space(self):
        # initial circuits of cs(W) coincide with the circuits of in_w(W)
        rng = random.Random(42)
        R3 = PolyRing(("x", "y", "z"))
        for _ in range(10):
            d = rng.choice([2, 3])
            W = span_matrix(
                R3, d, [random_homogeneous(R3, d, rng) for _ in range(rng.randint(1, 3))]
            )
            w = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
            cw, _ = circuits_of_space(W)
            cv, _ = circuits_of_space(initial_space_w(W, w))
            assert initial_circuits(CircuitsSet.build({d: cw}), w) == CircuitsSet.build(
                {d: cv}
            )


class TestAlpha:
    def test_example(self, R):
        W = span_matrix(R, 2, [R.parse("x^2 + x*y")])
        a = alpha_vector(W, (1, 0))
        assert a.values == (1, 1)

    def test_full_space(self, R):
        W = span_matrix(R, 2, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
        a = alpha_vector(W, (1, 0))
        assert a.values == (1, 2)

    def test_unsorted_weight_rejected(self, R):
        W = span_matrix(R, 2, [R.parse("x^2")])
        with pytest.raises(ValueError):
            alpha_vector(W, (0, 1))
        with pytest.raises(ValueError):
            alpha_vector(W, (1, -1))

    @pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(32003)], ids=str)
    def test_matches_relative_ranks(self, fld):
        # each value is rank_rel against the monomials lighter than its
        # threshold, or dim W where there are none
        rng = random.Random(45)
        R3 = PolyRing(("x", "y", "z"), fld)
        for _ in range(15):
            d = rng.choice([1, 2, 3])
            W = span_matrix(
                R3, d, [random_homogeneous(R3, d, rng) for _ in range(rng.randint(0, 4))]
            )
            w = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
            monos = monomials_of_degree(3, d)
            expected = []
            for a in range(w[0] * d, 0, -1):
                S = [m for m in monos if sum(x * y for x, y in zip(m, w)) < a]
                expected.append(rank_rel(W, S) if S else W.dim)
            assert alpha_vector(W, w).values == tuple(expected)

    def test_comparison_contract(self):
        a = AlphaVector(2, (1, 0), (1, 1))
        b = AlphaVector(2, (1, 0), (1, 2))
        assert b > a and b >= a and not (a >= b)
        with pytest.raises(ValueError):
            a >= AlphaVector(3, (1, 0), (1, 1))

    def test_dimension_formula(self):
        # consecutive differences of the rank vector are the dimensions of the
        # weight components of the initial space
        rng = random.Random(43)
        R3 = PolyRing(("x", "y", "z"))
        for _ in range(12):
            d = rng.choice([2, 3])
            W = span_matrix(
                R3, d, [random_homogeneous(R3, d, rng) for _ in range(rng.randint(1, 3))]
            )
            w = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
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

    def test_monotone_under_borel_action(self):
        rng = random.Random(44)
        R3 = PolyRing(("x", "y", "z"))
        for _ in range(15):
            d = rng.choice([2, 3])
            W = span_matrix(
                R3, d, [random_homogeneous(R3, d, rng) for _ in range(rng.randint(1, 3))]
            )
            w = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
            m = [
                [Fraction(1) if i == j else Fraction(0) for j in range(3)]
                for i in range(3)
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    if w[i] != w[j]:
                        m[i][j] = Fraction(rng.randint(-3, 3))
            # the Borel element acts by columns, a substitution by rows
            s = Substitution(R3, list(zip(*m)))
            rows = [Polynomial(R3, dict(zip(W.basis, row))) for row in W.rows]
            bW = span_matrix(R3, d, [s.apply(f) for f in rows])
            assert alpha_vector(bW, w) >= alpha_vector(W, w)
