import math
import random
from fractions import Fraction

import pytest

from circuitfan import (
    DRL,
    LEX,
    IdealHandle,
    PolyRing,
    Polynomial,
    graded_basis,
    initial_space_w,
    span_matrix,
    weighted,
)
from circuitfan.circuits import _quotient_images
from circuitfan.elim import echelon, residual
from circuitfan.generic import RandomSpec, random_change
from circuitfan.groebner import transform_ideal
from circuitfan.linalg import (
    exact_rank,
    rank_bareiss,
    rref,
    weight_echelon,
)
from circuitfan.ring import QQ, PrimeField, monomials_of_degree, poly_str

from conftest import random_homogeneous
from oracles import (
    initial_space_reference,
    rank_reference,
    rank_rel,
    rref_reference,
    weight_component_dims,
)


@pytest.fixture
def R():
    return PolyRing(("x", "y"))


class TestKernels:
    def test_bareiss_matches_field_rank(self):
        rng = random.Random(11)
        for _ in range(50):
            rows = [
                [rng.randint(-9, 9) for _ in range(4)]
                for _ in range(rng.randint(1, 5))
            ]
            frac = [[Fraction(x) for x in r] for r in rows]
            assert rank_bareiss(rows) == rank_reference(frac, 0)

    def test_exact_rank_prime_field(self):
        rows = [[1, 2, 3], [0, 1, 4], [0, 0, 2]]
        assert exact_rank(rows, 5) == 3
        assert exact_rank([[1, 2, 3], [2, 4, 6]], 5) == 1  # 6 = 1 mod 5
        assert exact_rank([[1, 2, 3], [0, 1, 1], [2, 4, 1]], 5) == 2  # row3 = 2*row1

    def test_exact_rank_ints_and_fractions_agree(self):
        # integer rows skip denominator clearing; scaling a row by a nonzero
        # fraction must not change the rank
        rng = random.Random(12)
        for _ in range(50):
            rows = [
                [rng.randint(-9, 9) for _ in range(5)]
                for _ in range(rng.randint(1, 5))
            ]
            scaled = []
            for r in rows:
                c = Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(2, 7))
                scaled.append([c * x for x in r])
            assert exact_rank(rows, 0) == exact_rank(scaled, 0) == rank_reference(scaled, 0)


    @pytest.mark.parametrize("p", [2, 5, 32003])
    def test_prime_field_rank_matches_rref(self, p):
        # the kernel reduces entries mod p on entry, so p, -1 and values far
        # outside [0, p) must count as their residues
        rng = random.Random(p)
        cases = [[], [[]], [[], []], [[0, 0], [0, 0]], [[p, -p, 3 * p]], [[5, 0], [0, 0]]]
        for _ in range(300):
            ncols = rng.randint(1, 6)
            rows = []
            for _ in range(rng.randint(1, 6)):
                if rows and rng.random() < 0.3:
                    # a multiple of an earlier row, shifted by multiples of p
                    c, base = rng.randint(-3, 3), rng.choice(rows)
                    rows.append([c * x + p * rng.randint(-2, 2) for x in base])
                else:
                    rows.append([
                        rng.choice((0, p, -1)) if rng.random() < 0.4
                        else rng.randint(-3 * p, 3 * p)
                        for _ in range(ncols)
                    ])
            cases.append(rows)
        for rows in cases:
            assert exact_rank(rows, p) == rank_reference(rows, p), rows

    @pytest.mark.parametrize("p", [0, 2, 5, 32003])
    def test_residuals_decide_rank(self, p):
        # P + [a] and P + [b] independent: the residuals of a and b against
        # the echelon of P vanish on its pivots, and one step of reducing
        # b's against a's leaves zero exactly when P + [a, b] has rank
        # len(P) + 1
        rng = random.Random(70 + p)

        def entry():
            if rng.random() < 0.3:
                return p * rng.randint(-2, 2)
            if p:  # a residue shifted by a multiple of p
                return rng.randrange(p) + p * rng.randint(-3, 3)
            return rng.randint(-10**12, 10**12)

        outcomes = {True: 0, False: 0}
        while min(outcomes.values()) < 100:
            ncols = rng.randint(1, 6)
            k = rng.randint(0, ncols - 1)
            P = [[entry() for _ in range(ncols)] for _ in range(k)]
            a = [entry() for _ in range(ncols)]
            if rng.random() < 0.5:
                # b in the span of P + [a], shifted by multiples of p
                coeffs = [rng.randint(-3, 3) for _ in range(k + 1)]
                b = [
                    sum(c * r[j] for c, r in zip(coeffs, P + [a])) + p * rng.randint(-2, 2)
                    for j in range(ncols)
                ]
            else:
                b = [entry() for _ in range(ncols)]
            if rank_reference(P + [a], p) < k + 1 or rank_reference(P + [b], p) < k + 1:
                continue
            ech = echelon(P, p)
            ra, rb = residual(ech, a, p), residual(ech, b, p)
            for col, _ in ech:
                assert ra[col] == rb[col] == 0
            if p:
                assert all(0 <= x < p for x in ra + rb)
            expected = rank_reference(P + [a, b], p) == k + 1
            col = next(j for j, x in enumerate(ra) if x)
            assert (not any(residual(((col, ra),), rb, p))) == expected, (P, a, b)
            outcomes[expected] += 1

    @pytest.mark.parametrize("p", [0, 2, 5, 32003])
    def test_echelon_drops_dependent_rows(self, p):
        # a row in the span of the rows before it leaves no trace, so the
        # echelon's length is the rank
        rng = random.Random(80 + p)
        cases = [[], [[]], [[0, 0]], [[1, 2], [2, 4]], [[1, 2], [6, 2]], [[0, 1], [1, 0], [1, 1]]]
        for _ in range(200):
            ncols = rng.randint(1, 6)
            rows = []
            for _ in range(rng.randint(1, 7)):
                if rows and rng.random() < 0.4:
                    c, d = rng.randint(-3, 3), rng.randint(-3, 3)
                    r1, r2 = rng.choice(rows), rng.choice(rows)
                    rows.append([c * x + d * y + p * rng.randint(-2, 2) for x, y in zip(r1, r2)])
                else:
                    rows.append([rng.randint(-9, 9) for _ in range(ncols)])
            cases.append(rows)
        for rows in cases:
            ech = echelon(rows, p)
            assert len(ech) == rank_reference(rows, p), rows
            assert all(r[col] and not any(r[:col]) for col, r in ech)

    def test_rational_rank_of_zero_rows(self):
        assert exact_rank([], 0) == 0
        assert exact_rank([[], []], 0) == 0
        assert exact_rank([[0, 0, 0], [0, 0, 0]], 0) == 0
        assert exact_rank([[Fraction(0), 0], [0, Fraction(0, 3)]], 0) == 0
        assert exact_rank([[0, 0], [Fraction(1, 2), 0], [0, 0]], 0) == 1

    @pytest.mark.parametrize("p", [0, 2, 5, 32003])
    def test_rref_matches_reference(self, p, suite):
        # the RREF is unique: rows, pivot columns (each row's first nonzero
        # column) and scalar types must match the Gauss-Jordan reference,
        # over Q its rows scaled to primitive ints (the monic row times the
        # lcm of its denominators, divided by the gcd; its pivot stays
        # positive), over GF(p) ints in [0, p)
        fld = PrimeField(p) if p else QQ
        rng = random.Random(90 + p)

        def entry():
            if rng.random() < 0.3:
                return 0
            if p:  # a residue shifted by a multiple of p
                return rng.randrange(p) + p * rng.randint(-3, 3)
            return Fraction(rng.randint(-20, 20), rng.randint(1, 6))

        def typed(x):
            return type(x) is int and (not p or 0 <= x < p)

        def primitive(row):
            lcm = math.lcm(*(Fraction(x).denominator for x in row))
            ints = [int(x * lcm) for x in row]
            g = math.gcd(*ints)
            return tuple(x // g for x in ints)

        cases = [[], [[]], [[], []], [[0, 0, 0]], [[0, 0], [0, 0]], [[2, 4], [1, 2]]]
        for _ in range(150):
            ncols = rng.randint(1, 6)
            rows = []
            for _ in range(rng.randint(1, 6)):
                if rows and rng.random() < 0.3:
                    # a multiple of an earlier row, zero when c is 0
                    c, base = rng.randint(-3, 3), rng.choice(rows)
                    rows.append([c * x + p * rng.randint(-2, 2) for x in base])
                else:
                    rows.append([entry() for _ in range(ncols)])
            cases.append(rows)
        # the generator multiples of graded pieces after a random change
        for i, I in enumerate(suite[:6]):
            ring = PolyRing(I.ring.names, fld)
            gens = [ring.parse(poly_str(g)) for g in I.generators]
            J = IdealHandle(ring, [g for g in gens if not g.is_zero()])
            J = transform_ideal(random_change(RandomSpec(i, entry_bound=10_000), ring), J)
            for d in (3, 4):
                basis = monomials_of_degree(ring.n, d)
                rows = []
                for g in J.generators:
                    if g.degree() > d:
                        continue
                    for m in monomials_of_degree(ring.n, d - g.degree()):
                        terms = g.mul_monomial(m).terms
                        rows.append([terms.get(b, fld.zero) for b in basis])
                cases.append(rows)
        for rows in cases:
            got, (expected, pivots) = rref(rows, p), rref_reference(rows, p)
            assert got == ([primitive(r) for r in expected] if not p else expected), rows
            assert [next(j for j, x in enumerate(r) if x) for r in got] == pivots, rows
            assert all(typed(x) for r in got for x in r), rows


class TestGradedBasis:
    def test_principal_linear(self, R):
        I = IdealHandle(R, [R.parse("x + y")])
        W = graded_basis(I, 2)
        assert W.dim == 2

    def test_single_variable(self, R):
        I = IdealHandle(R, [R.parse("x")])
        assert graded_basis(I, 1).dim == 1

    def test_full_square(self, R):
        I = IdealHandle(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
        W = graded_basis(I, 2)
        assert W.dim == 3
        assert [list(r) for r in W.rows] == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]

    def test_empty_piece(self, R):
        I = IdealHandle(R, [R.parse("x^2")])
        assert graded_basis(I, 1).dim == 0

    def test_rational_rows_are_the_integer_reduced_echelon(self):
        # over Q the rows depend only on the space: two generating sets give
        # the same rows, of ints, each primitive with a positive pivot and
        # zero on the other rows' pivot columns; the quotient images the
        # circuit search reads are int tuples
        rng = random.Random(21)
        R3 = PolyRing(("x", "y", "z"))

        def coefficient():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))

        for _ in range(30):
            d = rng.choice([2, 3])
            A = [random_homogeneous(R3, d, rng, bound=20) for _ in range(rng.randint(1, 6))]
            # a triangular change with nonzero diagonal spans the same space
            B = [
                sum((g.scale(coefficient()) for g in A[i + 1 :]), A[i].scale(coefficient()))
                for i in range(len(A))
            ]
            rng.shuffle(B)
            W = span_matrix(R3, d, A)
            assert span_matrix(R3, d, B).rows == W.rows
            pivots = [next(j for j, x in enumerate(r) if x) for r in W.rows]
            for r, col in zip(W.rows, pivots):
                assert all(type(x) is int for x in r)
                assert math.gcd(*r) == 1 and r[col] > 0
                assert all(r[c] == 0 for c in pivots if c != col)
            images = _quotient_images(W)
            assert all(type(x) is int for v in images.values() for x in v)


def with_unit_rows(W, S):
    """W's rows followed by the unit row of each monomial in S."""
    return [list(r) for r in W.rows] + [[int(b == m) for b in W.basis] for m in S]


class TestRankRel:
    def test_sub_examples(self, R):
        # dim(W + <S>) - dim W
        W = span_matrix(R, 1, [R.parse("x + y")])
        for S in ([(1, 0)], [(1, 0), (0, 1)]):
            assert rank_rel(W, S) + len(S) - W.dim == 1

    def test_sup_identity(self, R):
        W = span_matrix(R, 1, [R.parse("x + y")])
        S = [(1, 0), (0, 1)]
        assert rank_rel(W, S) == 0
        assert rank_rel(W, S) + len(S) == rank_reference(with_unit_rows(W, S), 0)

    def test_identity_random(self):
        rng = random.Random(12)
        R3 = PolyRing(("x", "y", "z"))
        for _ in range(25):
            d = rng.choice([2, 3])
            W = span_matrix(
                R3, d, [random_homogeneous(R3, d, rng) for _ in range(rng.randint(1, 3))]
            )
            monos = monomials_of_degree(3, d)
            S = rng.sample(monos, rng.randint(1, len(monos)))
            assert rank_rel(W, S) + len(S) == rank_reference(with_unit_rows(W, S), 0)

    def test_monotone_in_s(self):
        rng = random.Random(13)
        R3 = PolyRing(("x", "y", "z"))
        W = span_matrix(R3, 2, [random_homogeneous(R3, 2, rng) for _ in range(2)])
        monos = monomials_of_degree(3, 2)
        for _ in range(20):
            S = rng.sample(monos, rng.randint(1, len(monos)))
            k = rng.randint(1, len(S))
            Ssub = S[:k]
            assert rank_rel(W, Ssub) + len(Ssub) - W.dim <= rank_rel(W, S) + len(S) - W.dim

    def test_wrong_degree_rejected(self, R):
        W = span_matrix(R, 2, [R.parse("x^2")])
        with pytest.raises(ValueError):
            rank_rel(W, [(1, 0)])

    def test_generic_rank_agreement(self, R):
        # two independent large random changes realize the same (maximal)
        # relative ranks on every monomial subset of the graded piece
        from circuitfan import RandomSpec, random_change, transform_ideal
        import itertools

        I = IdealHandle(R, [R.parse("x^3 + y^3"), R.parse("x^2*y")])
        monos = monomials_of_degree(2, 3)
        results = []
        for seed in (101, 202):
            g = random_change(RandomSpec(seed, entry_bound=10_000), R)
            W = graded_basis(transform_ideal(g, I), 3)
            ranks = {}
            for r in range(1, len(monos) + 1):
                for S in itertools.combinations(monos, r):
                    ranks[S] = rank_rel(W, S) + len(S) - W.dim
            results.append(ranks)
        assert results[0] == results[1]


class TestInitialSpace:
    def test_single_form(self, R):
        W = span_matrix(R, 2, [R.parse("x^2 + x*y")])
        V = initial_space_w(W, (1, 0))
        assert [Polynomial(R, dict(zip(V.basis, row))) for row in V.rows] == [R.parse("x^2")]

    def test_weight_homogeneous_fixed(self, R):
        W = span_matrix(R, 2, [R.parse("x^2 + 2*x*y"), R.parse("x*y")])
        # not omega-homogeneous for (1,0); use the uniform weight instead
        V = initial_space_w(W, (1, 1))
        assert V.rows == W.rows

    def test_full_space_fixed(self, R):
        W = span_matrix(R, 2, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
        assert initial_space_w(W, (3, 1)).rows == W.rows

    def test_dimension_preserved(self):
        rng = random.Random(14)
        R3 = PolyRing(("x", "y", "z"))
        for _ in range(20):
            d = rng.choice([2, 3])
            W = span_matrix(
                R3, d, [random_homogeneous(R3, d, rng) for _ in range(rng.randint(1, 4))]
            )
            w = tuple(rng.randint(-3, 3) for _ in range(3))
            assert initial_space_w(W, w).dim == W.dim

    def test_weight_component_dims_total(self):
        rng = random.Random(15)
        R3 = PolyRing(("x", "y", "z"))
        W = span_matrix(R3, 3, [random_homogeneous(R3, 3, rng) for _ in range(3)])
        dims = weight_component_dims(W, (2, 1, 0))
        assert sum(dims.values()) == W.dim

    @pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(32003)], ids=str)
    def test_matches_gauss_jordan_reference(self, fld):
        # the initial forms of one echelon against those of Gauss-Jordan rows
        # on weight-sorted columns, compared as Gauss-Jordan forms of their
        # spans; weights with negative entries.  in_w(W) is one space, so
        # the reference's columns may break weight ties either way
        rng = random.Random(16)
        R3 = PolyRing(("x", "y", "z"), fld)
        for _ in range(20):
            d = rng.choice([1, 2, 3])
            W = span_matrix(
                R3, d, [random_homogeneous(R3, d, rng) for _ in range(rng.randint(0, 5))]
            )
            w = tuple(rng.randint(-3, 3) for _ in range(3))
            V = rref_reference(initial_space_w(W, w).rows, fld.characteristic)[0]
            for tie in (DRL, LEX):
                assert V == initial_space_reference(W, w, tie)

    def test_weight_echelon_leads_are_distinct(self):
        rng = random.Random(17)
        R3 = PolyRing(("x", "y", "z"))
        for _ in range(20):
            d = rng.choice([2, 3])
            W = span_matrix(
                R3, d, [random_homogeneous(R3, d, rng) for _ in range(rng.randint(1, 5))]
            )
            w = tuple(rng.randint(-3, 3) for _ in range(3))
            key = weighted(w).key
            leads = {max(f.terms, key=key) for f in weight_echelon(W, w)}
            assert len(leads) == W.dim

    def test_wrong_length_weight_rejected_on_zero_piece(self, R):
        W = span_matrix(R, 2, [])
        assert W.dim == 0
        with pytest.raises(ValueError):
            initial_space_w(W, (1, 0, 0))
