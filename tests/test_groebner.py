import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitfan import (
    CANONICAL,
    DRL,
    LEX,
    IdealHandle,
    PolyRing,
    buchberger_reduced,
    hilbert_function,
    homogenize_ideal_w,
    ideal_equal,
    initial_ideal,
    initial_ideal_w,
    normal_form,
    parse_ideal_file,
    specialize_t,
    transform_ideal,
    weighted,
)
from circuitfan.groebner import (
    CapTooSmallError,
    GroebnerBasis,
    MacaulayError,
    _Kernel,
    _quotient_floor,
    _standard_levels,
    basis_json,
    lex_bound,
)
from circuitfan.order import MonomialOrder, leading_monomial, leading_term
from circuitfan.ring import (
    QQ,
    PrimeField,
    Polynomial,
    mono_mul,
    monomials_of_degree,
    poly_str,
)

from conftest import VARS, make_suite, over, random_homogeneous
from oracles import (
    diagonal_change,
    ideal_dims_reference,
    ideal_file_text,
    lex_segment,
    mono_div,
    mono_divides,
)


@pytest.fixture
def R():
    return PolyRing(("x", "y"))


GF = PrimeField(32003)

#: lex, degrevlex, and two weights (padded with zeros to the ring) tied by
#: degrevlex
SYMPY_ORDERS = [LEX, DRL, (3, 2, 1), (0, 1, 2)]
SYMPY_ORDER_IDS = ["lex", "grevlex", "w3,2,1;drl", "w0,1,2;drl"]


def reference_normal_form(f, G, reentered=None):
    """Division by rescanning: take the order-maximal monomial of the work
    dict at every step and divide by the first element of G, in basis order,
    whose leading monomial divides it.  Monomials that enter the work dict
    again after cancelling are added to ``reentered``."""
    order, p = G.order, f.ring.field.characteristic
    work, remainder, cancelled = dict(f.terms), {}, set()
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for g in G.elements:
            lm, lc = leading_term(g, order)
            if mono_divides(lm, m):
                coeff = c * pow(lc, -1, p) if p else Fraction(c, lc)
                factor = mono_div(m, lm)
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    t = mono_mul(gm, factor)
                    if t in cancelled and reentered is not None:
                        reentered.add(t)
                    v = work.get(t, 0) - coeff * gc
                    if p:
                        v %= p
                    if not v:
                        del work[t]
                        cancelled.add(t)
                    else:
                        work[t] = v
                break
        else:
            remainder[m] = c
    return Polynomial(f.ring, remainder)


def s_polynomial(f, g, order):
    (mf, cf), (mg, cg) = leading_term(f, order), leading_term(g, order)
    lcm = tuple(map(max, mf, mg))
    a = f.mul_monomial(mono_div(lcm, mf)).scale(Fraction(1, cf))
    return a - g.mul_monomial(mono_div(lcm, mg)).scale(Fraction(1, cg))


def rational_divisors(elements, order, rng):
    """The polynomials with each tail coefficient divided by 5 times the
    leading one, and the leading coefficient set to -k/5 for k in {2, 3, 6}:
    negative, not a unit, with Fraction tails."""
    out = []
    for g in elements:
        lm, lc = leading_term(g, order)
        terms = {m: c / lc / 5 for m, c in g.terms.items()}
        terms[lm] = Fraction(-rng.choice((2, 3, 6)), 5)
        out.append(Polynomial(g.ring, terms))
    return tuple(out)


class TestNormalForm:
    def test_membership(self, R):
        I = IdealHandle(R, [R.parse("x"), R.parse("y")])
        G = I.groebner(LEX)
        assert normal_form(R.parse("x"), G).is_zero()

    def test_no_reduction(self, R):
        G = IdealHandle(R, [R.parse("x")]).groebner(LEX)
        assert normal_form(R.parse("y^2"), G) == R.parse("y^2")

    def test_single_step(self, R):
        G = IdealHandle(R, [R.parse("x^2 - y^2")]).groebner(LEX)
        assert normal_form(R.parse("x^2 + y^2"), G) == R.parse("2*y^2")

    def test_difference_in_ideal(self, R):
        rng = random.Random(21)
        I = IdealHandle(R, [R.parse("x^2 - y^2"), R.parse("x*y")])
        G = I.groebner(DRL)
        for _ in range(10):
            f = random_homogeneous(R, rng.choice([2, 3, 4]), rng)
            r = f - normal_form(f, G)
            assert normal_form(r, G).is_zero()

    @pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF32003"])
    @pytest.mark.parametrize("order", [LEX, weighted((2, -1))], ids=["lex", "w2,-1"])
    def test_matches_reference_division(self, suite, field, order):
        # non-homogeneous f: a sum of homogeneous parts of degrees 0..4; the
        # generators, not being a Groebner basis, make the divisor choice show
        rng = random.Random(23)
        for I in suite[0:10:2]:
            I = over(field, I)
            for G in (I.groebner(order), GroebnerBasis(order, I.generators)):
                for _ in range(5):
                    f = sum(
                        (random_homogeneous(I.ring, d, rng) for d in range(5)),
                        I.ring.zero(),
                    )
                    assert normal_form(f, G) == reference_normal_form(f, G)

    @pytest.mark.parametrize("order", [LEX, DRL, weighted((2, -1, 0))], ids=["lex", "drl", "w2,-1,0"])
    def test_rational_input_matches_reference_division(self, suite, order):
        # f has denominators 3, 7 and 21, the divisors negative, non-unit
        # leading coefficients and Fraction tails: the integer kernel clears
        # f's denominators and must divide them and its scale back out
        rng = random.Random(24)
        parts = ((1, Fraction(1, 3)), (2, Fraction(-5, 7)), (3, Fraction(1)), (4, Fraction(2, 21)))
        for I in suite[1:10:2]:
            ring = I.ring
            for elements in (I.generators, I.groebner(order).elements):
                G = GroebnerBasis(order, rational_divisors(elements, order, rng))
                for _ in range(5):
                    f = sum(
                        (random_homogeneous(ring, d, rng).scale(c) for d, c in parts), ring.zero()
                    )
                    assert normal_form(f, G) == reference_normal_form(f, G)

    def test_integer_kernel_keeps_int_coefficients(self, suite):
        # over Q the kernel's divisors are primitive with a positive leading
        # coefficient, so a division step only ever scales by a positive int
        rng = random.Random(25)
        for I in suite[1:10:2]:
            ring = I.ring
            G = GroebnerBasis(DRL, rational_divisors(I.generators, DRL, rng))
            K = _Kernel(DRL, ring, 6)
            reducers = [K.reducer(K.normalized(K.pack(g))) for g in G.elements]
            for _, _, lc, tail, _ in reducers:
                assert type(lc) is int and lc > 0
                assert all(type(c) is int for _, _, c in tail)
                assert math.gcd(lc, *(c for _, _, c in tail)) == 1
            scales = set()
            for d in (3, 4, 5, 6):
                f = random_homogeneous(ring, d, rng)
                r, scale = K.reduce([(k, e, int(c)) for k, e, c in K.pack(f)], reducers)
                assert all(type(c) is int for _, _, c in r)
                assert type(scale) is int and scale > 0
                assert K.unpack(r, scale) == reference_normal_form(f, G)
                scales.add(scale)
            assert scales != {1}

    def test_divisors_packed_once_per_width(self, R):
        G = IdealHandle(R, [R.parse("x^2 - y^2"), R.parse("x*y")]).groebner(DRL)
        assert normal_form(R.parse("x^3"), G) == reference_normal_form(R.parse("x^3"), G)
        packed = G._divisors
        assert normal_form(R.parse("x^2*y"), G).is_zero()
        assert G._divisors is packed
        # degree 40 needs a wider kernel: G is packed again, and the
        # narrower f after it again
        f = R.parse("x^40 + x*y^39")
        assert normal_form(f, G) == reference_normal_form(f, G)
        assert G._divisors is not packed
        assert normal_form(R.parse("x^3"), G) == reference_normal_form(R.parse("x^3"), G)
        assert G._divisors[0].limit == packed[0].limit

    def test_cancelled_term_reenters(self, R):
        # x*y^2 brings in y^4; x*y cancels y^3; y^4 brings y^3 back
        G = GroebnerBasis(LEX, (R.parse("x*y + y^3"), R.parse("y^3 - y^2")))
        f = R.parse("-x*y^2 + x*y + y^3")
        reentered = set()
        assert reference_normal_form(f, G, reentered) == R.parse("y^2")
        assert reentered == {(0, 3)}
        assert normal_form(f, G) == R.parse("y^2")

    def test_rejects_a_basis_from_another_ring(self, R):
        G = IdealHandle(R, [R.parse("x^2 - y^2"), R.parse("x*y")]).groebner(DRL)
        over_gf7 = PolyRing(("x", "y"), PrimeField(7)).parse("x^2")
        other_names = PolyRing(("a", "b")).parse("a^2 + 1/2*b^2")
        for f in (over_gf7, other_names):
            with pytest.raises(ValueError, match="polynomial from a different ring"):
                normal_form(f, G)
        # also once G holds divisors packed for its own ring
        assert normal_form(R.parse("x^2"), G) == R.parse("y^2")
        for f in (over_gf7, other_names):
            with pytest.raises(ValueError, match="polynomial from a different ring"):
                normal_form(f, G)

    def test_empty_basis_takes_any_ring(self):
        for ring in (PolyRing(("a", "b")), PolyRing(("x", "y"), PrimeField(7))):
            f = ring.monomial((1, 1)).scale(3)
            assert normal_form(f, GroebnerBasis(DRL, ())) == f


class TestBuchberger:
    def test_linear_pair_of_generators(self, R):
        I = IdealHandle(R, [R.parse("x + y"), R.parse("y")])
        gb = I.groebner(LEX)
        assert set(gb.elements) == {R.parse("x"), R.parse("y")}

    def test_s_pair_example(self, R):
        I = IdealHandle(R, [R.parse("x^2 - y^2"), R.parse("x*y")])
        gb = I.groebner(LEX)
        assert set(gb.elements) == {
            R.parse("x^2 - y^2"),
            R.parse("x*y"),
            R.parse("y^3"),
        }

    def test_principal(self, R):
        for order in (LEX, DRL, weighted((2, -1))):
            gb = IdealHandle(R, [R.parse("3*x")]).groebner(order)
            assert gb.elements == (R.parse("x"),)

    def test_generator_order_irrelevant(self):
        rng = random.Random(22)
        R3 = PolyRing(("x", "y", "z"))
        for _ in range(10):
            gens = [random_homogeneous(R3, rng.choice([2, 3]), rng) for _ in range(2)]
            a = IdealHandle(R3, gens).groebner(DRL)
            b = IdealHandle(R3, list(reversed(gens))).groebner(DRL)
            assert a.elements == b.elements

    def test_reducedness(self, suite):
        from circuitfan.order import leading_monomial

        for I in suite[:8]:
            gb = I.groebner(DRL)
            lms = [leading_monomial(g, DRL) for g in gb.elements]
            for i, g in enumerate(gb.elements):
                assert g.terms[lms[i]] == I.ring.field.one
                for j, lm in enumerate(lms):
                    if i == j:
                        continue
                    assert not any(mono_divides(lm, m) for m in g.terms)

    @staticmethod
    def not_interreduced(ring, order):
        """Generator lists that are not interreduced under the order: g1, g2
        and g1 + x*g2, and one whose tail holds another's leading monomial."""
        g1 = ring.parse("x^3 + y^2*z - 2*z^3 + x*y*z")
        g2 = ring.parse("x*y - z^2 + y^2")
        yield [g1, g2, g1 + ring.parse("x") * g2]
        # the degree-2 monomials, greatest first
        m = [ring.monomial(t) for t in sorted(monomials_of_degree(3, 2), key=order.key, reverse=True)]
        g = m[1] - m[2] + m[5]
        yield [g, m[0] + m[1].scale(Fraction(2)) - m[3], m[2] + m[4] + m[5]]

    @pytest.mark.parametrize("field", [QQ, GF, PrimeField(7)], ids=["Q", "GF32003", "GF7"])
    @pytest.mark.parametrize(
        "order",
        [LEX, DRL, weighted((3, 2, 1)), weighted((0, -1, 1))],
        ids=["lex", "drl", "w3,2,1", "w0,-1,1"],
    )
    def test_reducedness_of_redundant_generators(self, field, order):
        ring = PolyRing(("x", "y", "z"), field)
        for gens in self.not_interreduced(ring, order):
            G = buchberger_reduced(IdealHandle(ring, gens), order).elements
            lms = [leading_monomial(g, order) for g in G]
            for i, g in enumerate(G):
                assert g.terms[lms[i]] == field.one
                for j, lm in enumerate(lms):
                    if i != j:
                        assert not any(mono_divides(lm, t) for t in g.terms)
            # minimal leads: none divides another
            assert not any(
                mono_divides(a, b) for i, a in enumerate(lms) for j, b in enumerate(lms) if i != j
            )

    @pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF32003"])
    @pytest.mark.parametrize(
        "order",
        [LEX, DRL, (3, 2, 1), (0, 1, -1)],
        ids=["lex", "drl", "w3,2,1", "w0,1,-1"],
    )
    def test_groebner_certificate(self, suite, field, order):
        # holds whatever order the S-pairs were processed in
        for I in suite[:10]:
            I = over(field, I)
            o = weighted(order[: I.ring.n]) if isinstance(order, tuple) else order
            gb = I.groebner(o)
            G = gb.elements
            lms = [leading_monomial(g, o) for g in G]
            for i, g in enumerate(G):
                assert g.terms[lms[i]] == I.ring.field.one
                for j in range(i + 1, len(G)):
                    s = s_polynomial(g, G[j], o)
                    assert reference_normal_form(s, gb).is_zero()
                for j, lm in enumerate(lms):
                    assert i == j or not any(mono_divides(lm, m) for m in g.terms)

    @pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
    @pytest.mark.parametrize("order", SYMPY_ORDERS, ids=SYMPY_ORDER_IDS)
    def test_matches_sympy_groebner(self, suite, order, field):
        sympy = pytest.importorskip("sympy")
        for I in suite:
            assert_matches_sympy(sympy, over(field, I), order)


def ring_order(order, n):
    """The order itself, or the weight order of a weight prefix in n variables."""
    if isinstance(order, tuple):
        return weighted((order + (0,) * n)[:n], tie=DRL)
    return order


def sympy_order(sympy, order):
    """sympy's name for lex and degrevlex; for a weight order tied by
    degrevlex, the product of the weight and grevlex."""
    if order == LEX:
        return "lex"
    if order == DRL:
        return "grevlex"
    orderings = sympy.polys.orderings
    w = order.weight
    return orderings.ProductOrder(
        (orderings.lex, lambda m: (sum(a * e for a, e in zip(w, m)),)),
        (orderings.grevlex, lambda m: m),
    )


def assert_matches_sympy(sympy, I, order):
    """buchberger_reduced(I, order) is the reduced basis sympy.groebner
    computes under the same order; a weight prefix is padded to the ring."""
    order = ring_order(order, I.ring.n)
    field = I.ring.field
    if field == GF:
        options = {"modulus": GF.p}
        canonical = lambda terms: frozenset((m, int(c) % GF.p) for m, c in terms)
    else:
        options = {"domain": sympy.QQ}
        canonical = lambda terms: frozenset((m, sympy.Rational(c)) for m, c in terms)
    syms = sympy.symbols(I.ring.names)
    polys = [
        sympy.Poly.from_dict({m: sympy.Rational(c) for m, c in g.terms.items()}, *syms, **options)
        for g in I.generators
    ]
    reference = sympy.groebner(polys, *syms, order=sympy_order(sympy, order), **options)
    want = {canonical(p.terms()) for p in reference.polys}
    got = {canonical(g.terms.items()) for g in buchberger_reduced(I, order).elements}
    assert got == want, I


def differential_ideals(seed, count):
    """Random homogeneous ideals beyond the suite: alternately in 3 and 4
    variables, two over Q, then two over GF(32003), and so on; a quadric with
    one more generator of degree 2-4, and in 3 variables a third.  Lex bases
    of three generators in 4 variables can take sympy minutes."""
    rng = random.Random(seed)
    ideals = []
    for k in range(count):
        n = 3 + k % 2
        ring = PolyRing(("a", "b", "c", "d")[:n], (QQ, GF)[k // 2 % 2])
        degrees = [2] + [rng.choice((2, 3, 4)) for _ in range(5 - n)]
        gens = [random_homogeneous(ring, d, rng, density=0.5) for d in degrees]
        ideals.append(IdealHandle(ring, gens))
    return ideals


def katsura(n):
    """Homogenized katsura-n over Q, in u0..un and h: for m < n,
    sum over l in [-n, n] of u_|l| u_|m-l| = u_m h (u_k = 0 for k > n), and
    u0 + 2 (u1 + ... + un) = h."""
    names = tuple(f"u{i}" for i in range(n + 1)) + ("h",)
    ring = PolyRing(names)
    u = [ring.parse(v) for v in names]
    h = u.pop()
    unknown = lambda l: u[abs(l)] if abs(l) <= n else ring.zero()
    gens = [
        sum((unknown(l) * unknown(m - l) for l in range(-n, n + 1)), ring.zero()) - u[m] * h
        for m in range(n)
    ]
    gens.append(u[0] + sum(u[1:], ring.zero()).scale(Fraction(2)) - h)
    return IdealHandle(ring, gens)


def cyclic(n):
    """Homogenized cyclic-n over Q, in x0..x(n-1) and h: for k < n, the sum
    over i of x_i x_(i+1) ... x_(i+k-1) (indices mod n), and x0 ... x(n-1) = h^n."""
    names = tuple(f"x{i}" for i in range(n)) + ("h",)
    ring = PolyRing(names)
    cycle = lambda k: " + ".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n))
    gens = [ring.parse(cycle(k)) for k in range(1, n)]
    gens.append(ring.parse("*".join(names[:n]) + f" - h^{n}"))
    return IdealHandle(ring, gens)


class TestSympyDifferential:
    """Reduced bases against sympy.groebner on inputs the suite does not
    hold."""

    @pytest.mark.parametrize("order", [LEX, DRL], ids=["lex", "grevlex"])
    def test_random_ideals(self, order):
        sympy = pytest.importorskip("sympy")
        for I in differential_ideals(2031, 40):
            assert_matches_sympy(sympy, I, order)

    def test_katsura4_coefficient_growth(self):
        # the reduced grevlex basis has coefficients of ten digits over Q
        sympy = pytest.importorskip("sympy")
        assert_matches_sympy(sympy, katsura(4), DRL)


class TestHilbertDriven:
    """Buchberger skips the S-pairs of a degree d once the standard monomials
    of the leads number _quotient_floor's bound on dim (R/I)_d."""

    def test_quotient_floor_examples(self):
        # (1 + t)(1 + t + t^2) for a quadric and a cubic in 2 variables
        floor = _quotient_floor([2, 3], 2)
        assert [floor(d) for d in range(6)] == [1, 2, 2, 1, 0, 0]
        # a quadric in 3 variables: (1 + t) / (1 - t)
        assert [_quotient_floor([2], 3)(d) for d in range(4)] == [1, 3, 5, 7]
        # past n forms, and with a unit among the generators, the bound is 0
        assert [_quotient_floor([1, 1, 1], 2)(d) for d in range(4)] == [0] * 4
        assert [_quotient_floor([0, 2], 3)(d) for d in range(4)] == [0] * 4

    def test_quotient_floor_bounds_hilbert_function(self, suite):
        for I, tight in [(I, False) for I in suite] + [
            (katsura(3), True),
            (katsura(4), True),
            (cyclic(4), False),
        ]:
            floor = _quotient_floor([g.degree() for g in I.generators], I.ring.n)
            bound = tuple(floor(d) for d in range(9))
            dims = hilbert_function(I, 8).quotient_dims()
            assert all(map(operator.le, bound, dims)), I
            assert bound == dims or not tight, I

    def test_one_zero_remainder_per_armed_degree(self, monkeypatch):
        # katsura-4 under degrevlex over GF(32003): 23 S-pairs that pass the
        # coprime and chain criteria reduce to zero; the Hilbert-driven skip
        # leaves one per degree it arms, four in all
        reduce = _Kernel.reduce
        remainders = []

        def recorded(kernel, terms, reducers):
            r, scale = reduce(kernel, terms, reducers)
            remainders.append(r)
            return r, scale

        monkeypatch.setattr(_Kernel, "reduce", recorded)
        buchberger_reduced(over(GF, katsura(4)), DRL)
        assert remainders.count([]) == 4

    @pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
    @pytest.mark.parametrize("order", SYMPY_ORDERS, ids=SYMPY_ORDER_IDS)
    def test_matches_sympy_on_katsura_and_cyclic(self, order, field):
        sympy = pytest.importorskip("sympy")
        ideals = [katsura(3), cyclic(4)]
        if order == DRL:
            # sympy takes half a minute and more for katsura-4 under lex or a
            # weight; over Q it is test_katsura4_coefficient_growth
            ideals += [katsura(4)] * (field == GF)
        for I in ideals:
            assert_matches_sympy(sympy, over(field, I), order)


KERNEL_ORDERS = [
    LEX,
    DRL,
    weighted((2, -1, 0)),
    weighted((1, 0, -3), tie=weighted((0, 2, 1), tie=LEX)),
]
KERNEL_IDS = ["lex", "drl", "w2,-1,0", "w1,0,-3;w0,2,1;lex"]


def assert_packed_like_tuples(kernel, order, a, b):
    ka, kb = kernel.key(a), kernel.key(b)
    oa, ob = order.key(a), order.key(b)
    assert (ka > kb) - (ka < kb) == (oa > ob) - (oa < ob)
    divides = not (kernel.exponent(b) - kernel.exponent(a)) & kernel.guard
    assert divides == mono_divides(a, b)
    assert kernel.monomial(kernel.exponent(a)) == a


class TestPackedKernel:
    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=KERNEL_IDS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_keys_and_divisibility_match_tuples(self, order, data):
        degree = data.draw(st.integers(0, 2**40), label="largest input degree")
        kernel = _Kernel(order, PolyRing(VARS), degree)
        top = kernel.limit
        entry = st.one_of(st.integers(0, 4), st.integers(top - 4, top), st.integers(0, top))
        vector = st.tuples(entry, entry, entry)
        assert_packed_like_tuples(kernel, order, data.draw(vector), data.draw(vector))

    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=KERNEL_IDS)
    def test_keys_and_divisibility_on_corner_vectors(self, order):
        # the widest row differences: every vector with entries 0, 1, limit-1, limit
        kernel = _Kernel(order, PolyRing(VARS), 5)
        corners = list(itertools.product((0, 1, kernel.limit - 1, kernel.limit), repeat=3))
        for a in corners:
            for b in corners:
                assert_packed_like_tuples(kernel, order, a, b)

    @pytest.mark.parametrize("order", [DRL, LEX, (2, -1, 0)], ids=["drl", "lex", "w2,-1,0"])
    def test_exponent_scaling_commutes_with_reduced_bases(self, suite, order):
        # x_i -> x_i^K keeps every order here and maps the reduced basis of I
        # onto that of its image; K = 2^33 takes exponents past 32-bit fields
        K = 2**33
        for I in suite[:8]:
            ring = I.ring
            o = weighted(order[: ring.n]) if isinstance(order, tuple) else order

            def scaled(g):
                return Polynomial(ring, {tuple(K * e for e in m): c for m, c in g.terms.items()})

            big = IdealHandle(ring, [scaled(g) for g in I.generators])
            want = tuple(scaled(g) for g in buchberger_reduced(I, o).elements)
            assert buchberger_reduced(big, o).elements == want, I

    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=KERNEL_IDS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_packed_degree_is_the_digit_sum(self, order, data):
        # fields are digits in base 2^(bits+1), and a total degree up to
        # limit is their sum mod 2^(bits+1) - 1
        degree = data.draw(st.integers(0, 2**40), label="largest input degree")
        kernel = _Kernel(order, PolyRing(VARS), degree)
        top = kernel.limit
        a = data.draw(st.one_of(st.integers(0, 4), st.integers(top - 4, top), st.integers(0, top)))
        b = data.draw(st.integers(0, top - a))
        c = data.draw(st.one_of(st.just(top - a - b), st.integers(0, top - a - b)))
        m = data.draw(st.permutations((a, b, c)))
        assert kernel.degree(kernel.exponent(m)) == sum(m)

    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=KERNEL_IDS)
    def test_packed_degree_on_splits_of_limit(self, order):
        for degree in (0, 5, 2**33):
            kernel = _Kernel(order, PolyRing(VARS), degree)
            top = kernel.limit
            splits = [(top, 0, 0), (0, top, 0), (0, 0, top), (top - 1, 1, 0), (1, 0, top - 1)]
            splits += [(top // 2, top - top // 2, 0), (top // 3, top // 3, top - 2 * (top // 3))]
            splits += [(0, 0, 0), (1, 1, 1), (top - 1, 0, 0)]
            for m in splits:
                e = kernel.exponent(m)
                assert e % kernel.nines == kernel.degree(e) == sum(kernel.monomial(e)) == sum(m)

    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=KERNEL_IDS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_key_is_linear(self, order, data):
        # the kernel's rows are the keys of the unit vectors, so it orders
        # monomials as the key does only because every key entry is linear
        vector = st.tuples(*[st.integers(-(2**40), 2**40)] * 3)
        a, b = data.draw(vector), data.draw(vector)
        ka, kb = order.key(a), order.key(b)
        assert order.key(tuple(map(operator.add, a, b))) == tuple(map(operator.add, ka, kb))

    def test_fraction_weight_is_normalized(self, R):
        order = MonomialOrder("weight", weight=(Fraction(1, 2), 1), tie=DRL)
        assert order == weighted((1, 2))
        I = IdealHandle(R, [R.parse("x^2 + x*y + y^2"), R.parse("x^3 - y^3")])
        assert buchberger_reduced(I, order) == buchberger_reduced(I, weighted((1, 2)))

    def test_weight_length_must_match_ring(self, R):
        for ideal in (IdealHandle(R, [R.parse("x^2 + y^2")]), IdealHandle(R, [])):
            orders = [weighted((1,)), weighted((1, 0, 2)), weighted((1, 0), tie=weighted((1,)))]
            for order in orders:
                with pytest.raises(ValueError, match="for 2 variables"):
                    buchberger_reduced(ideal, order)
        with pytest.raises(ValueError, match="for 2 variables"):
            normal_form(R.parse("x"), GroebnerBasis(weighted((1,)), ()))

    def test_degree_past_width_raises(self, R):
        # fields fit 256 times the largest input degree: y^1200 does, y^360000
        # does not
        G = GroebnerBasis(LEX, (R.parse("x - y^600"),))
        assert normal_form(R.parse("x^2"), G) == R.parse("y^1200")
        with pytest.raises(OverflowError):
            normal_form(R.parse("x^600"), G)


class TestInitialIdeals:
    def test_initial_ideal_examples(self, R):
        I = IdealHandle(R, [R.parse("x + y"), R.parse("y")])
        assert ideal_equal(initial_ideal(I, LEX), IdealHandle(R, [R.parse("x"), R.parse("y")]))
        M = IdealHandle(R, [R.parse("x^2"), R.parse("x*y")])
        assert ideal_equal(initial_ideal(M, DRL), M)
        J = IdealHandle(R, [R.parse("x^2 - y^2"), R.parse("x*y")])
        assert ideal_equal(
            initial_ideal(J, LEX),
            IdealHandle(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^3")]),
        )

    def test_initial_ideal_w_examples(self, R):
        I = IdealHandle(R, [R.parse("x^2 + x*y + y^2")])
        assert ideal_equal(initial_ideal_w(I, (2, 1)), IdealHandle(R, [R.parse("x^2")]))
        assert ideal_equal(initial_ideal_w(I, (1, 1)), I)
        assert ideal_equal(
            initial_ideal_w(IdealHandle(R, [R.parse("x + y")]), (1, 0)),
            IdealHandle(R, [R.parse("x")]),
        )

    def test_equal_initial_forms_give_equal_initial_ideals(self, suite, suite_rng):
        # if two weights select the same initial form on every element of the
        # weight-refined reduced basis, the weight initial ideals agree
        from circuitfan.ring import initial_form_w

        rng = suite_rng
        for I in suite[:6]:
            n = I.ring.n
            w = tuple(rng.randint(-3, 3) for _ in range(n))
            w2 = tuple(rng.randint(-3, 3) for _ in range(n))
            gb = I.groebner(weighted(w, tie=DRL))
            if all(
                initial_form_w(g, w) == initial_form_w(g, w2) for g in gb.elements
            ):
                assert ideal_equal(initial_ideal_w(I, w), initial_ideal_w(I, w2))


def random_orders(rng, n, count):
    """Weight orders with entries in [-3, 3], ties alternating DRL and LEX."""
    return [
        weighted(tuple(rng.randint(-3, 3) for _ in range(n)), tie=(DRL, LEX)[k % 2])
        for k in range(count)
    ]


def fresh(I):
    """A handle on the same generators with an empty basis cache."""
    return IdealHandle(I.ring, I.generators)


@pytest.fixture
def buchberger_calls(monkeypatch):
    """The orders of the Buchberger runs made through IdealHandle.groebner."""
    from circuitfan import groebner

    calls = []

    def counted(ideal, order):
        calls.append(order)
        return buchberger_reduced(ideal, order)

    monkeypatch.setattr(groebner, "buchberger_reduced", counted)
    return calls


class TestBasisCache:
    """IdealHandle.groebner answers from cached bases where it can; every
    answer must be the basis Buchberger computes on a fresh handle."""

    @pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF32003"])
    def test_warm_cache_matches_fresh_buchberger(self, suite, field, buchberger_calls):
        rng = random.Random(5)
        misses = 0
        for I in suite[:10]:
            I = fresh(over(field, I))
            # from the fourth order on, the cache holds at least three bases
            for order in random_orders(rng, I.ring.n, 8):
                misses += order not in I._cache
                gb = I.groebner(order)
                assert gb.elements == buchberger_reduced(fresh(I), order).elements, (I, order)
                # the leading monomials that Buchberger or the reuse test recorded
                assert gb.leads == tuple(leading_monomial(g, order) for g in gb.elements)
        # some misses were answered without Buchberger, so the shortcut ran
        assert len(buchberger_calls) < misses

    @pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF32003"])
    def test_seeded_initial_ideal_matches_fresh_buchberger(self, suite, field):
        rng = random.Random(6)
        for I in suite[:10]:
            I = fresh(over(field, I))
            for order in random_orders(rng, I.ring.n, 4):
                J = initial_ideal_w(I, order.weight, tie=order.tie)
                for target in (order.tie, CANONICAL):
                    want = buchberger_reduced(fresh(J), target).elements
                    assert J.groebner(target).elements == want, (I, order, target)
                # the seeded basis carries the leads of the elements it came from
                seeded = J.groebner(order.tie)
                leads = tuple(leading_monomial(g, order.tie) for g in seeded.elements)
                assert seeded.leads == leads, (I, order)

    @pytest.mark.parametrize("order", [LEX, DRL, weighted((0, 1, 2), LEX)], ids=str)
    def test_leads_read_off_when_omitted(self, suite, order):
        # a hand-built basis reads the leads a Buchberger run passes, and the
        # leads take no part in equality or hashing
        for I in suite[:6]:
            if I.ring.n != 3:
                continue
            gb = buchberger_reduced(fresh(I), order)
            bare = GroebnerBasis(order, gb.elements)
            assert bare.leads == gb.leads, (I, order)
            wrong = GroebnerBasis(order, gb.elements, tuple(reversed(gb.leads)))
            assert bare == gb == wrong
            assert hash(bare) == hash(gb) == hash(wrong)

    def test_changed_leading_monomial_is_not_reused(self, R):
        I = IdealHandle(R, [R.parse("x^2 - y^2")])
        assert I.groebner(DRL).elements == (R.parse("x^2 - y^2"),)
        gb = I.groebner(weighted((0, 1)))
        assert gb.elements == (R.parse("y^2 - x^2"),)
        assert leading_term(gb.elements[0], gb.order) == ((0, 2), 1)

    @pytest.mark.parametrize("warm, tie", [(LEX, DRL), (DRL, LEX)])
    def test_tie_decides_where_the_weight_ties(self, warm, tie):
        # the weight (1, 1, 1) gives both terms of x*z - y^2 the same value,
        # so the tie picks the leading monomial: x*z under lex, y^2 under drl
        ring = PolyRing(VARS)
        I = IdealHandle(ring, [ring.parse("x*z - y^2")])
        I.groebner(warm)
        order = weighted((1, 1, 1), tie)
        assert I.groebner(order).elements == buchberger_reduced(fresh(I), order).elements
        assert I.groebner(order).elements == I.groebner(tie).elements != I.groebner(warm).elements

    def test_tied_weight_reuses_the_tie_basis(self, buchberger_calls):
        ring = PolyRing(VARS)
        I = IdealHandle(ring, [ring.parse("x*z - y^2")])
        I.groebner(DRL)
        assert I.groebner(weighted((1, 1, 1), DRL)).elements == (ring.parse("y^2 - x*z"),)
        assert buchberger_calls == [DRL]

    def test_warm_handle_rejects_wrong_weight_length(self):
        ring = PolyRing(VARS)
        I = IdealHandle(ring, [ring.parse("x*z - y^2")])
        I.groebner(DRL)
        with pytest.raises(ValueError):
            I.groebner(weighted((1, 1), DRL))

    def test_initial_ideal_costs_one_buchberger_run(self, R, buchberger_calls):
        I = IdealHandle(R, [R.parse("x^2 + x*y + y^2"), R.parse("x*y^2 - y^3")])
        J = initial_ideal_w(I, (2, 1))
        J.groebner()
        assert buchberger_calls == [weighted((2, 1))]


class TestIdealEqual:
    def test_examples(self, R):
        assert ideal_equal(
            IdealHandle(R, [R.parse("x + y"), R.parse("y")]),
            IdealHandle(R, [R.parse("x"), R.parse("y")]),
        )
        sq = [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")]
        assert not ideal_equal(
            IdealHandle(R, [R.parse("x + y")] + sq),
            IdealHandle(R, [R.parse("x - y")] + sq),
        )
        assert not ideal_equal(
            IdealHandle(R, [R.parse("x")]), IdealHandle(R, [R.parse("x^2")])
        )


class TestHilbert:
    def test_square_ideal(self, R):
        I = IdealHandle(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
        H = hilbert_function(I, 4)
        assert H.quotient_dims() == (1, 2, 0, 0, 0)

    def test_principal_xy(self, R):
        I = IdealHandle(R, [R.parse("x*y")])
        H = hilbert_function(I, 5)
        assert H.ideal_dims == (0, 0, 1, 2, 3, 4)

    def test_zero_ideal(self, R):
        H = hilbert_function(IdealHandle(R, []), 3)
        assert H.ideal_dims == (0, 0, 0, 0)

    @pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF32003"])
    def test_matches_divisibility_scan_on_suite(self, suite, field):
        # n + 3 degrees past the lex bound D
        for I in suite:
            I = over(field, I)
            dmax = lex_bound(I)[1] + I.ring.n + 3
            assert hilbert_function(I, dmax).ideal_dims == ideal_dims_reference(I, dmax), I

    @pytest.mark.parametrize(
        "names, gens, dmax",
        [
            (("x", "y", "z"), ["x^5 - y^4*z", "y^5 - x*z^4"], 60),
            (("x", "y"), [], 8),
            (("x", "y", "z"), ["1"], 8),
            # past 511, the limit of a kernel sized for the leads' degree 1
            (("x", "y"), ["x"], 600),
        ],
        ids=["x5-pair", "zero", "unit", "x-to-600"],
    )
    def test_matches_divisibility_scan(self, names, gens, dmax):
        ring = PolyRing(names)
        I = IdealHandle(ring, [ring.parse(g) for g in gens])
        assert hilbert_function(I, dmax).ideal_dims == ideal_dims_reference(I, dmax)

    def test_standard_levels_stop_at_the_packing_limit(self, R):
        # (x) has one standard monomial, y^d, in every degree d the packing
        # holds; the next degree would wrap into the guard bits
        K = _Kernel(DRL, R, 1)
        levels = _standard_levels(K, [K.exponent((1, 0))])
        assert [len(level) for level in itertools.islice(levels, K.limit + 1)] == [1] * (K.limit + 1)
        with pytest.raises(OverflowError):
            next(levels)

    def test_preserved_by_initial_ideals(self, suite, suite_rng):
        rng = suite_rng
        for I in suite[:8]:
            H = hilbert_function(I, 6)
            assert hilbert_function(initial_ideal(I, LEX), 6).ideal_dims == H.ideal_dims
            w = tuple(rng.randint(-3, 3) for _ in range(I.ring.n))
            assert (
                hilbert_function(initial_ideal_w(I, w), 6).ideal_dims == H.ideal_dims
            )


class TestLexSegment:
    def test_xy(self, R):
        I = IdealHandle(R, [R.parse("x*y")])
        H = hilbert_function(I, 6)
        L, D = lex_segment(H, R, 6)
        assert [poly_str(g) for g in L.generators] == ["x^2"]
        assert D == 2

    def test_two_generators(self, R):
        I = IdealHandle(R, [R.parse("x^2"), R.parse("x*y")])
        H = hilbert_function(I, 6)
        L, D = lex_segment(H, R, 6)
        assert {poly_str(g) for g in L.generators} == {"x^2", "x*y"}
        assert D == 2

    def test_zero(self, R):
        H = hilbert_function(IdealHandle(R, []), 4)
        L, D = lex_segment(H, R, 4)
        assert not L.generators and D == 0

    def test_same_hilbert_function(self, suite):
        for I in suite[:6]:
            L, D = lex_bound(I)
            cap = max(D, 4)
            assert (
                hilbert_function(L, cap).ideal_dims
                == hilbert_function(I, cap).ideal_dims
            )

    @pytest.mark.parametrize(
        "names, gens",
        [
            (("x", "y"), ["x^2", "y^7"]),
            (("x", "y", "z"), ["x^2", "z^4"]),
            (("a", "b", "c", "d"), ["a*b - c*d", "a^2 - b*c"]),
            (("x", "y"), []),
            (("x", "y", "z"), ["1"]),
            (("x", "y", "z"), ["x"]),
            (("x", "y", "z"), ["x*y", "y*z", "x*z"]),
        ],
        ids=["x2-y7", "x2-z4", "pair", "zero", "unit", "x", "xy-yz-xz"],
    )
    def test_persistence_matches_longer_window(self, names, gens):
        ring = PolyRing(names)
        self.check_against_longer_window(IdealHandle(ring, [ring.parse(g) for g in gens]))

    def test_persistence_matches_longer_window_on_suite(self, suite):
        for I in suite:
            self.check_against_longer_window(I)

    @staticmethod
    def check_against_longer_window(I):
        # reading n + 2 degrees past D + 1 exposes a certificate that stopped early
        L, D = lex_bound(I)
        window = D + I.ring.n + 3
        L2, D2 = lex_segment(hilbert_function(I, window), I.ring, window)
        assert L.generators == L2.generators
        assert D == D2

    def test_cap_checked_against_certified_bound(self, suite):
        # a cap past D gives the uncapped answer, and a cap in 1..D raises
        # with the message of the read that stops at the cap
        R3 = PolyRing(("x", "y", "z"))
        pair = IdealHandle(R3, [R3.parse("x^5 - y^4*z"), R3.parse("y^5 - x*z^4")])
        zero = IdealHandle(PolyRing(("x", "y")), [])
        for I in [*suite, pair, zero]:
            L, D = lex_bound(I)
            H = hilbert_function(I, D + 3)
            for cap in range(1, D + 4):
                expected = self.read_to_cap(I, H, cap)
                if cap > D:
                    L2, D2 = lex_bound(I, cap)
                    assert (L2.generators, D2) == expected == (L.generators, D)
                else:
                    with pytest.raises(CapTooSmallError) as err:
                        lex_bound(I, cap)
                    assert str(err.value) == expected

    @staticmethod
    def read_to_cap(I, H, cap):
        """(generators, D) or the CapTooSmallError message of a read of the
        Hilbert data H up to cap: lex_segment, then the check that cap
        passes the top generator degree of in(I)."""
        delta = max((g.degree() for g in I.groebner().elements), default=0)
        try:
            L, D = lex_segment(H, I.ring, cap)
        except CapTooSmallError as e:
            return str(e)
        if cap <= delta:
            return f"in(I) has generators in degree {delta}; increase cap beyond {delta}"
        return L.generators, D

    def test_macaulay_violation(self, R):
        from circuitfan.groebner import HilbertData

        bad = HilbertData(2, (0, 2, 1, 0))
        with pytest.raises(MacaulayError):
            lex_segment(bad, R, 3)
        # degree 1 has two monomials
        with pytest.raises(MacaulayError, match="dim 5 out of range in degree 1"):
            lex_segment(HilbertData(2, (0, 5, 3)), R, 2)

    def test_dmax_is_read_off_the_dims(self, R):
        from circuitfan.groebner import HilbertData

        H = HilbertData(2, (0, 1, 3, 4))
        # data for degrees 0..3
        assert len(H.ideal_dims) == 4
        # the data of (x, y^2): y^2 comes in degree 2, so cap 2 is too small
        # and cap 3 reads the segment
        with pytest.raises(CapTooSmallError):
            lex_segment(H, R, 2)
        L, D = lex_segment(H, R, 3)
        assert [poly_str(g) for g in L.generators] == ["x", "y^2"] and D == 2
        # degrees 3 and 4 of the data are missing
        with pytest.raises(ValueError, match="cap exceeds the available Hilbert data"):
            lex_segment(HilbertData(2, (0, 1, 3)), R, 4)

    def test_data_for_another_ring_rejected(self, R):
        H = hilbert_function(IdealHandle(R, [R.parse("x^2"), R.parse("y^2")]), 4)
        R3 = PolyRing(("x", "y", "z"))
        with pytest.raises(ValueError, match="Hilbert data in 2 variables for a ring in 3"):
            lex_segment(H, R3, 3)

    def test_cap_too_small(self, R):
        I = IdealHandle(R, [R.parse("x*y")])
        H = hilbert_function(I, 2)
        with pytest.raises(CapTooSmallError):
            lex_segment(H, R, 2)

    def test_cap_not_past_initial_generators(self, R):
        # degrees 0..2 bring no lex generator, but the cap does not pass the
        # top generator degree 3 of in(I), so nothing is certified
        I = IdealHandle(R, [R.parse("x^3"), R.parse("y^3")])
        lex_segment(hilbert_function(I, 2), R, 2)
        with pytest.raises(CapTooSmallError) as err:
            lex_bound(I, 2)
        assert str(err.value) == "in(I) has generators in degree 3; increase cap beyond 3"


class TestFlatFamily:
    def test_homogenized_generator(self, R):
        I = IdealHandle(R, [R.parse("x^2 + x*y")])
        H = homogenize_ideal_w(I, (1, 0))
        assert [poly_str(g) for g in H.generators] == ["x*y*t + x^2"]

    def test_specializations(self, R):
        I = IdealHandle(R, [R.parse("x^2 + x*y")])
        H = homogenize_ideal_w(I, (1, 0))
        assert ideal_equal(specialize_t(H, Fraction(1)), I)
        assert ideal_equal(specialize_t(H, Fraction(0)), initial_ideal_w(I, (1, 0)))
        D2 = diagonal_change(R, (1, 0), Fraction(2))
        assert ideal_equal(specialize_t(H, Fraction(2)), transform_ideal(D2, I))

    def test_family_contract_random(self, suite, suite_rng):
        rng = suite_rng
        for I in suite[:5]:
            w = tuple(rng.randint(-2, 2) for _ in range(I.ring.n))
            H = homogenize_ideal_w(I, w)
            fld = I.ring.field
            assert ideal_equal(specialize_t(H, fld.one), I)
            assert ideal_equal(specialize_t(H, fld.zero), initial_ideal_w(I, w))
            for a in (Fraction(2), Fraction(3)):
                Da = diagonal_change(I.ring, w, a)
                assert ideal_equal(specialize_t(H, a), transform_ideal(Da, I))


class TestFileFormat:
    def test_roundtrip(self, R):
        I = IdealHandle(R, [R.parse("x^2 + 1/2*x*y"), R.parse("y^2")])
        text = ideal_file_text(I)
        ring2, J = parse_ideal_file(text)
        assert ring2 == R
        assert ideal_equal(I, J)

    def test_gf_header(self):
        text = "ring: GF(7); vars: x,y\ngens:\n3*x^2 + y^2\n"
        ring, I = parse_ideal_file(text)
        assert ring.field.p == 7
        assert len(I.generators) == 1

    def test_missing_header(self):
        with pytest.raises(ValueError):
            parse_ideal_file("gens:\nx\n")

    def test_basis_json(self, R):
        gb = IdealHandle(R, [R.parse("x + y"), R.parse("y")]).groebner(LEX)
        doc = basis_json(gb)
        assert doc == {"order": "lex", "elements": ["y", "x"], "reduced": True}
