from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuitfan import (
    BorelOmegaElement,
    IdealHandle,
    PolyRing,
    Polynomial,
    PrimeField,
    QQ,
    Substitution,
    enumerate_fan,
    field_from_spec,
    homogenize_ideal_w,
    homogenize_w,
    initial_form_w,
    make_weight,
    newton_fan_oracle,
    poly_str,
    specialize_t,
    universal_basis,
    weight_value,
)
from circuitfan.ring import specialize_last

from oracles import diagonal_change, inverse_reference, substitution_apply_reference


@pytest.fixture
def R():
    return PolyRing(("x", "y"))


class TestFields:
    def test_prime_field_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(32004)

    def test_large_prime_modulus(self):
        # a 20-digit prime: trial division would not finish
        R = PolyRing(("x",), field_from_spec("GF(100000000000000000039)"))
        third = R.parse("1/3*x")
        assert third.scale(Fraction(3)) == third + third + third == R.parse("x")

    def test_carmichael_modulus_rejected(self):
        # 561 fools Fermat's test; 3215031751 is a strong pseudoprime to the
        # bases 2, 3, 5 and 7
        for n in (561, 3215031751):
            with pytest.raises(ValueError, match="not prime"):
                PrimeField(n)

    def test_modulus_beyond_certified_range_rejected(self):
        # the least strong pseudoprime to all thirteen Miller-Rabin bases
        with pytest.raises(ValueError, match="too large"):
            PrimeField(3317044064679887385961981)
        with pytest.raises(ValueError, match="too large"):
            PrimeField(2**89 - 1)

    def test_gf2_is_allowed(self):
        # char 2 is a legitimate field even though several rational-field
        # identities degenerate there
        R = PolyRing(("x",), PrimeField(2))
        x = R.parse("x")
        assert (x + x).is_zero()
        assert R.parse("1 + 1").is_zero()

    def test_field_spec_parsing(self):
        assert field_from_spec("Q") == QQ
        assert field_from_spec("gf:32003").p == 32003
        assert field_from_spec("GF(7)").p == 7
        with pytest.raises(ValueError):
            field_from_spec("R")


class TestArithmetic:
    def test_cancellation(self, R):
        x, y = R.parse("x"), R.parse("y")
        assert (x + y) + (-y) == x

    def test_product_identity(self, R):
        assert R.parse("x+y") * R.parse("x-y") == R.parse("x^2-y^2")

    def test_characteristic(self):
        R3 = PolyRing(("x", "y"), PrimeField(3))
        assert (R3.parse("2*x") + R3.parse("x")).is_zero()

    def test_ring_mismatch(self, R):
        other = PolyRing(("x", "z"))
        with pytest.raises(ValueError):
            R.parse("x") + other.parse("x")


class TestCoefficientInvariant:
    """Polynomial stores every coefficient reduced: over GF(p) an int in
    [1, p), with multiples of p dropped; over Q nonzero."""

    @pytest.mark.parametrize("p", [7, 2])
    def test_unreduced_coefficients_equal_their_residues(self, p):
        R = PolyRing(("x", "y"), PrimeField(p))
        x, y = R.parse("x"), R.parse("y")
        for c in (1 + p, 1 - p, 1 + 5 * p, -(p - 1)):
            f = Polynomial(R, {(1, 0): c})
            assert f == x
            assert hash(f) == hash(x)
            assert poly_str(f) == "x"
            assert f.terms == {(1, 0): 1}
        g = Polynomial(R, {(1, 0): -1, (0, 1): 3 * p, (1, 1): 0})
        assert g == -x
        assert poly_str(g) == poly_str(-x)
        assert g.terms == {(1, 0): p - 1}
        assert Polynomial(R, {(1, 0): 8 * p, (0, 1): -p}).is_zero()
        assert (Polynomial(R, {(0, 1): p + 1}) - y).is_zero()

    @pytest.mark.parametrize("p", [7, 5])
    def test_fraction_coefficients_are_residues(self, p):
        # a/b is a * b^-1 mod p, as the parser reads "a/b"; p | b has no
        # residue
        R = PolyRing(("x", "y"), PrimeField(p))
        x = R.parse("x")
        for c in (Fraction(1, 2), Fraction(-3, 4), Fraction(9, 8), Fraction(3), Fraction(-1, 3)):
            expected = R.parse(f"{c.numerator}/{c.denominator}*x")
            for f in (Polynomial(R, {(1, 0): c}), x.scale(c)):
                assert f == expected
                assert hash(f) == hash(expected)
                assert poly_str(f) == poly_str(expected)
                assert all(type(v) is int for v in f.terms.values())
        assert Polynomial(R, {(1, 0): Fraction(4 * p, 2), (0, 1): Fraction(-p)}).is_zero()
        assert Polynomial(R, {(1, 0): Fraction(1, 2)}) == R.parse(f"{(p + 1) // 2}*x")
        for c in (Fraction(1, p), Fraction(3, 2 * p)):
            with pytest.raises(ValueError):
                Polynomial(R, {(1, 0): c})
            with pytest.raises(ValueError):
                x.scale(c)

    def test_rational_zeros_dropped(self, R):
        f = Polynomial(R, {(1, 0): Fraction(0), (0, 1): 0, (1, 1): Fraction(3, 2)})
        assert f.terms == {(1, 1): Fraction(3, 2)}
        assert f == R.parse("3/2*x*y")

    def test_rational_library_coefficients_are_fractions(self, R):
        # over Q the field's zero and one are Fractions, so the coefficients
        # the library makes are too, and dividing two of them never gives a
        # float
        f = R.parse("x + 2*y")
        I = IdealHandle(R, [R.parse("x^2 + 3*x*y"), R.parse("2*y^2")])
        H = homogenize_ideal_w(I, (1, 0))
        made = [f, R.monomial((1, 1)), Substitution(R, ((1, 0), (0, 1))).apply(f)]
        made += specialize_t(H, QQ.one).generators + specialize_t(H, QQ.zero).generators
        made += universal_basis(I, enumerate_fan(I, 2))
        assert all(type(c) is Fraction for g in made for c in g.terms.values())
        # the oracle prints monic forms: an int leading coefficient is
        # inverted as a Fraction
        sketch = newton_fan_oracle(Polynomial(R, {(2, 0): 2, (1, 1): 3, (0, 2): -4}), 2)
        assert {c.initial_basis for c in sketch.cells} == {("x^2",), ("x^2 + 3/2*x*y - 2*y^2",), ("y^2",)}


class TestGrammar:
    def test_example_form(self, R3z=PolyRing(("x", "y", "z"))):
        f = R3z.parse("x^2*y - 3/2*z^3")
        assert f.terms[(2, 1, 0)] == 1
        assert f.terms[(0, 0, 3)] == Fraction(-3, 2)

    def test_serialize_parse_identity(self, R):
        for text in ["x^2*y - 3/2*y^3", "x", "-x + y", "2", "x^2 + 2*x*y + y^2"]:
            f = R.parse(text)
            assert R.parse(poly_str(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.fractions(min_value=-10, max_value=10),
            max_size=6,
        )
    )
    def test_roundtrip_random(self, terms):
        R = PolyRing(("x", "y"))
        f = Polynomial(R, {m: Fraction(c) for m, c in terms.items()})
        assert R.parse(poly_str(f)) == f

    def test_gf_serialization_roundtrip(self):
        R = PolyRing(("x", "y"), PrimeField(7))
        f = R.parse("3*x^2 - x*y + 5/2*y^2")
        assert R.parse(poly_str(f)) == f

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("", "empty polynomial text"),
            ("x+", "cannot parse polynomial 'x+'"),
            ("x**2", "bad term '+x**2'"),
            ("x^a", "bad exponent in 'x^a'"),
            ("w", "unknown variable 'w'"),
            # a signed exponent stays in its term and is named whole
            ("x^-1*y", "bad exponent in 'x^-1'"),
            ("x^+2", "bad exponent in 'x^+2'"),
        ],
    )
    def test_errors_name_the_reason(self, R, text, reason):
        with pytest.raises(ValueError) as e:
            R.parse(text)
        assert str(e.value) == reason


class TestWeights:
    def test_weight_value(self):
        assert weight_value((2, 1), (2, 1)) == 5
        assert weight_value((1, 1), (0, 0)) == 0
        assert weight_value((1, 1), (1, -1)) == 0

    def test_make_weight_clears_denominators(self):
        assert make_weight([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
        assert make_weight([1, -1]) == (1, -1)
        assert make_weight([2, Fraction(-1, 4), "5/6"]) == (24, -3, 10)
        assert make_weight([]) == ()
        # bools are not ints: they take the Fraction path and come out as ints
        assert [type(x) for x in make_weight([True, 2])] == [int, int]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weight_value((1, 2, 3), (1, 0))


class TestInitialForm:
    def test_unique_max(self, R):
        f = R.parse("x^2 + x*y + y^2")
        assert initial_form_w(f, (2, 1)) == R.parse("x^2")

    def test_uniform_weight_fixes_homogeneous(self, R):
        f = R.parse("x^2 + x*y + y^2")
        assert initial_form_w(f, (1, 1)) == f

    def test_tie_keeps_both(self, R):
        f = R.parse("x + y")
        assert initial_form_w(f, (1, 1)) == f

    def test_zero_rejected(self, R):
        with pytest.raises(ValueError):
            initial_form_w(R.zero(), (1, 0))

    def test_all_ones_shift_invariance(self, R):
        f = R.parse("2*x^3 - x^2*y + y^3")
        for c in (-2, 1, 5):
            w = (3, 1)
            shifted = tuple(e + c for e in w)
            assert initial_form_w(f, w) == initial_form_w(f, shifted)


class TestHomogenize:
    def test_formula(self, R):
        f = R.parse("x^2 + x*y")
        Rt = R.extended()
        assert homogenize_w(f, (1, 0), Rt) == Rt.parse("x^2 + x*y*t")

    def test_fractional_weight_gives_int_exponents(self, R):
        # (1/2, 1) is the weight (1, 2) scaled: the same homogenization, not
        # powers t^(1/2)
        f = R.parse("x^2 + x*y - y^2")
        Rt = R.extended()
        ft = homogenize_w(f, (Fraction(1, 2), 1), Rt)
        assert ft == homogenize_w(f, (1, 2), Rt)
        assert all(type(e) is int for m in ft.terms for e in m)

    def test_extended_ring_refuses_a_declared_t(self):
        with pytest.raises(ValueError, match="already declared"):
            PolyRing(("x", "t")).extended()

    def test_weight_homogeneous_input_unchanged(self, R):
        f = R.parse("x^2 + x*y")
        ft = homogenize_w(f, (1, 1), R.extended())
        assert all(m[-1] == 0 for m in ft.terms)

    def test_specializations(self, R):
        f = R.parse("x^2 + x*y")
        ft = homogenize_w(f, (1, 0), R.extended())
        assert specialize_last(ft, Fraction(1), R) == f
        assert specialize_last(ft, Fraction(0), R) == initial_form_w(f, (1, 0))


SUBSTITUTION_FIELDS = (QQ, PrimeField(2), PrimeField(32003))


@st.composite
def substitution_cases(draw):
    """A ring of 1-3 variables, a square matrix and a polynomial of mixed
    degrees.  Over Q the entries mix ints and fractions
    (1/2 and -3/7 among them); over GF(p) they are ints in [-2p, 2p], so
    negative and unreduced."""
    fld = draw(st.sampled_from(SUBSTITUTION_FIELDS))
    n = draw(st.integers(1, 3))
    ring = PolyRing(("x", "y", "z")[:n], fld)
    p = fld.characteristic
    if p:
        entry = st.integers(-2 * p, 2 * p)
        coeff = st.integers(0, p - 1)
    else:
        entry = st.one_of(
            st.integers(-9, 9),
            st.sampled_from([Fraction(1, 2), Fraction(-3, 7)]),
            st.fractions(-10, 10, max_denominator=12),
        )
        coeff = st.fractions(-20, 20, max_denominator=9)
    row = st.lists(entry, min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=n, max_size=n))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exponents, coeff, max_size=5))
    return ring, matrix, Polynomial(ring, terms)


class TestSubstitution:
    def test_row_action_binomial(self, R):
        s = Substitution(R, [[1, 1], [0, 1]])
        assert s.apply(R.parse("x^2")) == R.parse("x^2 + 2*x*y + y^2")

    def test_diagonal_change(self, R):
        s = diagonal_change(R, (1, 0), Fraction(2))
        assert s.apply(R.parse("x*y")) == R.parse("1/2*x*y")

    def test_row_matrix_arithmetic(self, R):
        s = Substitution(R, [[1, 2], [3, 4]])
        assert s.apply(R.parse("x + y")) == R.parse("4*x + 6*y")

    def test_singular_rejected(self, R):
        with pytest.raises(ValueError):
            Substitution(R, [[1, 1], [2, 2]])
        with pytest.raises(ValueError, match="singular"):
            Substitution(R, [[Fraction(1, 2), Fraction(-3, 7)], [Fraction(7, 6), -1]])
        # the determinant 7 vanishes only modulo 7
        R7 = PolyRing(("x", "y"), PrimeField(7))
        with pytest.raises(ValueError, match="singular"):
            Substitution(R7, [[1, 2], [-3, 1]])
        Substitution(R7, [[1, 2], [-3, 2]])

    def test_fraction_entries_over_prime_field(self):
        # entries are stored as residues, by Polynomial's rule: 7/2 is 0 mod
        # 7, 1/2 is 4, and 1/7 has no residue
        R7 = PolyRing(("x", "y"), PrimeField(7))
        x = R7.parse("x")
        with pytest.raises(ValueError, match="singular"):
            Substitution(R7, [[Fraction(7, 2), 0], [0, 1]])
        with pytest.raises(ValueError):
            Substitution(R7, [[Fraction(1, 7), 0], [0, 1]])
        s = Substitution(R7, [[Fraction(1, 2), 0], [0, Fraction(-6)]])
        assert s.matrix == ((4, 0), (0, 1))
        assert s.apply(x) == R7.parse("4*x") == x.scale(Fraction(1, 2))
        inv = Substitution(R7, inverse_reference(s.matrix, 7))
        assert inv.matrix == ((2, 0), (0, 1))
        assert inv.apply(s.apply(x)) == x

    def test_homogeneity_preserved(self, R):
        s = Substitution(R, [[1, 2], [3, 4]])
        g = s.apply(R.parse("x^3 - x*y^2"))
        assert g.is_homogeneous() and g.degree() == 3

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-5, 5),
            min_size=1,
            max_size=4,
        ),
    )
    def test_inverse_roundtrip(self, entries, terms):
        for fld in (QQ, PrimeField(32003)):
            R = PolyRing(("x", "y"), fld)
            p = fld.characteristic
            a, b, c, d = (Fraction(e) for e in entries)
            det = a * d - b * c
            if (det % p if p else det) == 0:
                continue
            s = Substitution(R, [[a, b], [c, d]])
            f = Polynomial(R, {m: Fraction(v) for m, v in terms.items()})
            inv = Substitution(R, inverse_reference(s.matrix, p))
            assert inv.apply(s.apply(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(substitution_cases())
    @example((PolyRing(("x", "y")), [[Fraction(1, 2), 1], [Fraction(-3, 7), 2]],
              PolyRing(("x", "y")).parse("x^2*y - 3/2*x + 5/4")))
    def test_apply_matches_term_by_term_expansion(self, case):
        ring, matrix, f = case
        fld = ring.field
        if inverse_reference(matrix, fld.characteristic) is None:
            with pytest.raises(ValueError, match="singular"):
                Substitution(ring, matrix)
            return
        s = Substitution(ring, matrix)
        g = s.apply(f)
        assert g == substitution_apply_reference(s, f)
        if fld.characteristic:
            assert all(0 < c < fld.characteristic for c in g.terms.values())
        else:
            assert all(type(c) is Fraction for c in g.terms.values())

    @pytest.mark.parametrize("fld", SUBSTITUTION_FIELDS, ids=str)
    def test_apply_to_constant_and_zero(self, fld):
        R = PolyRing(("x", "y"), fld)
        # a matrix and its transpose
        for matrix in ([[3, -1], [2, 5]], [[3, 2], [-1, 5]]):
            s = Substitution(R, matrix)
            for text in ("0", "3", "3 + x", "x*y^2 - 5"):
                f = R.parse(text)
                assert s.apply(f) == substitution_apply_reference(s, f)
            assert s.apply(R.parse("3")) == R.parse("3")

    def test_apply_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        R = PolyRing(("x", "y", "z"))
        syms = sympy.symbols(R.names)

        def expr(f):
            return sum(
                sympy.Rational(c) * sympy.Mul(*(v**e for v, e in zip(syms, m)))
                for m, c in f.terms.items()
            )

        cases = [
            ([[1, Fraction(1, 2), 0], [Fraction(-3, 7), 2, 1], [0, 1, 5]], "x^2*y - 3/2*z + 7"),
            # the transpose of [[2, 0, -3/7], [1, 1, 0], [1/2, 0, 3]]
            ([[2, 1, Fraction(1, 2)], [0, 1, 0], [Fraction(-3, 7), 0, 3]], "x*y*z + y^3 - 1/3*x"),
            ([[0, 1, 0], [Fraction(5, 4), 0, 1], [1, 0, Fraction(-1, 2)]], "z^4 - x^2*y^2 + 2/5*y"),
        ]
        for matrix, text in cases:
            s = Substitution(R, matrix)
            f = R.parse(text)
            images = {v: sum(sympy.Rational(c) * u for c, u in zip(matrix[k], syms)) for k, v in enumerate(syms)}
            expected = expr(f).subs(images, simultaneous=True).expand()
            assert sympy.expand(expr(s.apply(f)) - expected) == 0

    def test_column_convention(self, R):
        s = BorelOmegaElement((1, 0), ((1, 5), (0, 1)), QQ).as_substitution(R)
        # a Borel element acts by columns: the second variable goes into the first
        assert s.apply(R.parse("y")) == R.parse("5*x + y")
        assert s.apply(R.parse("x")) == R.parse("x")
