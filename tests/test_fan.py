import itertools
import random
from fractions import Fraction

import pytest

from circuitfan import (
    CANONICAL,
    DRL,
    LEX,
    IdealHandle,
    PolyRing,
    RandomSpec,
    buchberger_reduced,
    cone_of,
    enumerate_fan,
    generic_fan_compare,
    hilbert_function,
    ideal_equal,
    initial_ideal_w,
    newton_fan_oracle,
    universal_basis,
    weight_equiv,
    weighted,
)
from circuitfan.fan import Cone, FanConsistencyError
from circuitfan.groebner import lex_bound
from circuitfan.ring import QQ, PrimeField, initial_form_w, initial_support_w, poly_str

from conftest import over, random_homogeneous


@pytest.fixture
def R():
    return PolyRing(("x", "y"))


class TestWeightEquiv:
    def test_examples(self, R):
        I = IdealHandle(R, [R.parse("x^2 + x*y + y^2")])
        assert weight_equiv(I, (2, 1), (3, 1))
        assert not weight_equiv(I, (2, 1), (1, 2))
        assert not weight_equiv(I, (2, 1), (1, 1))

    def test_matches_ideal_equality(self, suite, suite_rng):
        rng = suite_rng
        outcomes = set()
        for I in suite[:6]:
            n = I.ring.n
            w = tuple(rng.randint(-3, 3) for _ in range(n))
            # a random pair is almost never equivalent; 2w + 3*(1,...,1) always is
            for w2 in (tuple(rng.randint(-3, 3) for _ in range(n)), tuple(2 * x + 3 for x in w)):
                equiv = weight_equiv(I, w, w2)
                assert equiv == ideal_equal(initial_ideal_w(I, w), initial_ideal_w(I, w2))
                outcomes.add(equiv)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("gen", ["x*y", "x^2 + y^2"])
    def test_rejects_wrong_length(self, R, gen):
        I = IdealHandle(R, [R.parse(gen)])
        with pytest.raises(ValueError):
            weight_equiv(I, (1, 2), (1, 2, 3))

    def test_reflexive_and_shift_invariant(self, suite):
        for I in suite[:5]:
            n = I.ring.n
            w = tuple(range(n, 0, -1))
            assert weight_equiv(I, w, w)
            assert weight_equiv(I, w, tuple(x + 7 for x in w))


    def test_independent_of_the_tie(self, suite):
        # the cell of w is one relative interior whichever order breaks ties
        grid = list(itertools.product(range(3), repeat=3))
        for I in suite:
            if I.ring.n != 3:
                continue
            for w in grid:
                cone = cone_of(I, w, LEX)
                assert [weight_equiv(I, w, w2) for w2 in grid] == [
                    cone.contains(w2, strict=True) for w2 in grid
                ]


class TestConeOf:
    def test_interior_weight(self, R):
        I = IdealHandle(R, [R.parse("x^2 + x*y + y^2")])
        cone = cone_of(I, (2, 1))
        assert cone.contains((2, 1), strict=True)
        assert cone.contains((5, 1), strict=True)
        assert cone.contains((1, 1))
        assert not cone.contains((1, 1), strict=True)
        assert not cone.contains((1, 2))

    def test_diagonal_cell(self, R):
        I = IdealHandle(R, [R.parse("x^2 + y^2")])
        cone = cone_of(I, (1, 1))
        assert cone.equalities == ((1, -1),)
        assert cone.contains((3, 3), strict=True)
        assert not cone.contains((2, 1))

    def test_interior_weights_are_equivalent(self, suite, suite_rng):
        rng = suite_rng
        for I in suite[:5]:
            n = I.ring.n
            w = tuple(rng.randint(-3, 3) for _ in range(n))
            cone = cone_of(I, w)
            for _ in range(8):
                w2 = tuple(rng.randint(-4, 4) for _ in range(n))
                if cone.contains(w2, strict=True):
                    assert weight_equiv(I, w, w2)

    def test_contains_rejects_wrong_length(self):
        cone = Cone.build([], [(1, -1, 0), (0, 1, -1)])
        with pytest.raises(ValueError):
            cone.contains((5, 1))
        with pytest.raises(ValueError):
            Cone.build([(1, -1)], []).contains((1, 1, 1))
        assert cone.contains((5, 1, 0))
        # a cone with no vectors constrains no weight of any length
        assert Cone.build([], []).contains((5, 1))

    def test_fraction_weight_strict(self):
        # v . w = 1/2: strictly inside, though below 1
        assert Cone.build([], [(1, -1)]).contains((Fraction(3, 2), 1), strict=True)
        assert not Cone.build([], [(1, -1)]).contains((Fraction(1, 2), 1))

    def test_build_canonicalizes(self):
        cone = Cone.build([(2, -2), (-1, 1)], [(4, 2), (2, 1)])
        assert cone.equalities == ((1, -1),)
        assert cone.inequalities == ((2, 1),)
        # zero rows constrain nothing and are dropped
        cone = Cone.build([(0, 0, 0), (2, -2, 0)], [(0, 0, 0), (3, 0, -3)])
        assert cone == Cone(((1, -1, 0),), ((1, 0, -1),))
        assert Cone.build([(0, 0)], [(0, 0)]) == Cone((), ())


class TestEnumerateFan:
    def test_binomial_cells(self, R):
        I = IdealHandle(R, [R.parse("x^2 + x*y + y^2")])
        sketch = enumerate_fan(I, 3)
        assert len(sketch.cells) == 3
        fps = {c.initial_basis for c in sketch.cells}
        assert ("x^2",) in fps and ("y^2",) in fps
        assert sum(1 for c in sketch.cells if c.full_dimensional) == 2

    def test_monomial_ideal_single_cell(self, R):
        I = IdealHandle(R, [R.parse("x*y")])
        sketch = enumerate_fan(I, 3)
        assert len(sketch.cells) == 1
        assert sketch.cells[0].cone.equalities == ()

    def test_matches_newton_oracle(self):
        rng = random.Random(51)
        for n, names in ((2, ("x", "y")), (3, ("x", "y", "z"))):
            ring = PolyRing(names)
            for _ in range(5):
                f = random_homogeneous(ring, rng.choice([2, 3]), rng)
                if f.is_zero() or len(f.terms) < 2:
                    continue
                B = 3 if n == 2 else 2
                got = enumerate_fan(IdealHandle(ring, [f]), B)
                want = newton_fan_oracle(f, B)
                assert {c.initial_basis for c in got.cells} == {
                    c.initial_basis for c in want.cells
                }
                by_basis = {c.initial_basis: c for c in want.cells}
                for c in got.cells:
                    assert c.cone == by_basis[c.initial_basis].cone

    def test_oracle_cones_rebuilt_inline(self):
        # the oracle builds its cones as the sampler does, so here each
        # oracle cell's rows are rebuilt by hand from its argmax
        rng = random.Random(52)
        for names in (("x", "y"), ("x", "y", "z")):
            ring = PolyRing(names)
            for _ in range(4):
                f = random_homogeneous(ring, rng.choice([2, 3]), rng)
                B = 3 if ring.n == 2 else 2
                for cell in newton_fan_oracle(f, B).cells:
                    w = cell.rep_weight
                    vals = {m: sum(x * y for x, y in zip(m, w)) for m in f.terms}
                    top = max(vals.values())
                    argmax = sorted(m for m, v in vals.items() if v == top)
                    rest = [m for m, v in vals.items() if v != top]
                    eqs = [
                        tuple(x - y for x, y in zip(a, b))
                        for a, b in itertools.combinations(argmax, 2)
                    ]
                    ins = [tuple(x - y for x, y in zip(a, c)) for a in argmax for c in rest]
                    assert cell.cone == Cone.build(eqs, ins), (f, w)

    def test_tie_order_irrelevant(self, R):
        I = IdealHandle(R, [R.parse("x^2 - y^2"), R.parse("x*y")])
        a = enumerate_fan(I, 3, tie=DRL)
        b = enumerate_fan(I, 3, tie=LEX)
        assert {c.initial_basis for c in a.cells} == {c.initial_basis for c in b.cells}

    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "GF32003"])
    def test_cells_match_cold_bases(self, suite, field):
        # one warm handle per ideal serves both ties; every cell is rebuilt
        # from Buchberger runs on fresh handles
        for I in suite[1::2]:
            I = over(field, I)
            I = IdealHandle(I.ring, I.generators)
            for tie in (DRL, LEX):
                for cell in enumerate_fan(I, 2, tie=tie).cells:
                    w = cell.rep_weight
                    cold = IdealHandle(I.ring, I.generators)
                    basis = buchberger_reduced(cold, weighted(w, tie)).elements
                    forms = IdealHandle(I.ring, [initial_form_w(g, w) for g in basis])
                    want = buchberger_reduced(forms, CANONICAL).elements
                    assert cell.initial_basis == tuple(poly_str(g) for g in want), (I, tie, w)
                    eqs, ins = [], []
                    for g in basis:
                        top = initial_support_w(g.terms, w)
                        eqs += [
                            tuple(x - y for x, y in zip(a, b))
                            for a, b in itertools.combinations(sorted(top), 2)
                        ]
                        ins += [
                            tuple(x - y for x, y in zip(a, c))
                            for a in top
                            for c in g.terms.keys() - top
                        ]
                    assert cell.cone == Cone.build(eqs, ins), (I, tie, w)

    @pytest.mark.parametrize("B, step", [(0, 1), (-2, 1), (2, 0), (2, -1)])
    @pytest.mark.parametrize("sampler", [enumerate_fan, newton_fan_oracle], ids=["enumerate_fan", "oracle"])
    def test_bad_box(self, R, sampler, B, step):
        # both samplers read one grid, which refuses a box or step below 1
        I = IdealHandle(R, [R.parse("x")])
        arg = I if sampler is enumerate_fan else I.generators[0]
        with pytest.raises(ValueError, match="box bound and step must be positive"):
            sampler(arg, B, step)

    # (x) has one cell, the whole space; a patched _cone contradicts it
    # at the first grid weight (-2, -2) or at the second, (-2, -1)
    @pytest.mark.parametrize(
        "equality, reason",
        [
            ((1, 0), "weight (-2, -2) is not interior to its own cone"),
            ((1, -1), "weights (-2, -2) and (-2, -1) share an initial ideal but not a cone"),
        ],
        ids=["not-interior", "shared-ideal"],
    )
    def test_consistency_certificates(self, R, monkeypatch, equality, reason):
        monkeypatch.setattr("circuitfan.fan._cone", lambda splits: Cone.build([equality], []))
        with pytest.raises(FanConsistencyError) as err:
            enumerate_fan(IdealHandle(R, [R.parse("x")]), 2)
        assert str(err.value) == reason

    def test_json_schema(self, R):
        sketch = enumerate_fan(IdealHandle(R, [R.parse("x + y")]), 2)
        doc = sketch.to_json()
        assert doc["box"] == 2 and doc["step"] == 1
        for cell in doc["cells"]:
            assert set(cell) == {
                "initial_ideal",
                "rep_weight",
                "equalities",
                "inequalities",
            }


class TestUniversalBasis:
    def test_linear_ideal(self, R):
        I = IdealHandle(R, [R.parse("x + y"), R.parse("y")])
        sketch = enumerate_fan(I, 2)
        U = universal_basis(I, sketch)
        assert {poly_str(g) for g in U} == {"x", "y"}

    def test_two_generator_example(self, R):
        I = IdealHandle(R, [R.parse("x^2 - y^2"), R.parse("x*y")])
        sketch = enumerate_fan(I, 3)
        U = universal_basis(I, sketch)
        assert {poly_str(g) for g in U} == {"x^2 - y^2", "x*y", "y^3", "x^3"}

    def test_is_a_basis_in_every_sampled_cell(self, R):
        from circuitfan import normal_form, weighted

        I = IdealHandle(R, [R.parse("x^2 + x*y"), R.parse("y^3")])
        sketch = enumerate_fan(I, 3)
        U = universal_basis(I, sketch)
        J = IdealHandle(R, U)
        for cell in sketch.cells:
            if not cell.full_dimensional:
                continue
            order = weighted(cell.rep_weight, tie=DRL)
            gb = J.groebner(order)
            for g in I.groebner(order).elements:
                assert normal_form(g, gb).is_zero()


class TestFanCompare:
    def test_equal_under_renaming(self, R):
        I = IdealHandle(R, [R.parse("x^2 + x*y")])
        J = IdealHandle(R, [R.parse("y^2 + x*y")])
        out = generic_fan_compare(I, J, RandomSpec(23))
        assert out["verdict"] == "EQUAL-FAN-CERTIFIED"

    def test_generic_lines(self, R):
        # (x) and (y) become the same generic line
        I = IdealHandle(R, [R.parse("x")])
        J = IdealHandle(R, [R.parse("y")])
        out = generic_fan_compare(I, J, RandomSpec(29))
        assert out["verdict"] == "EQUAL-FAN-CERTIFIED"

    def test_self_comparison(self, suite):
        for I in suite[:3]:
            out = generic_fan_compare(I, I, RandomSpec(24))
            assert out["verdict"] == "EQUAL-FAN-CERTIFIED"

    def test_hilbert_mismatch(self, R):
        # both dims lists are read to the larger lex bound + 1: 2 + 1 for
        # (x) against (x^2), 4 + 1 for the zero ideal against the pair
        cases = [
            (["x"], ["x^2"], [[0, 1, 2, 3], [0, 0, 1, 2]]),
            ([], ["x^2 + 3*x*y - 2*y^2", "x*y^2 - y^3"], [[0] * 6, [0, 0, 1, 3, 5, 6]]),
        ]
        for left, right, dims in cases:
            I = IdealHandle(R, [R.parse(g) for g in left])
            J = IdealHandle(R, [R.parse(g) for g in right])
            out = generic_fan_compare(I, J, RandomSpec(25))
            assert out == {"verdict": "incomparable", "reason": "Hilbert mismatch", "dims": dims}

    def test_incomparable_exactly_on_hilbert_mismatch(self, suite, monkeypatch):
        # the verdict's Hilbert gate against Hilbert functions read well past
        # both lex bounds; the circuits sets are stubbed, as only the gate
        # is under test
        monkeypatch.setattr("circuitfan.fan.circuits_truncated", lambda I, d: d)
        for I, J in itertools.product(suite, repeat=2):
            if I.ring != J.ring:
                continue
            top = max(lex_bound(I)[1], lex_bound(J)[1]) + I.ring.n + 3
            differ = hilbert_function(I, top) != hilbert_function(J, top)
            out = generic_fan_compare(I, J, RandomSpec(29), mode="deterministic")
            assert (out["verdict"] == "incomparable") == differ

    def test_deterministic_inconclusive(self, R):
        # (x^2) and (x*y) share a Hilbert function but not circuits sets
        I = IdealHandle(R, [R.parse("x^2")])
        J = IdealHandle(R, [R.parse("x*y")])
        out = generic_fan_compare(I, J, RandomSpec(26), mode="deterministic")
        assert out["verdict"] == "INCONCLUSIVE"

    def test_generic_certifies_hilbert_twins(self, R):
        # generically both become a power of a general linear form times the
        # maximal ideal's generic behavior, so the generic fans coincide
        I = IdealHandle(R, [R.parse("x^2")])
        J = IdealHandle(R, [R.parse("x*y")])
        out = generic_fan_compare(I, J, RandomSpec(27), mode="generic")
        assert out["verdict"] == "EQUAL-FAN-CERTIFIED"

    def test_mode_validation(self, R):
        I = IdealHandle(R, [R.parse("x")])
        with pytest.raises(ValueError):
            generic_fan_compare(I, I, RandomSpec(28), mode="magic")
