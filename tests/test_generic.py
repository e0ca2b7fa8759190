import pytest

from circuitfan import groebner
from circuitfan import (
    IdealHandle,
    PolyRing,
    PrimeField,
    RandomSpec,
    Substitution,
    borel_omega_sample,
    gcs_truncated,
    normalize_weight,
    random_change,
    stab_check,
    transform_ideal,
)
from circuitfan.circuits import circuits_truncated
from circuitfan.generic import BorelOmegaElement
from circuitfan.ring import QQ


X, Y = (1, 0), (0, 1)
X2, XY, Y2 = (2, 0), (1, 1), (0, 2)


@pytest.fixture
def R():
    return PolyRing(("x", "y"))


class TestNormalizeWeight:
    def test_sorting(self):
        w, perm, shift = normalize_weight((0, 1))
        assert w == (1, 0) and perm == (1, 0) and shift == 0

    def test_shift(self):
        w, perm, shift = normalize_weight((1, -1))
        assert w == (2, 0) and shift == 1

    def test_already_normalized(self):
        w, perm, shift = normalize_weight((3, 2, 2))
        assert w == (3, 2, 2) and perm == (0, 1, 2) and shift == 0

    def test_padding(self):
        w, perm, shift = normalize_weight((2, 1), n=3)
        assert w == (2, 1, 0)

    def test_too_long(self):
        with pytest.raises(ValueError):
            normalize_weight((1, 2, 3), n=2)

    def test_stable_on_ties(self):
        w, perm, _ = normalize_weight((2, 3, 2))
        assert w == (3, 2, 2) and perm == (1, 0, 2)


class TestRandomChange:
    def test_deterministic_per_seed(self, R):
        spec = RandomSpec(7)
        a = random_change(spec, R)
        b = random_change(spec, R)
        assert a.matrix == b.matrix

    def test_streams_differ(self, R):
        spec = RandomSpec(7)
        assert random_change(spec, R, 0).matrix != random_change(spec, R, 1).matrix

    def test_invertible(self, R):
        g = random_change(RandomSpec(8), R)
        f = R.parse("x^2 - y^2")
        assert g.inverse().apply(g.apply(f)) == f


class TestGcs:
    def test_principal_x(self, R):
        # the generic graded pieces of (x) are spanned by powers of a generic
        # linear form times monomials
        cs = gcs_truncated(IdealHandle(R, [R.parse("x")]), 2, RandomSpec(9))
        assert cs.circuits(1) == {frozenset({X, Y})}
        assert cs.circuits(2) == {
            frozenset({X2, XY}),
            frozenset({X2, Y2}),
            frozenset({XY, Y2}),
        }

    def test_coordinate_free(self, R):
        # conjugating the ideal by a fixed change of coordinates does not move
        # the generic circuits set
        spec = RandomSpec(10)
        I = IdealHandle(R, [R.parse("x^2 + x*y")])
        base = gcs_truncated(I, 3, spec)
        for seed in range(5):
            h = random_change(RandomSpec(500 + seed, entry_bound=50), R)
            assert gcs_truncated(transform_ideal(h, I), 3, spec) == base

    def test_seed_independent(self, R):
        I = IdealHandle(R, [R.parse("x^2 - y^2"), R.parse("x*y")])
        a = gcs_truncated(I, 3, RandomSpec(11))
        b = gcs_truncated(I, 3, RandomSpec(12))
        assert a == b

    def test_dominates_special_fiber(self, R):
        # a generic change can only enlarge graded pieces' genericity; the
        # truncated circuits of the original ideal differ in general
        I = IdealHandle(R, [R.parse("x")])
        special = circuits_truncated(I, 2)
        generic = gcs_truncated(I, 2, RandomSpec(13))
        assert special != generic


class TestBorelOmega:
    def test_validation(self):
        with pytest.raises(ValueError):
            BorelOmegaElement((1, 0), ((1, 0), (2, 1)), QQ)  # not triangular
        with pytest.raises(ValueError):
            BorelOmegaElement((1, 1), ((1, 3), (0, 1)), QQ)  # tie entry nonzero
        with pytest.raises(ValueError):
            BorelOmegaElement((0, 1), ((1, 0), (0, 1)), QQ)  # unsorted weight

    def test_group_axioms(self):
        spec = RandomSpec(14)
        w = (3, 1, 0)
        n = len(w)
        for fld in (QQ, PrimeField(32003)):
            a = borel_omega_sample(w, spec, fld, stream=0)
            b = borel_omega_sample(w, spec, fld, stream=1)
            ab = a.compose(b)
            assert isinstance(ab, BorelOmegaElement)  # closure, via validation
            ident = tuple(
                tuple(fld.one if i == j else fld.zero for j in range(n)) for i in range(n)
            )
            assert a.compose(a.inverse()).matrix == ident
            assert a.inverse().compose(a).matrix == ident

    def test_action_direction(self):
        # a variable moves only into variables of strictly larger weight
        R3 = PolyRing(("x", "y", "z"))
        b = borel_omega_sample((2, 1, 0), RandomSpec(15), QQ, stream=3)
        s = b.as_substitution(R3)
        z_img = s.apply(R3.parse("z"))
        assert z_img.coefficient((0, 0, 1)) == 1
        x_img = s.apply(R3.parse("x"))
        assert x_img == R3.parse("x")

    def test_trivial_when_weight_constant(self):
        b = borel_omega_sample((2, 2), RandomSpec(16), QQ)
        assert b.matrix == ((QQ.one, QQ.zero), (QQ.zero, QQ.one))


class TestStabCheck:
    def test_generic_invariance(self, R):
        I = IdealHandle(R, [R.parse("x^2 + x*y + y^2")])
        report = stab_check(I, (1, 0), RandomSpec(17))
        assert report["passed"]
        assert all(
            r["equal"] for t in report["trials"] for r in t["b_results"]
        )

    def test_one_buchberger_run_per_g_trial(self, R, monkeypatch):
        # bJ = J is decided by reducing bJ's generators modulo J's basis,
        # so only the initial ideal of each coordinate change needs a basis
        calls = []
        real = groebner.buchberger_reduced

        def counting(ideal, order):
            calls.append(order)
            return real(ideal, order)

        monkeypatch.setattr(groebner, "buchberger_reduced", counting)
        I = IdealHandle(R, [R.parse("x^2 + x*y + y^2"), R.parse("x*y^2")])
        report = stab_check(I, (1, 0), RandomSpec(23), g_trials=3, b_trials=4)
        assert report["passed"]
        assert len(calls) == 3

    def test_trivial_group_note(self, R):
        I = IdealHandle(R, [R.parse("x^2")])
        report = stab_check(I, (1, 1), RandomSpec(18))
        assert report["passed"]
        assert report["note"] == "B_omega trivial"

    def test_non_generic_failure_witness(self, R):
        # without a generic change, (y) gives in_w = (y) which the Borel
        # subgroup of (1, 0) moves to (y + c*x)
        I = IdealHandle(R, [R.parse("y")])
        report = stab_check(
            I, (1, 0), RandomSpec(19), g_trials=1, force_identity_g=True
        )
        assert not report["passed"]
        bad = [
            r
            for t in report["trials"]
            for r in t["b_results"]
            if not r["equal"]
        ]
        assert bad and "witness" in bad[0]

    def test_finite_field_flag(self):
        Rp = PolyRing(("x", "y"), PrimeField(32003))
        I = IdealHandle(Rp, [Rp.parse("x^2 + y^2")])
        report = stab_check(I, (1, 0), RandomSpec(20))
        assert report["genericity"] == "heuristic (finite field)"
        assert report["passed"]

    def test_unnormalized_weight_rejected(self, R):
        I = IdealHandle(R, [R.parse("x")])
        with pytest.raises(ValueError):
            stab_check(I, (0, 1), RandomSpec(21))

    def test_suite_invariance(self, suite):
        for I in suite[:4]:
            w = (2, 1) if I.ring.n == 2 else (2, 1, 0)
            report = stab_check(I, w, RandomSpec(22), g_trials=1, b_trials=3)
            assert report["passed"], report
