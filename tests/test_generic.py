import random
from fractions import Fraction

import pytest

from circuitfan import generic, groebner
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
from circuitfan.generic import BorelOmegaElement, UncertifiedError
from circuitfan.ring import QQ

from conftest import VARS, over, random_homogeneous
from oracles import compose, inverse_reference


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
        inv = Substitution(R, inverse_reference(g.matrix, 0))
        assert inv.apply(g.apply(f)) == f


class TestGcs:
    def test_principal_x(self, R):
        # the generic graded pieces of (x) are spanned by powers of a generic
        # linear form times monomials
        cs = gcs_truncated(IdealHandle(R, [R.parse("x")]), 2, RandomSpec(9))
        by_degree = dict(cs.by_degree)
        assert by_degree.get(1, frozenset()) == {frozenset({X, Y})}
        assert by_degree.get(2, frozenset()) == {
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

    @pytest.mark.parametrize(
        "retries, drawn",
        [(1, [(1, 0), (1, 1)]), (3, [(1, 0), (1, 1), (2, 2), (2, 3), (4, 4), (4, 5)])],
    )
    def test_disagreeing_witnesses_redraw_then_fail(self, monkeypatch, retries, drawn):
        # entries in [-bound, bound] for bounds 1, 2 and 4 are too small to
        # be generic for this pair: every witness pair disagrees, each retry
        # doubles the bound and draws on two new streams
        R3 = PolyRing(("x", "y", "z"))
        I = IdealHandle(R3, [R3.parse("x^2 - y*z"), R3.parse("x*y - z^2")])
        seen = []

        def recorded(spec, ring, stream=0):
            seen.append((spec.entry_bound, stream))
            return random_change(spec, ring, stream)

        monkeypatch.setattr(generic, "random_change", recorded)
        with pytest.raises(UncertifiedError, match=f"after {retries} witness pairs"):
            gcs_truncated(I, 3, RandomSpec(0, entry_bound=1), retries=retries)
        assert seen == drawn

    @pytest.mark.parametrize("fld", [QQ, PrimeField(7)], ids=str)
    def test_exhausted_sampler_uncertified(self, monkeypatch, fld):
        # every draw is the zero matrix: the budget runs out without a change
        monkeypatch.setattr(type(fld), "random", lambda self, rng, bound: 0)
        with pytest.raises(UncertifiedError, match="invertible"):
            random_change(RandomSpec(0), PolyRing(("x", "y"), fld))


class TestBorelOmega:
    def test_validation(self):
        with pytest.raises(ValueError):
            BorelOmegaElement((1, 0), ((1, 0), (2, 1)), QQ)  # not triangular
        with pytest.raises(ValueError):
            BorelOmegaElement((1, 1), ((1, 3), (0, 1)), QQ)  # tie entry nonzero
        with pytest.raises(ValueError):
            BorelOmegaElement((0, 1), ((1, 0), (0, 1)), QQ)  # unsorted weight

    def test_sampler_rejects_unsorted_weight(self):
        with pytest.raises(ValueError, match="sorted non-increasing"):
            borel_omega_sample((0, 1), RandomSpec(0), QQ)

    def test_entries_are_residues_over_prime_field(self):
        # every check reads the entries mod p, and they are stored reduced
        F7 = PrimeField(7)
        b = BorelOmegaElement((1, 0), ((8, Fraction(1, 2)), (7, -6)), F7)
        assert b.matrix == ((1, 4), (0, 1))
        with pytest.raises(ValueError, match="upper triangular"):
            BorelOmegaElement((1, 0), ((1, 0), (8, 1)), F7)
        with pytest.raises(ValueError, match="diagonal"):
            BorelOmegaElement((1, 0), ((7, 0), (0, 1)), F7)
        with pytest.raises(ValueError, match="vanish"):
            BorelOmegaElement((1, 1), ((1, 15), (0, 1)), F7)

    def test_group_axioms(self):
        spec = RandomSpec(14)
        w = (3, 1, 0)
        n = len(w)
        for fld in (QQ, PrimeField(32003)):
            a = borel_omega_sample(w, spec, fld, stream=0)
            b = borel_omega_sample(w, spec, fld, stream=1)
            ab = compose(a, b)
            assert isinstance(ab, BorelOmegaElement)  # closure, via validation
            ident = tuple(
                tuple(fld.one if i == j else fld.zero for j in range(n)) for i in range(n)
            )
            # closure under inverses, via validation
            a_inv = BorelOmegaElement(w, inverse_reference(a.matrix, fld.characteristic), fld)
            assert compose(a, a_inv).matrix == ident
            assert compose(a_inv, a).matrix == ident

    def test_action_direction(self):
        # a variable moves only into variables of strictly larger weight
        R3 = PolyRing(("x", "y", "z"))
        b = borel_omega_sample((2, 1, 0), RandomSpec(15), QQ, stream=3)
        s = b.as_substitution(R3)
        z_img = s.apply(R3.parse("z"))
        assert z_img.terms[(0, 0, 1)] == 1
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


class TestBorelCertificate:
    # stab_check samples b only for g-trials whose initial ideal the
    # Hasse-derivative certificate refutes; a certified one passes every b

    @staticmethod
    def _cases(suite):
        rng = random.Random(31)
        ring = PolyRing(VARS)
        corpus = [
            IdealHandle(ring, [random_homogeneous(ring, d, rng) for d in pattern])
            for pattern in ((2, 2), (2, 3)) * 2
        ]
        for I in suite[:6] + corpus:
            weights = [(1, 0)] if I.ring.n == 2 else [(2, 1, 0), (1, 0, 0), (1, 1, 0)]
            for field in (QQ, PrimeField(32003), PrimeField(7)):
                for w in weights:
                    for identity in (False, True):
                        yield over(field, I), w, identity

    def test_forced_sampling_matches(self, suite, monkeypatch):
        def reports():
            return [
                stab_check(I, w, RandomSpec(24), g_trials=1, b_trials=2, force_identity_g=identity)
                for I, w, identity in self._cases(suite)
            ]

        real = reports()
        monkeypatch.setattr(generic, "_borel_fixed", lambda J, w: False)
        assert reports() == real
        # both branches and sampled witnesses are compared
        assert any(r["passed"] for r in real) and not all(r["passed"] for r in real)

    def test_strongly_stable_certified(self):
        R3 = PolyRing(VARS)
        I = IdealHandle(R3, [R3.parse(g) for g in ("x^2", "x*y", "y^2", "x*z")])
        assert generic._borel_fixed(I, (2, 1, 0))
        report = stab_check(I, (2, 1, 0), RandomSpec(25), force_identity_g=True)
        assert report["passed"]

    def test_refuted_by_second_hasse_derivative(self):
        # D^(1) y^2 = 2*x*y vanishes over GF(2); D^(2) y^2 = x^2 is not in (y^2)
        R2 = PolyRing(("x", "y"), PrimeField(2))
        I = IdealHandle(R2, [R2.parse("y^2")])
        assert not generic._borel_fixed(I, (1, 0))
        report = stab_check(I, (1, 0), RandomSpec(0), g_trials=1, force_identity_g=True)
        assert not report["passed"]
        bad = [r for r in report["trials"][0]["b_results"] if not r["equal"]]
        assert bad and "witness" in bad[0]

    @pytest.mark.parametrize(
        "gens, identity, samples",
        [(["x^2 + x*y + y^2"], False, 0), (["y"], True, 4)],
        ids=["certified", "refuted"],
    )
    def test_samples_only_refuted_trials(self, R, monkeypatch, gens, identity, samples):
        calls = []
        real = generic.borel_omega_sample

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(generic, "borel_omega_sample", counting)
        I = IdealHandle(R, [R.parse(g) for g in gens])
        stab_check(I, (1, 0), RandomSpec(26), g_trials=1, b_trials=4, force_identity_g=identity)
        assert len(calls) == samples
