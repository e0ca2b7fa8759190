"""Randomized genericity: random coordinate changes, certified truncated
generic circuits sets, the weight Borel subgroup and the invariance checker."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .circuits import CircuitsSet, circuits_truncated
from .groebner import IdealHandle, initial_ideal_w, normal_form, transform_ideal
from .ring import PolyRing, Polynomial, Substitution, make_weight, poly_str, residue


class UncertifiedError(RuntimeError):
    """A randomized step ran out of draws: two-witness certification failed
    after all retries, or no invertible change was sampled."""


@dataclass(frozen=True)
class RandomSpec:
    seed: int
    entry_bound: int = 10_000


def _rng(spec: RandomSpec, stream: int) -> random.Random:
    return random.Random(spec.seed * 1_000_003 + stream)


def random_change(spec: RandomSpec, ring: PolyRing, stream: int = 0) -> Substitution:
    """Deterministic-per-seed invertible row-action substitution."""
    rng = _rng(spec, stream)
    fld = ring.field
    n = ring.n
    for _ in range(64):
        m = [[fld.random(rng, spec.entry_bound) for _ in range(n)] for _ in range(n)]
        try:
            return Substitution(ring, m)
        except ValueError:
            continue
    raise UncertifiedError("could not sample an invertible matrix")


def normalize_weight(w):
    """Sort a weight non-increasingly and shift it non-negative.

    Returns (sorted weight, permutation, shift): ``sorted[i] = w[perm[i]] +
    shift``.  The shift is a multiple of the all-ones vector, which leaves
    initial forms of degree-homogeneous polynomials unchanged.
    """
    w = make_weight(w)
    shift = max(0, -min(w)) if w else 0
    shifted = tuple(x + shift for x in w)
    perm = tuple(
        sorted(range(len(w)), key=lambda i: (-shifted[i], i))
    )
    return tuple(shifted[i] for i in perm), perm, shift


def gcs_truncated(
    I: IdealHandle, d: int, spec: RandomSpec, retries: int = 3
) -> CircuitsSet:
    """Truncated generic circuits set with a two-witness certificate.

    Two independent random changes must produce identical circuits sets; on a
    mismatch the entry bound doubles and both witnesses are redrawn on new
    streams.  Over GF(p) the entries are uniform in the field whatever the
    bound, so doubling it changes nothing there; only the redraw does.
    """
    if retries < 1:
        raise ValueError("retries must be at least 1")
    bound = spec.entry_bound
    for attempt in range(retries):
        local = RandomSpec(spec.seed, bound)
        g1 = random_change(local, I.ring, stream=2 * attempt)
        g2 = random_change(local, I.ring, stream=2 * attempt + 1)
        cs1 = circuits_truncated(transform_ideal(g1, I), d)
        cs2 = circuits_truncated(transform_ideal(g2, I), d)
        if cs1 == cs2:
            return cs1
        bound *= 2
    raise UncertifiedError(
        f"generic circuits set not certified after {retries} witness pairs"
    )


# ---------------------------------------------------------------------------
# the weight Borel subgroup


@dataclass(frozen=True)
class BorelOmegaElement:
    """Unit-diagonal upper-triangular matrix vanishing wherever the sorted
    weight has equal entries; acts by columns, X_j to sum_i m[i][j] X_i."""

    weight: tuple
    matrix: tuple  # n x n tuple of tuples: ints or Fractions, residues over GF(p)
    field: object

    def __post_init__(self):
        w = self.weight
        n = len(w)
        if list(w) != sorted(w, reverse=True):
            raise ValueError("weight must be sorted non-increasing")
        m = self.matrix
        if len(m) != n or any(len(r) != n for r in m):
            raise ValueError("matrix shape mismatch")
        if p := self.field.characteristic:
            m = tuple(tuple(residue(x, p) for x in r) for r in m)
            object.__setattr__(self, "matrix", m)
        for i in range(n):
            if m[i][i] != 1:
                raise ValueError("diagonal entries must be one")
            for j in range(n):
                if j < i and m[i][j]:
                    raise ValueError("matrix must be upper triangular")
                if j > i and w[i] == w[j] and m[i][j]:
                    raise ValueError("entry must vanish where weight entries tie")

    def as_substitution(self, ring: PolyRing) -> Substitution:
        return Substitution(ring, tuple(zip(*self.matrix)))


def borel_omega_sample(w, spec: RandomSpec, field, stream: int = 0) -> BorelOmegaElement:
    """Random element of the weight Borel subgroup."""
    w = make_weight(w)
    rng = _rng(spec, stream)
    n = len(w)
    m = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if w[i] != w[j]:
                m[i][j] = field.random(rng, spec.entry_bound)
    return BorelOmegaElement(w, tuple(tuple(r) for r in m), field)


# ---------------------------------------------------------------------------
# invariance checker


def _borel_fixed(J: IdealHandle, w) -> bool:
    """Whether J is fixed by the weight Borel subgroup of the sorted weight w
    over the algebraic closure of its field.

    The group is generated by the root groups X_j -> X_j + t*X_i over the
    pairs i < j with w_i > w_j, and such a substitution sends f to
    sum_s t^s D^(s) f, where the Hasse derivative D^(s) sends X^m to
    C(m_j, s) X^(m - s*e_j + s*e_i).  The D^(s) obey the Leibniz rule, so J
    is fixed exactly when D^(s) f reduces to zero modulo J's reduced basis
    for every pair, every basis element f and every s up to f's degree in
    X_j (Eisenbud, Commutative Algebra, 15.9; Pardue 1994).  Over Q,
    D^(s) = D^(1)^s / s!, so s = 1 suffices."""
    basis = J.groebner()
    p = J.ring.field.characteristic
    n = len(w)
    for i in range(n):
        for j in range(i + 1, n):
            if w[i] == w[j]:
                continue
            for f in basis.elements:
                top = max(m[j] for m in f.terms)
                for s in range(1, (top if p else min(top, 1)) + 1):
                    terms = {}
                    for m, c in f.terms.items():
                        if m[j] >= s:
                            u = m[:i] + (m[i] + s,) + m[i + 1 : j] + (m[j] - s,) + m[j + 1 :]
                            terms[u] = terms.get(u, 0) + math.comb(m[j], s) * c
                    h = Polynomial(J.ring, terms)
                    if not h.is_zero() and not normal_form(h, basis).is_zero():
                        return False
    return True


def stab_check(
    I: IdealHandle,
    w,
    spec: RandomSpec,
    g_trials: int = 2,
    b_trials: int = 5,
    force_identity_g: bool = False,
) -> dict:
    """Check that weight initial ideals of random coordinate changes are fixed
    by the weight Borel subgroup.

    Each initial ideal J is first decided exactly by ``_borel_fixed``.  A
    certified J is fixed by every b, so its b-trials are reported equal
    without drawing b.  Only a refuted J has its b-trials sampled: b is
    invertible, so bJ has the Hilbert function of J, and bJ = J exactly
    when every generator of bJ reduces to zero modulo a basis of J.
    Failures are reported with witnesses, not raised.  Over GF(p) the
    certificate means invariance over the algebraic closure, which is
    stricter than the sample: a refuted J may still pass every sampled b.
    """
    w = make_weight(w)
    n = I.ring.n
    if len(w) != n:
        raise ValueError("weight dimension mismatch")
    if list(w) != sorted(w, reverse=True) or min(w) < 0:
        raise ValueError("normalize the weight first (sorted, non-negative)")
    if g_trials < 1 or b_trials < 1:
        raise ValueError("g_trials and b_trials must be at least 1")
    fld = I.ring.field
    trivial_group = all(w[i] == w[j] for i in range(n) for j in range(n))
    trials = []
    passed = True
    for gi in range(g_trials):
        J = initial_ideal_w(
            I if force_identity_g else transform_ideal(random_change(spec, I.ring, 100 + gi), I), w
        )
        basis = J.groebner()
        # a certified J is fixed by every b, so each sampled b would pass
        fixed = _borel_fixed(J, w)
        b_results = []
        for bi in range(b_trials):
            if fixed:
                b_results.append({"b_index": bi, "equal": True})
                continue
            b = borel_omega_sample(w, spec, fld, stream=1000 * (gi + 1) + bi)
            bJ = transform_ideal(b.as_substitution(I.ring), J)
            equal = all(normal_form(f, basis).is_zero() for f in bJ.generators)
            entry = {"b_index": bi, "equal": equal}
            if not equal:
                passed = False
                entry["witness"] = {
                    "b_matrix": [[str(x) for x in row] for row in b.matrix],
                    "initial_ideal": [poly_str(p) for p in basis.elements],
                    "moved_to": [poly_str(p) for p in bJ.groebner().elements],
                }
            b_results.append(entry)
        trials.append(
            {
                "g_index": gi,
                "g_identity": bool(force_identity_g),
                "initial_ideal": [poly_str(p) for p in basis.elements],
                "b_results": b_results,
            }
        )
    report = {
        "weight": list(w),
        "g_trials": g_trials,
        "b_trials": b_trials,
        "passed": passed,
        "trials": trials,
    }
    if trivial_group:
        report["note"] = "B_omega trivial"
    if fld.characteristic:
        report["genericity"] = "heuristic (finite field)"
    return report
