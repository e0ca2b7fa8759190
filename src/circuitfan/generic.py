"""Randomized genericity: random coordinate changes, certified truncated
generic circuits sets, the weight Borel subgroup and the invariance checker."""
from __future__ import annotations

import random
from dataclasses import dataclass

from .circuits import CircuitsSet, circuits_truncated
from .elim import inverse
from .groebner import IdealHandle, initial_ideal_w, normal_form, transform_ideal
from .order import DRL, MonomialOrder
from .ring import PolyRing, Substitution, make_weight, poly_str


class UncertifiedError(RuntimeError):
    """Two-witness certification failed after all retries."""


@dataclass(frozen=True)
class RandomSpec:
    seed: int
    entry_bound: int = 10_000


def _rng(spec: RandomSpec, stream: int) -> random.Random:
    return random.Random(spec.seed * 1_000_003 + stream)


def _random_invertible(rng: random.Random, ring: PolyRing, bound: int):
    fld = ring.field
    n = ring.n
    for _ in range(64):
        m = [[fld.random(rng, bound) for _ in range(n)] for _ in range(n)]
        try:
            return Substitution(ring, m, convention="row")
        except ValueError:
            continue
    raise RuntimeError("could not sample an invertible matrix")


def random_change(spec: RandomSpec, ring: PolyRing, stream: int = 0) -> Substitution:
    """Deterministic-per-seed invertible row-action substitution."""
    return _random_invertible(_rng(spec, stream), ring, spec.entry_bound)


def normalize_weight(w, n: int = None):
    """Sort a weight non-increasingly and shift it non-negative.

    Returns (sorted weight, permutation, shift): ``sorted[i] = w[perm[i]] +
    shift``.  The shift is a multiple of the all-ones vector, which leaves
    initial forms of degree-homogeneous polynomials unchanged.
    """
    w = make_weight(w)
    if n is not None:
        if len(w) > n:
            raise ValueError("weight longer than the variable count")
        w = w + (0,) * (n - len(w))
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
    mismatch the entry bound doubles and both witnesses are redrawn.
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
    weight has equal entries; acts on variables by the column convention."""

    weight: tuple
    matrix: tuple  # n x n tuple of tuples of field scalars
    field: object

    def __post_init__(self):
        w = self.weight
        n = len(w)
        if list(w) != sorted(w, reverse=True):
            raise ValueError("weight must be sorted non-increasing")
        m = self.matrix
        fld = self.field
        if len(m) != n or any(len(r) != n for r in m):
            raise ValueError("matrix shape mismatch")
        for i in range(n):
            if m[i][i] != fld.one:
                raise ValueError("diagonal entries must be one")
            for j in range(n):
                if j < i and not fld.is_zero(m[i][j]):
                    raise ValueError("matrix must be upper triangular")
                if j > i and w[i] == w[j] and not fld.is_zero(m[i][j]):
                    raise ValueError("entry must vanish where weight entries tie")

    def as_substitution(self, ring: PolyRing) -> Substitution:
        return Substitution(ring, self.matrix, convention="column")

    def compose(self, other: "BorelOmegaElement") -> "BorelOmegaElement":
        if self.weight != other.weight:
            raise ValueError("weights differ")
        fld = self.field
        n = len(self.weight)
        prod = tuple(
            tuple(
                _dot(fld, [self.matrix[i][k] for k in range(n)], [other.matrix[k][j] for k in range(n)])
                for j in range(n)
            )
            for i in range(n)
        )
        return BorelOmegaElement(self.weight, prod, fld)

    def inverse(self) -> "BorelOmegaElement":
        return BorelOmegaElement(self.weight, inverse(self.matrix, self.field.characteristic), self.field)


def _dot(fld, xs, ys):
    s = fld.zero
    for x, y in zip(xs, ys):
        s = fld.add(s, fld.mul(x, y))
    return s


def borel_omega_sample(w, spec: RandomSpec, field, stream: int = 0) -> BorelOmegaElement:
    """Random element of the weight Borel subgroup."""
    w = make_weight(w)
    if list(w) != sorted(w, reverse=True):
        raise ValueError("weight must be sorted non-increasing")
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


def stab_check(
    I: IdealHandle,
    w,
    spec: RandomSpec,
    g_trials: int = 2,
    b_trials: int = 5,
    tie: MonomialOrder = DRL,
    force_identity_g: bool = False,
) -> dict:
    """Check that weight initial ideals of random coordinate changes are fixed
    by the weight Borel subgroup.

    Failures are reported with witnesses, not raised.  b is invertible, so
    bJ has the Hilbert function of J, and bJ = J exactly when every
    generator of bJ reduces to zero modulo a basis of J.
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
        if force_identity_g:
            g = Substitution.identity(I.ring)
        else:
            g = random_change(spec, I.ring, stream=100 + gi)
        J = initial_ideal_w(transform_ideal(g, I), w, tie=tie)
        basis = J.groebner()
        b_results = []
        for bi in range(b_trials):
            b = borel_omega_sample(w, spec, fld, stream=1000 * (gi + 1) + bi)
            bJ = transform_ideal(b.as_substitution(I.ring), J)
            equal = all(normal_form(f, basis).is_zero() for f in bJ.generators)
            entry = {"b_index": bi, "equal": equal}
            if not equal:
                passed = False
                entry["witness"] = {
                    "b_matrix": [[fld.to_str(x) for x in row] for row in b.matrix],
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
