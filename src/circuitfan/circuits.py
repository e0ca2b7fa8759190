"""Circuits sets of graded pieces, truncated circuits sets, initial circuits
and the filtration rank vector."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .elim import clear_denominators, echelon, parallel, residual
from .linalg import GradedMatrix, exact_rank, graded_basis, rank_rel
from .ring import (
    canonical_key,
    initial_support_w,
    make_weight,
    monomials_of_degree,
    weight_value,
)


@dataclass(frozen=True)
class CircuitsSet:
    """Per-degree antichains of inclusion-minimal monomial supports."""

    by_degree: tuple  # tuple of (degree, frozenset of frozensets of monomials)
    truncation: int = None
    truncated: bool = False

    @staticmethod
    def build(mapping: dict, truncation=None, truncated=False) -> "CircuitsSet":
        items = tuple(
            (d, frozenset(circ)) for d, circ in sorted(mapping.items()) if circ
        )
        return CircuitsSet(items, truncation, truncated)

    def degrees(self) -> list:
        return [d for d, _ in self.by_degree]

    def circuits(self, d: int) -> frozenset:
        for deg, circ in self.by_degree:
            if deg == d:
                return circ
        return frozenset()

    def __eq__(self, other):
        # equality of the circuit families; truncation bookkeeping is not
        # part of the mathematical value
        return isinstance(other, CircuitsSet) and self.by_degree == other.by_degree

    def __hash__(self):
        return hash(self.by_degree)

    def to_json(self, ring) -> list:
        out = []
        for d, circ in self.by_degree:
            # circuits share monomials: key and format each one once
            keys = {m: canonical_key(m) for c in circ for m in c}
            names = {m: ring.monomial_str(m) for m in keys}
            sets = sorted(
                (sorted(c, key=keys.__getitem__, reverse=True) for c in circ),
                key=lambda ms: [keys[m] for m in ms],
                reverse=True,
            )
            out.append(
                {
                    "degree": d,
                    "circuits": [[names[m] for m in c] for c in sets],
                }
            )
        return out


# ---------------------------------------------------------------------------
# circuit enumeration


def _quotient_images(W: GradedMatrix):
    """Integer-scaled images of the support monomials in the quotient space.

    Modulo the subspace, a pivot monomial reduces to minus the non-pivot tail
    of its echelon row; a non-pivot monomial is its own coordinate vector.
    Scaling a vector does not change linear dependence, so rational vectors
    are cleared to integers.
    """
    fld = W.ring.field
    rational = not fld.characteristic
    pivot_of_row = {}
    for i, row in enumerate(W.rows):
        j = next(k for k, x in enumerate(row) if not fld.is_zero(x))
        pivot_of_row[j] = i
    nonpivot = [j for j in range(W.ncols) if j not in pivot_of_row]
    nonpivot_pos = {j: k for k, j in enumerate(nonpivot)}
    q = len(nonpivot)
    images = {}
    for j, m in enumerate(W.basis):
        if j in pivot_of_row:
            row = W.rows[pivot_of_row[j]]
            vec = [fld.neg(row[k]) for k in nonpivot]
        else:
            vec = [fld.zero] * q
            vec[nonpivot_pos[j]] = fld.one
        images[m] = clear_denominators(vec) if rational else tuple(vec)
    return images


def _bit_indices(mask: int) -> list:
    """Positions of the set bits of mask, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def circuits_of_space(W: GradedMatrix, size_cap: int = None):
    """All inclusion-minimal supports of nonzero elements of the subspace.

    Levelwise search over the independent sets of support monomials, keyed
    by bitmasks of their positions: a size-k candidate P+{a,b} joins two
    independent (k-1)-sets P+{a} and P+{b} that differ only in their largest
    position, and is tested only if all its (k-1)-subsets are independent.
    The candidates sharing a prefix P share one fraction-free echelon of P,
    and each top is reduced against it once; the residuals of a and b are
    nonzero, so the candidate has rank k-1 or k, and rank k-1 (a circuit,
    as it contains no smaller dependent set) exactly when the two residuals
    are parallel.  The circuits are the negative border of the
    independent-set family (Mannila & Toivonen 1997).

    Returns (frozenset of circuits, truncated); the flag is set when the size
    cap stopped the enumeration early.
    """
    fld = W.ring.field
    if W.dim == 0:
        return frozenset(), False
    p = fld.characteristic
    candidates = W.support_columns()
    images = _quotient_images(W)
    # a dependent set of size codim+1 always exists inside any larger set,
    # so circuits never exceed codim+1
    max_size = W.ncols - W.dim + 1
    if size_cap is None:
        size_cap = len(candidates)
    if size_cap < 1:
        raise ValueError("size_cap must be positive")
    limit = min(size_cap, max_size, len(candidates))
    truncated = limit < min(max_size, len(candidates))
    vectors = [images[m] for m in candidates]
    circuits = set()
    level = set()
    for i, v in enumerate(vectors):
        if any(not fld.is_zero(x) for x in v):
            level.add(1 << i)
        else:
            circuits.add(frozenset((candidates[i],)))
    size = 1
    while level and size < limit:
        size += 1
        tops_of = {}
        for mask in level:
            top = mask.bit_length() - 1
            tops_of.setdefault(mask ^ (1 << top), []).append(top)
        independent = set()
        for prefix, tops in tops_of.items():
            if len(tops) < 2:
                continue
            tops.sort()
            idx = _bit_indices(prefix)
            shared = [prefix ^ (1 << i) for i in idx]
            ech = echelon([vectors[i] for i in idx], p)
            # the prefix is independent
            assert len(ech) == len(idx)
            res = {t: residual(ech, vectors[t], p) for t in tops}
            # the prefix plus any top is independent
            assert all(any(r) for r in res.values())
            for a, b in itertools.combinations(tops, 2):
                pair = (1 << a) | (1 << b)
                if not all(s | pair in level for s in shared):
                    continue
                mask = prefix | pair
                if parallel(res[a], res[b], p):
                    # all (k-1)-subsets are independent, so the set is minimal
                    circuits.add(frozenset(candidates[i] for i in _bit_indices(mask)))
                else:
                    independent.add(mask)
        level = independent
    return frozenset(circuits), truncated


def is_circuit(W: GradedMatrix, S) -> bool:
    """Rank-criterion membership test: S dependent, all proper subsets not."""
    S = list(S)
    if not S or len(set(S)) != len(S):
        return False
    fld = W.ring.field
    images = _quotient_images(W)
    if any(m not in images for m in S):
        return False
    vecs = [images[m] for m in S]
    if exact_rank(vecs, fld) == len(vecs):
        return False
    for i in range(len(S)):
        rest = vecs[:i] + vecs[i + 1 :]
        if rest and exact_rank(rest, fld) < len(rest):
            return False
    return True


def circuits_truncated(I, d: int, size_cap: int = None) -> CircuitsSet:
    """Union over h <= d of the circuits of the graded pieces."""
    if d < 0:
        raise ValueError("truncation degree must be non-negative")
    mapping = {}
    truncated = False
    for h in range(d + 1):
        W = graded_basis(I, h)
        circ, trunc = circuits_of_space(W, size_cap)
        truncated = truncated or trunc
        if circ:
            mapping[h] = circ
    return CircuitsSet.build(mapping, truncation=d, truncated=truncated)


def initial_circuits(T: CircuitsSet, w) -> CircuitsSet:
    """Apply maximal-weight selection to every circuit and re-minimalize."""
    w = make_weight(w)
    mapping = {}
    for d, circ in T.by_degree:
        selected = {initial_support_w(c, w) for c in circ}
        minimal = {
            s for s in selected if not any(o < s for o in selected)
        }
        mapping[d] = minimal
    return CircuitsSet.build(mapping, truncation=T.truncation, truncated=T.truncated)


# ---------------------------------------------------------------------------
# the filtration rank vector


@dataclass(frozen=True)
class AlphaVector:
    degree: int
    weight: tuple
    values: tuple  # (rk over the top filtration step first, down to weight < 1)

    def __ge__(self, other: "AlphaVector"):
        self._compatible(other)
        return all(a >= b for a, b in zip(self.values, other.values))

    def __gt__(self, other: "AlphaVector"):
        return self >= other and self.values != other.values

    def _compatible(self, other):
        if (
            not isinstance(other, AlphaVector)
            or self.degree != other.degree
            or self.weight != other.weight
        ):
            raise ValueError("incomparable alpha vectors")


def alpha_vector(W: GradedMatrix, w) -> AlphaVector:
    """Relative ranks of the subspace against the filtration of monomials of
    bounded weight, largest threshold first."""
    w = make_weight(w)
    if list(w) != sorted(w, reverse=True) or (w and w[-1] < 0):
        raise ValueError("weight must be sorted non-increasing and non-negative")
    d = W.degree
    top = (w[0] if w else 0) * d
    monos = monomials_of_degree(W.ring.n, d)
    values = []
    for a in range(top, 0, -1):
        S = [m for m in monos if weight_value(m, w) < a]
        values.append(rank_rel(W, S, "sup") if S else W.dim)
    return AlphaVector(d, w, tuple(values))
