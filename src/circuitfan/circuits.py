"""Circuits sets of graded pieces, truncated circuits sets, initial circuits
and the filtration rank vector."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .linalg import GradedMatrix, exact_rank, graded_basis, weight_echelon
from .ring import canonical_key, initial_support_w, make_weight, weight_value


@dataclass(frozen=True)
class CircuitsSet:
    """Per-degree antichains of inclusion-minimal monomial supports."""

    by_degree: tuple  # tuple of (degree, frozenset of frozensets of monomials)
    # the size-cap flag is not part of the mathematical value
    truncated: bool = field(default=False, compare=False)

    @staticmethod
    def build(mapping: dict, truncated=False) -> "CircuitsSet":
        items = tuple(
            (d, frozenset(circ)) for d, circ in sorted(mapping.items()) if circ
        )
        return CircuitsSet(items, truncated)

    def to_json(self, ring) -> list:
        out = []
        for d, circ in self.by_degree:
            # circuits share monomials: rank and format each one once.  Ranks
            # keep the canonical order, so comparing the descending rank
            # tuples compares the circuits' descending key lists
            monos = sorted({m for c in circ for m in c}, key=canonical_key)
            rank = {m: i for i, m in enumerate(monos)}
            names = [ring.monomial_str(m) for m in monos]
            sets = sorted(
                (tuple(sorted(map(rank.__getitem__, c), reverse=True)) for c in circ),
                reverse=True,
            )
            out.append(
                {
                    "degree": d,
                    "circuits": [[names[i] for i in c] for c in sets],
                }
            )
        return out


# ---------------------------------------------------------------------------
# circuit enumeration


def _quotient_images(W: GradedMatrix):
    """Images of the monomials of the piece in the quotient space, scaled to
    int tuples, which keeps linear dependence: a pivot monomial's is minus
    the non-pivot tail of its echelon row, a non-pivot monomial's its own
    coordinate vector.  Over GF(p) a tail's entries are ints in (-p, 0],
    nonzero exactly where the echelon entry is; the circuit search and
    ``exact_rank`` reduce them mod p.
    """
    row_of = {next(j for j, x in enumerate(r) if x): r for r in W.rows}
    nonpivot = [j for j in range(W.ncols) if j not in row_of]
    images = {}
    for j, m in enumerate(W.basis):
        if j in row_of:
            images[m] = tuple(-row_of[j][k] for k in nonpivot)
        else:
            images[m] = tuple(int(k == j) for k in nonpivot)
    return images


def circuits_of_space(W: GradedMatrix, size_cap: int = None):
    """All inclusion-minimal supports of nonzero elements of the subspace.

    Depth-first search over the independent sets S of support monomials,
    each extended only by monomials after its last one.  A node holds one
    row per monomial b after S, exactly q + 1 wide for the codimension q:
    ``[image residual on the q - |S| columns left | one slot per monomial
    of S | own coefficient]``, the residual of b's quotient image against S
    and the combination of S + {b} it is.  The child S + {a} reduces each
    later row against a's inline, by ``pivot*rb - head*ra`` with
    ``-head*own_a`` as a's new slot and ``pivot*own_b`` as the own one, and
    drops a's pivot column.  A row that vanishes on the image part is the
    dependency of S + {b}, which holds exactly one circuit: b and the
    monomials of S with a nonzero slot (the fundamental circuit, Oxley,
    *Matroid Theory*, 1.2); b then leaves the node, as it stays dependent,
    with the same circuit, on every extension of S.  A child of q monomials
    spans the quotient, so every later row vanishes: no row is computed, and
    the slots where ``pivot*slot_b != head*slot_a`` give the circuit.  Each
    circuit C is found from S = C minus its last monomial, and the search
    holds only the nodes on one path.

    Returns (frozenset of circuits, truncated); the flag is set when the size
    cap stopped the enumeration early.
    """
    # the cap is checked first, so a bad one fails whatever the piece holds
    if size_cap is not None and size_cap < 1:
        raise ValueError("size_cap must be positive")
    p = W.ring.field.characteristic
    candidates = W.support_columns()
    n = len(candidates)
    images = _quotient_images(W)
    # the images have length codim; a dependent set of size codim+1 always
    # exists inside any larger set, so circuits never exceed codim+1
    q = W.ncols - W.dim
    max_size = q + 1
    limit = min(size_cap or n, max_size, n)
    truncated = limit < min(max_size, n)
    # a monomial whose image vanishes is in the subspace: a singleton circuit
    circuits = {frozenset([m]) for m in candidates if not any(images[m])}

    def children(path, rows):
        """The nodes S + {a} below S = path, one for each row but the last,
        whose monomial has no later ones: the later rows reduced against
        a's, less the ones that vanish on the image part, which give
        circuits."""
        for i, (a, ra) in enumerate(rows[:-1]):
            child = path + (a,)
            width = q - len(child)  # the image columns left in the child
            if not width:
                # each later row's one image entry, head, is nonzero
                pivot, sa = ra[0], ra[1:]
                for b, rb in rows[i + 1 :]:
                    head, slots = rb[0], zip(path, rb[1:], sa)
                    if p:
                        rest = [s for s, x, y in slots if (pivot * x - head * y) % p]
                    else:
                        rest = [s for s, x, y in slots if pivot * x != head * y]
                    circuits.add(frozenset([b, a, *rest]))
                yield child, []
                continue
            # the pivot lies in the image part, where ra is nonzero
            col = next(j for j, x in enumerate(ra) if x)
            pivot, own, kept = ra[col], ra[-1], []
            for b, rb in rows[i + 1 :]:
                head = rb[col]
                if not head:
                    kept.append((b, rb[:col] + rb[col + 1 : -1] + [0, rb[-1]]))
                    continue
                if p:
                    r = [(pivot * x - head * y) % p for x, y in zip(rb, ra)]
                    r[-1] = -head * own % p
                    r.append(pivot * rb[-1] % p)
                else:
                    r = [pivot * x - head * y for x, y in zip(rb, ra)]
                    r[-1] = -head * own
                    r.append(pivot * rb[-1])
                    g = math.gcd(*r)
                    if g > 1:
                        r = [x // g for x in r]
                del r[col]
                if any(r[:width]):
                    kept.append((b, r))
                else:
                    circuits.add(frozenset([b, *(s for s, x in zip(child, r[width:-1]) if x)]))
            yield child, kept

    root = [(m, [*images[m], 1]) for m in candidates if any(images[m])]
    # the generator on top of the stack yields the nodes of size len(stack),
    # whose rows find the circuits of size len(stack) + 1; a node's own
    # children are visited only if theirs are within the limit
    stack = [children((), root)] if limit >= 2 else []
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(stack) + 2 <= limit:
            stack.append(children(*node))
    return frozenset(circuits), truncated


def is_circuit(W: GradedMatrix, S) -> bool:
    """Rank-criterion membership test: S dependent, all proper subsets not."""
    S = list(S)
    if not S or len(set(S)) != len(S):
        return False
    p = W.ring.field.characteristic
    images = _quotient_images(W)
    if any(m not in images for m in S):
        return False
    vecs = [images[m] for m in S]
    if exact_rank(vecs, p) == len(vecs):
        return False
    for i in range(len(S)):
        rest = vecs[:i] + vecs[i + 1 :]
        if rest and exact_rank(rest, p) < len(rest):
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
    return CircuitsSet.build(mapping, truncated=truncated)


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
    return CircuitsSet.build(mapping, truncated=T.truncated)


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
    bounded weight, largest threshold first.

    The rank relative to the monomials of weight below a is the number of
    ``weight_echelon`` rows whose leading monomial weighs at least a: W
    meets their span in the span of the rows with lighter leads.
    """
    w = make_weight(w)
    if list(w) != sorted(w, reverse=True) or (w and w[-1] < 0):
        raise ValueError("weight must be sorted non-increasing and non-negative")
    d = W.degree
    top = (w[0] if w else 0) * d
    lead_weights = [max(weight_value(m, w) for m in f.terms) for f in weight_echelon(W, w)]
    values = tuple(sum(v >= a for v in lead_weights) for a in range(top, 0, -1))
    return AlphaVector(d, w, values)
