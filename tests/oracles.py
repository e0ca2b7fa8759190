"""Independent test oracles: textbook Gauss-Jordan elimination over a field
object, and brute-force circuit enumeration straight from the rank
criterion, with no pruning and no quotient-space shortcut."""
import itertools

from circuitfan.linalg import GradedMatrix, rank_rel
from circuitfan.ring import monomials_of_degree


def rref_reference(rows, fld):
    """Reduced row echelon form by Gauss-Jordan elimination, one field
    operation per entry; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if not fld.is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = fld.invert(rows[rank][col])
        rows[rank] = [fld.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not fld.is_zero(rows[i][col]):
                factor = rows[i][col]
                rows[i] = [fld.sub(x, fld.mul(factor, y)) for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return [tuple(r) for r in rows[:rank]], pivots


def rank_reference(rows, fld) -> int:
    """Rank as the number of Gauss-Jordan pivots."""
    return len(rref_reference(rows, fld)[1])


def inverse_reference(rows, fld) -> tuple:
    """Inverse from the Gauss-Jordan form of ``[M | I]``, or None when M is
    singular."""
    n = len(rows)
    aug = [list(r) + [fld.one if i == j else fld.zero for j in range(n)] for i, r in enumerate(rows)]
    ech, pivots = rref_reference(aug, fld)
    if pivots != list(range(n)):
        return None
    return tuple(r[n:] for r in ech)


def circuits_bruteforce(W: GradedMatrix) -> frozenset:
    """Every nonempty monomial subset is tested: dependent with all maximal
    proper subsets independent."""
    if W.dim == 0:
        return frozenset()
    monos = monomials_of_degree(W.ring.n, W.degree)
    dependent = {}
    for size in range(1, len(monos) + 1):
        for combo in itertools.combinations(monos, size):
            s = frozenset(combo)
            dependent[s] = rank_rel(W, combo, "sub") < len(combo)
    circuits = set()
    for s, dep in dependent.items():
        if not dep:
            continue
        if len(s) == 1 or all(not dependent[s - {m}] for m in s):
            circuits.add(s)
    return frozenset(circuits)
