"""Exact elimination over a field and denominator clearing.

The one place where the package does Gaussian elimination: reduced row
echelon form and inverses over any field object, one fraction-free rank
kernel for the integers and GF(p), and the clearing of rational vectors to
integer ones.  Imports nothing from the package.
"""
from __future__ import annotations

import math
from fractions import Fraction


def rref(rows, fld):
    """Reduced row echelon form over a field; returns (rows, pivot columns)."""
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


def rank_bareiss(rows, p: int = 0) -> int:
    """Rank by fraction-free elimination: exact Bareiss (1968) over the
    integers when ``p`` is 0, each step divided by the previous pivot; over
    GF(p), entries reduced mod p on entry and each step taken as
    ``(pivot*a - head*b) % p``, with no division."""
    m = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        pivot = top[col]
        for i in range(rank + 1, nrows):
            head = m[i][col]
            if p:
                m[i] = [(pivot * a - head * b) % p for a, b in zip(m[i], top)]
            else:
                m[i] = [(pivot * a - head * b) // prev for a, b in zip(m[i], top)]
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def inverse(rows, fld) -> tuple:
    """Inverse of a square matrix over a field, read off the reduced row
    echelon form of ``[M | I]``; raises ValueError when M is singular."""
    n = len(rows)
    aug = [
        list(r) + [fld.one if i == j else fld.zero for j in range(n)]
        for i, r in enumerate(rows)
    ]
    ech, pivots = rref(aug, fld)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(r[n:] for r in ech)


def clear_denominators(values) -> tuple:
    """The rational vector times the lcm of its denominators, as ints.

    Entries may be ints, Fractions or anything ``Fraction()`` accepts.
    """
    values = tuple(values)
    if all(type(v) is int for v in values):
        return values
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    lcm = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (lcm // f.denominator) for f in fracs)
