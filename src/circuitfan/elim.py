"""Exact elimination over a field and denominator clearing.

The one place where the package does Gaussian elimination: reduced row
echelon form and inverses over any field object, one fraction-free rank
kernel for the integers and GF(p), a fraction-free echelon with residuals
and a parallelism test for incremental independence checks, and the
clearing of rational vectors to integer ones.  Imports nothing from the
package.
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
    ``(pivot*a - head*b) % p``, with no division.  Rows below a pivot are
    zero left of its column, so only the columns from the pivot rightwards
    are rewritten."""
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
            row = m[i]
            head = row[col]
            if p:
                row[col:] = [(pivot * a - head * b) % p for a, b in zip(row[col:], top[col:])]
            else:
                row[col:] = [(pivot * a - head * b) // prev for a, b in zip(row[col:], top[col:])]
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def echelon(rows, p: int = 0) -> list:
    """Fraction-free row echelon of linearly independent rows over the
    integers (``p`` 0) or GF(p), as a list of (pivot column, row) pairs.

    Each row is the ``residual`` of an input row against the rows before
    it, so it is zero on their pivot columns, and its pivot is its first
    nonzero entry.  Raises ValueError when the rows are dependent.
    """
    ech = []
    for r in rows:
        r = residual(ech, r, p)
        col = next((j for j, x in enumerate(r) if x), None)
        if col is None:
            raise ValueError("rows are linearly dependent")
        ech.append((col, r))
    return ech


def residual(ech, v, p: int = 0) -> list:
    """The vector v reduced against an ``echelon``: a nonzero multiple of v
    minus a combination of its rows, zero on every pivot column, and zero
    exactly when v lies in their span.

    Each step is ``pivot*a - head*b`` over the whole row.  Over the integers
    the result is divided by its content; over GF(p) entries are reduced
    mod p on entry and at each step.
    """
    v = [x % p for x in v] if p else list(v)
    for col, row in ech:
        head = v[col]
        if not head:
            continue
        pivot = row[col]
        if p:
            v = [(pivot * a - head * b) % p for a, b in zip(v, row)]
        else:
            v = [pivot * a - head * b for a, b in zip(v, row)]
    if not p:
        g = math.gcd(*v)
        if g > 1:
            v = [x // g for x in v]
    return v


def parallel(a, b, p: int = 0) -> bool:
    """Whether b is a multiple of the nonzero vector a, over the integers
    (``p`` 0) or GF(p): every 2x2 minor against the first nonzero entry of a
    vanishes."""
    j = next(i for i, x in enumerate(a) if (x % p if p else x))
    aj, bj = a[j], b[j]
    if p:
        return all((aj * y - bj * x) % p == 0 for x, y in zip(a, b))
    return all(aj * y == bj * x for x, y in zip(a, b))


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
