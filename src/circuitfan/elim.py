"""Exact elimination over Q or GF(p) and denominator clearing.

The one place where the package does Gaussian elimination, and it has one
loop: ``residual``, the fraction-free reduction of a vector against an
``echelon``.  Ranks, reduced row echelon forms and inverses are all read
off echelons.  Every function takes the field's characteristic ``p``: 0
for the rationals (rows of integers, or of fractions where stated), a
prime for GF(p).  Also the parallelism test for incremental independence
checks and the clearing of rational vectors to integer ones.  Imports
nothing from the package.
"""
from __future__ import annotations

import math
from fractions import Fraction


def rref(rows, p: int = 0):
    """Reduced row echelon form over Q (``p`` 0; ints or Fractions) or
    GF(p); returns (rows, pivot columns), entries Fractions over Q and ints
    in [0, p) over GF(p).

    Rows are cleared of denominators, put in fraction-free ``echelon``,
    sorted by pivot column, and each is reduced against the rows with
    larger pivot columns before its pivot is scaled to 1.
    """
    if not p:
        rows = [clear_denominators(r) for r in rows]
    ech = sorted(echelon(rows, p), key=lambda e: e[0])
    out = []
    for i, (col, row) in enumerate(ech):
        r = residual(ech[i + 1 :], row, p)
        pivot = r[col]
        if p:
            inv = pow(pivot, -1, p)
            out.append(tuple(x * inv % p for x in r))
        else:
            out.append(tuple(Fraction(x, pivot) for x in r))
    return out, [col for col, _ in ech]


def rank_bareiss(rows, p: int = 0) -> int:
    """Rank over the integers (``p`` 0) or GF(p): the length of the rows'
    ``echelon``.  No longer Bareiss elimination; the name stays because
    ``linalg`` exports it and the benchmark tracer binds it there."""
    return len(echelon(rows, p))


def echelon(rows, p: int = 0) -> list:
    """Fraction-free row echelon of integer rows (``p`` 0) or rows over
    GF(p), as a list of (pivot column, row) pairs, one per row that is
    independent of the rows before it; its length is the rank.

    Each kept row is the ``residual`` of an input row against the rows kept
    before it, so it is zero on their pivot columns, and its pivot is its
    first nonzero entry.  Rows whose residual is zero are dropped.
    """
    ech = []
    for r in rows:
        r = residual(ech, r, p)
        col = next((j for j, x in enumerate(r) if x), None)
        if col is not None:
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


def inverse(rows, p: int = 0) -> tuple:
    """Inverse of a square matrix over Q (``p`` 0) or GF(p), read off the
    reduced row echelon form of ``[M | I]``; raises ValueError when M is
    singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    ech, pivots = rref(aug, p)
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
