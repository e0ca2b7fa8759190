"""Exact elimination over Q or GF(p) and denominator clearing.

The one place where the package does Gaussian elimination, and it has one
loop: ``residual``, the fraction-free reduction of a vector against an
``echelon``.  Ranks and reduced row echelon forms are read off echelons.
Every function takes the field's characteristic ``p``: 0 for the rationals
(rows of integers, or of fractions where stated), a prime for GF(p); every
function returns ints.  Also the clearing of rational vectors to integer
ones.  Imports nothing from the package.
"""
from __future__ import annotations

import math
from fractions import Fraction


def rref(rows, p: int = 0):
    """Reduced row echelon form, unique for the span, over Q (``p`` 0; ints
    or Fractions) or GF(p), as int tuples.  Each row of the ``echelon``,
    sorted by pivot column, is reduced against the later ones, which leaves
    it primitive over Q; then its pivot is made positive (Q) or 1 (GF(p))."""
    if not p:
        rows = [clear_denominators(r)[0] for r in rows]
    ech = sorted(echelon(rows, p), key=lambda e: e[0])
    out = []
    for i, (col, row) in enumerate(ech):
        r = residual(ech[i + 1 :], row, p)
        if p:
            inv = pow(r[col], -1, p)
            r = [x * inv % p for x in r]
        elif r[col] < 0:
            r = [-x for x in r]
        out.append(tuple(r))
    return out


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


def clear_denominators(values) -> tuple:
    """(ints, den): the rational vector times den, the lcm of its
    denominators, as ints.  An all-int vector comes back as a tuple with
    den 1, and nothing else is done to it.

    Entries may be ints, Fractions or anything ``Fraction()`` accepts.
    """
    values = tuple(values)
    if all(type(v) is int for v in values):
        return values, 1
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    lcm = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (lcm // f.denominator) for f in fracs), lcm
