"""Exact linear algebra on graded pieces: coordinate matrices, ranks and
relative rank functionals."""
from __future__ import annotations

from dataclasses import dataclass

from .elim import clear_denominators, rank_bareiss, rref
from .order import CANONICAL, DRL, MonomialOrder, weighted
from .ring import (
    Polynomial,
    PolyRing,
    initial_form_w,
    monomials_of_degree,
)


@dataclass(frozen=True)
class GradedMatrix:
    """Reduced row echelon basis of a subspace of the degree-d graded piece.

    Columns are indexed by the degree-d monomials, listed in descending
    column order; the ``rref`` rows of ints span the subspace: primitive
    with a positive pivot over Q, monic in [0, p) over GF(p), so an entry is
    zero exactly when it is falsy.
    """

    ring: PolyRing
    degree: int
    order: MonomialOrder
    basis: tuple  # monomials, descending in `order`
    rows: tuple  # tuple of int tuples, in reduced echelon form

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.basis)

    def row_polynomials(self) -> list:
        return [
            Polynomial(self.ring, {m: c for m, c in zip(self.basis, row) if c})
            for row in self.rows
        ]

    def support_columns(self) -> list:
        """Monomials appearing in the support of some element of the space."""
        return [m for m, column in zip(self.basis, zip(*self.rows)) if any(column)]


# ---------------------------------------------------------------------------
# ranks


def integer_rows(rows):
    """Clear denominators rowwise, mapping rational rows to integer rows."""
    return [clear_denominators(r) for r in rows]


def exact_rank(rows, p: int) -> int:
    """Rank over Q (``p`` 0), on denominator-cleared rows, or over GF(p), by
    ``rank_bareiss``: the length of an echelon."""
    return rank_bareiss(rows if p else integer_rows(rows), p)


# ---------------------------------------------------------------------------
# graded matrices


def span_matrix(ring: PolyRing, degree: int, polys, order: MonomialOrder = CANONICAL) -> GradedMatrix:
    """Echelonized coordinate matrix of the span of degree-d polynomials."""
    basis = sorted(monomials_of_degree(ring.n, degree), key=order.key, reverse=True)
    index = {m: j for j, m in enumerate(basis)}
    raw = []
    for f in polys:
        if f.is_zero():
            continue
        row = [0] * len(basis)
        for m, c in f.terms.items():
            if sum(m) != degree:
                raise ValueError("polynomial not homogeneous of the requested degree")
            row[index[m]] = c
        raw.append(row)
    rows = rref(raw, ring.field.characteristic)
    return GradedMatrix(ring, degree, order, tuple(basis), tuple(rows))


def graded_basis(ideal, d: int) -> GradedMatrix:
    """Echelon basis of the degree-d piece of a homogeneous ideal.

    Accepts any object with ``ring`` and ``generators`` attributes.
    """
    ring = ideal.ring
    if d < 0:
        raise ValueError("degree must be non-negative")
    polys = []
    for g in ideal.generators:
        gap = d - g.degree()
        if gap < 0:
            continue
        for m in monomials_of_degree(ring.n, gap):
            polys.append(g.mul_monomial(m))
    return span_matrix(ring, d, polys)


def rank_rel(W: GradedMatrix, S) -> int:
    """Relative rank of a set S of distinct degree-d monomials against a
    subspace W of the degree-d piece: dim(W + <S>) - |S|."""
    S = list(S)
    for m in S:
        if sum(m) != W.degree:
            raise ValueError(f"monomial {m} has wrong degree")
    if len(set(S)) != len(S):
        raise ValueError("monomial set has repeats")
    index = {m: j for j, m in enumerate(W.basis)}
    rows = [list(r) for r in W.rows]
    for m in S:
        row = [0] * W.ncols
        row[index[m]] = 1
        rows.append(row)
    return exact_rank(rows, W.ring.field.characteristic) - len(S)


def reechelon(W: GradedMatrix, order: MonomialOrder) -> GradedMatrix:
    """The same subspace echelonized against a different column order."""
    if order == W.order:
        return W
    return span_matrix(W.ring, W.degree, W.row_polynomials(), order)


def initial_space_w(W: GradedMatrix, w, tie: MonomialOrder = DRL) -> GradedMatrix:
    """Span of the weight initial forms of the subspace, canonical columns."""
    if W.dim == 0:
        return span_matrix(W.ring, W.degree, [], CANONICAL)
    weighted_order = weighted(w, tie=tie)
    ech = reechelon(W, weighted_order)
    forms = [initial_form_w(f, w) for f in ech.row_polynomials()]
    return span_matrix(W.ring, W.degree, forms, CANONICAL)
