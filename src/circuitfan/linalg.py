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
    mono_degree,
    monomials_of_degree,
    weight_value,
)


@dataclass(frozen=True)
class GradedMatrix:
    """Reduced row echelon basis of a subspace of the degree-d graded piece.

    Columns are indexed by the degree-d monomials, listed in descending
    column order; rows span the subspace.
    """

    ring: PolyRing
    degree: int
    order: MonomialOrder
    basis: tuple  # monomials, descending in `order`
    rows: tuple  # tuple of tuples of scalars, in RREF

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.basis)

    def row_polynomials(self) -> list:
        out = []
        for row in self.rows:
            terms = {m: c for m, c in zip(self.basis, row) if not self.ring.field.is_zero(c)}
            out.append(Polynomial(self.ring, terms))
        return out

    def support_columns(self) -> list:
        """Monomials appearing in the support of some element of the space."""
        fld = self.ring.field
        return [
            m
            for j, m in enumerate(self.basis)
            if any(not fld.is_zero(row[j]) for row in self.rows)
        ]


# ---------------------------------------------------------------------------
# ranks


def integer_rows(rows):
    """Clear denominators rowwise, mapping rational rows to integer rows."""
    return [clear_denominators(r) for r in rows]


def exact_rank(rows, fld) -> int:
    """Rank over the field by ``rank_bareiss``, the length of an echelon:
    over the rationals on denominator-cleared rows, over GF(p) modulo p."""
    p = fld.characteristic
    return rank_bareiss(rows if p else integer_rows(rows), p)


# ---------------------------------------------------------------------------
# graded matrices


def span_matrix(ring: PolyRing, degree: int, polys, order: MonomialOrder = CANONICAL) -> GradedMatrix:
    """Echelonized coordinate matrix of the span of degree-d polynomials."""
    basis = sorted(monomials_of_degree(ring.n, degree), key=order.key, reverse=True)
    index = {m: j for j, m in enumerate(basis)}
    fld = ring.field
    raw = []
    for f in polys:
        if f.is_zero():
            continue
        row = [fld.zero] * len(basis)
        for m, c in f.terms.items():
            if sum(m) != degree:
                raise ValueError("polynomial not homogeneous of the requested degree")
            row[index[m]] = c
        raw.append(row)
    rows, _ = rref(raw, fld.characteristic)
    return GradedMatrix(ring, degree, order, tuple(basis), tuple(rows))


def graded_basis(ideal, d: int, order: MonomialOrder = CANONICAL) -> GradedMatrix:
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
    return span_matrix(ring, d, polys, order)


def rank_rel(W: GradedMatrix, S, mode: str) -> int:
    """Relative ranks of a monomial set against a subspace.

    mode "sub": dim(W + <S>) - dim W;  mode "sup": dim(W + <S>) - |S|.
    """
    if mode not in ("sub", "sup"):
        raise ValueError("mode must be 'sub' or 'sup'")
    S = list(S)
    for m in S:
        if mono_degree(m) != W.degree:
            raise ValueError(f"monomial {m} has wrong degree")
    if len(set(S)) != len(S):
        raise ValueError("monomial set has repeats")
    fld = W.ring.field
    index = {m: j for j, m in enumerate(W.basis)}
    rows = [list(r) for r in W.rows]
    for m in S:
        row = [fld.zero] * W.ncols
        row[index[m]] = fld.one
        rows.append(row)
    total = exact_rank(rows, fld)
    if mode == "sub":
        return total - W.dim
    return total - len(S)


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


def weight_component_dims(W: GradedMatrix, w, tie: MonomialOrder = DRL) -> dict:
    """Dimensions of the weight components of the weight initial space."""
    if W.dim == 0:
        return {}
    weighted_order = weighted(w, tie=tie)
    ech = reechelon(W, weighted_order)
    dims = {}
    for f in ech.row_polynomials():
        form = initial_form_w(f, w)
        a = weight_value(next(iter(form.terms)), w)
        dims[a] = dims.get(a, 0) + 1
    return dims
