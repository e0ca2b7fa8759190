"""Exact linear algebra on graded pieces: coordinate matrices, ranks and
weight echelons."""
from __future__ import annotations

from dataclasses import dataclass

from .elim import clear_denominators, echelon, rank_bareiss, rref
from .order import weighted
from .ring import Polynomial, PolyRing, initial_form_w, monomials_of_degree


@dataclass(frozen=True)
class GradedMatrix:
    """Reduced row echelon basis of a subspace of the degree-d graded piece.

    Columns are indexed by the degree-d monomials in canonical (degrevlex)
    descending order, the one column order of every graded piece; the
    ``rref`` rows of ints span the subspace: primitive with a positive pivot
    over Q, monic in [0, p) over GF(p), so an entry is zero exactly when it
    is falsy.  Other orders are read through ``weight_echelon``.
    """

    ring: PolyRing
    degree: int
    basis: tuple  # monomials, canonically descending
    rows: tuple  # tuple of int tuples, in reduced echelon form

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.basis)

    def support_columns(self) -> list:
        """Monomials appearing in the support of some element of the space."""
        return [m for m, column in zip(self.basis, zip(*self.rows)) if any(column)]


# ---------------------------------------------------------------------------
# ranks


def integer_rows(rows):
    """Clear denominators rowwise, mapping rational rows to integer rows."""
    return [clear_denominators(r)[0] for r in rows]


def exact_rank(rows, p: int) -> int:
    """Rank over Q (``p`` 0), on denominator-cleared rows, or over GF(p), by
    ``rank_bareiss``: the length of an echelon."""
    return rank_bareiss(rows if p else integer_rows(rows), p)


# ---------------------------------------------------------------------------
# graded matrices


def span_matrix(ring: PolyRing, degree: int, polys) -> GradedMatrix:
    """Echelonized coordinate matrix of the span of degree-d polynomials."""
    basis = monomials_of_degree(ring.n, degree)
    index = {m: j for j, m in enumerate(basis)}
    raw = []
    for f in polys:
        row = [0] * len(basis)
        for m, c in f.terms.items():
            if sum(m) != degree:
                raise ValueError("polynomial not homogeneous of the requested degree")
            row[index[m]] = c
        raw.append(row)
    rows = rref(raw, ring.field.characteristic)
    return GradedMatrix(ring, degree, tuple(basis), tuple(rows))


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


def weight_echelon(W: GradedMatrix, w) -> list:
    """A basis of W whose leading monomials in the w-weight order are
    distinct: one ``echelon`` of W's rows on its columns sorted descending in
    that order, as polynomials.

    A combination of the rows leads with the largest lead among its rows, so
    their initial forms span in_w(W), and the weights of their leads are the
    weights of in_w(W)'s components, with multiplicity; neither fact
    depends on the order that breaks weight ties, so none is taken.
    """
    key = weighted(w).key
    cols = sorted(range(W.ncols), key=lambda j: key(W.basis[j]), reverse=True)
    rows = echelon([[r[j] for j in cols] for r in W.rows], W.ring.field.characteristic)
    return [
        Polynomial(W.ring, {W.basis[j]: c for j, c in zip(cols, row) if c})
        for _, row in rows
    ]


def initial_space_w(W: GradedMatrix, w) -> GradedMatrix:
    """The weight initial space in_w(W), unique for each weight: the span of
    the initial forms of the ``weight_echelon``."""
    forms = [initial_form_w(f, w) for f in weight_echelon(W, w)]
    return span_matrix(W.ring, W.degree, forms)
