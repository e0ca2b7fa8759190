"""Reduced Groebner bases, weight initial ideals, Hilbert functions,
lex-segment ideals and the one-parameter flat family."""
from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .elim import clear_denominators
from .order import CANONICAL, DRL, MonomialOrder, leading_monomial, leading_term, weighted
from .ring import (
    Polynomial,
    PolyRing,
    RationalField,
    Substitution,
    dim_degree,
    field_from_spec,
    homogenize_w,
    initial_form_w,
    make_weight,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    poly_str,
    specialize_last,
)


class MacaulayError(ValueError):
    """The supplied Hilbert data is not realized by any lex-segment ideal."""


class CapTooSmallError(ValueError):
    """Lex-segment generators did not stabilize within the cap; raise it."""


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    elements: tuple  # monic polynomials, canonically sorted

    def leading_monomials(self) -> list:
        return [leading_monomial(g, self.order) for g in self.elements]


class IdealHandle:
    """Homogeneous ideal given by generators, with cached reduced bases."""

    def __init__(self, ring: PolyRing, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero():
                raise ValueError("zero generator")
            if not g.is_homogeneous():
                raise ValueError(f"generator {poly_str(g)} is not homogeneous")
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._cache = {}

    def groebner(self, order: MonomialOrder = CANONICAL) -> GroebnerBasis:
        """Reduced basis for the order: cached, else a cached basis that is
        also reduced for it, else computed by Buchberger."""
        gb = self._cache.get(order)
        if gb is None:
            gb = self._cache[order] = self._reuse(order) or buchberger_reduced(self, order)
        return gb

    def _reuse(self, order: MonomialOrder):
        for held in self._cache.values():
            # homogeneous ideal: unchanged leading monomials generate in_held(I),
            # which has the Hilbert function of in_order(I), so they generate
            # in_order(I) and the monic, reduced held basis is the reduced one
            if all(
                leading_monomial(g, order) == leading_monomial(g, held.order)
                for g in held.elements
            ):
                elements = sorted(held.elements, key=lambda g: order.key(leading_monomial(g, order)))
                return GroebnerBasis(order, tuple(elements))
        return None

    def is_zero(self) -> bool:
        return not self.generators

    def __repr__(self):
        gens = ", ".join(poly_str(g) for g in self.generators)
        return f"IdealHandle({self.ring}; {gens})"


# ---------------------------------------------------------------------------
# division and Buchberger


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by G; no remainder monomial is divisible by
    a leading monomial of G."""
    order = G.order
    ring = f.ring
    fld = ring.field
    reducers = [(leading_term(g, order), g) for g in G.elements]
    key = order.key

    def entry(m):
        return tuple(map(operator.neg, key(m))), m

    # in-place elimination on a plain dict: every monomial introduced by a
    # reduction step is strictly below the eliminated one, so moving maximal
    # irreducible terms to the remainder is safe.  The heap holds negated
    # order keys, pushed when a monomial enters the work dict; an entry whose
    # monomial has since cancelled is stale and skipped.
    work = dict(f.terms)
    heap = [entry(m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for (lm, lc), g in reducers:
            if mono_divides(lm, m):
                factor = mono_div(m, lm)
                coeff = fld.div(c, lc)
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    t = mono_mul(gm, factor)
                    old = work.get(t)
                    if old is None:
                        work[t] = fld.neg(fld.mul(coeff, gc))
                        heapq.heappush(heap, entry(t))
                        continue
                    v = fld.sub(old, fld.mul(coeff, gc))
                    if fld.is_zero(v):
                        del work[t]
                    else:
                        work[t] = v
                break
        else:
            remainder[m] = c
    return Polynomial(ring, remainder)


def _s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    fld = f.ring.field
    (mf, cf) = leading_term(f, order)
    (mg, cg) = leading_term(g, order)
    lcm = mono_lcm(mf, mg)
    a = f.mul_monomial(mono_div(lcm, mf)).scale(fld.invert(cf))
    b = g.mul_monomial(mono_div(lcm, mg)).scale(fld.invert(cg))
    return a - b


def _monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    _, c = leading_term(f, order)
    return f.scale(f.ring.field.invert(c))


def _primitive_scaled(f: Polynomial, order: MonomialOrder) -> Polynomial:
    # over the rationals, monic intermediate elements blow up coefficient
    # sizes; scale to coprime integers with a positive leading coefficient
    fld = f.ring.field
    if not isinstance(fld, RationalField):
        return _monic(f, order)
    ints = clear_denominators(f.terms.values())
    g = math.gcd(*ints)
    _, lc = leading_term(f, order)
    if lc < 0:
        g = -g
    return Polynomial(f.ring, {m: Fraction(c // g) for m, c in zip(f.terms, ints)})


def buchberger_reduced(ideal: IdealHandle, order: MonomialOrder = CANONICAL) -> GroebnerBasis:
    """Unique reduced Groebner basis; normal pair selection, coprime-pair
    criterion, then minimalization and autoreduction."""
    ring = ideal.ring
    basis = [_primitive_scaled(g, order) for g in ideal.generators]
    # drop duplicates up front
    seen = set()
    basis = [g for g in basis if not (g in seen or seen.add(g))]
    lm = [leading_monomial(g, order) for g in basis]
    pairs = set()
    queue = []

    def add_pairs(k):
        # homogeneous input: processing by S-polynomial degree keeps low-degree
        # reducers available early even under non-graded weight orders; each
        # pair is keyed once, ties go by (i, j)
        for i in range(k):
            l = mono_lcm(lm[i], lm[k])
            pairs.add((i, k))
            heapq.heappush(queue, (sum(l), order.key(l), i, k))

    def chain_criterion(i, j):
        l = mono_lcm(lm[i], lm[j])
        for k in range(len(basis)):
            if k in (i, j) or not mono_divides(lm[k], l):
                continue
            if (min(i, k), max(i, k)) not in pairs and (
                min(j, k),
                max(j, k),
            ) not in pairs:
                return True
        return False

    for k in range(len(basis)):
        add_pairs(k)
    while queue:
        _, _, i, j = heapq.heappop(queue)
        pairs.remove((i, j))
        if mono_mul(lm[i], lm[j]) == mono_lcm(lm[i], lm[j]):
            continue  # coprime leading monomials
        if chain_criterion(i, j):
            continue
        s = _s_polynomial(basis[i], basis[j], order)
        h = normal_form(s, GroebnerBasis(order, tuple(basis)))
        if h.is_zero():
            continue
        h = _primitive_scaled(h, order)
        basis.append(h)
        lm.append(leading_monomial(h, order))
        add_pairs(len(basis) - 1)

    # minimalize: keep only elements whose leading monomial is not divisible
    # by another kept leading monomial
    keep = []
    for i in range(len(basis)):
        mi = lm[i]
        redundant = False
        for j in range(len(basis)):
            if i == j:
                continue
            if mono_divides(lm[j], mi) and (lm[j] != mi or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)

    # autoreduce tails
    final = [basis[i] for i in keep]
    changed = True
    while changed:
        changed = False
        for i in range(len(final)):
            others = GroebnerBasis(order, tuple(final[:i] + final[i + 1 :]))
            r = normal_form(final[i], others)
            if r != final[i]:
                final[i] = _primitive_scaled(r, order)
                changed = True

    final = [_monic(g, order) for g in final]
    final.sort(key=lambda g: order.key(leading_monomial(g, order)))
    return GroebnerBasis(order, tuple(final))


# ---------------------------------------------------------------------------
# initial ideals and equality


def initial_ideal(I: IdealHandle, order: MonomialOrder = CANONICAL) -> IdealHandle:
    """Monomial ideal of leading monomials of the reduced basis."""
    gb = I.groebner(order)
    ring = I.ring
    return IdealHandle(ring, [ring.monomial(m) for m in gb.leading_monomials()])


def initial_ideal_w(I: IdealHandle, w, tie: MonomialOrder = DRL) -> IdealHandle:
    """Ideal generated by the weight initial forms of the weight-refined
    reduced basis; generally not monomial."""
    w = make_weight(w)
    gb = I.groebner(weighted(w, tie=tie))
    forms = [initial_form_w(g, w) for g in gb.elements]
    J = IdealHandle(I.ring, forms)
    # the initial forms of the weight-refined reduced basis are a tie-Groebner
    # basis of in_w(I); each keeps its element's leading term and a subset of
    # its tail, so they are monic and reduced: the tie-reduced basis
    forms.sort(key=lambda g: tie.key(leading_monomial(g, tie)))
    J._cache[tie] = GroebnerBasis(tie, tuple(forms))
    return J


def ideal_equal(I: IdealHandle, J: IdealHandle) -> bool:
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    return I.groebner(CANONICAL).elements == J.groebner(CANONICAL).elements


def transform_ideal(s: Substitution, I: IdealHandle) -> IdealHandle:
    return IdealHandle(I.ring, [s.apply(g) for g in I.generators])


# ---------------------------------------------------------------------------
# Hilbert functions and lex segments


@dataclass(frozen=True)
class HilbertData:
    n: int
    dmax: int
    ideal_dims: tuple  # dim I_d for d = 0..dmax

    def quotient_dims(self) -> tuple:
        return tuple(dim_degree(self.n, d) - v for d, v in enumerate(self.ideal_dims))


def _ideal_dims(I: IdealHandle):
    """dim I_0, dim I_1, ... without end, counted from the canonical initial
    ideal."""
    lms = [] if I.is_zero() else I.groebner(CANONICAL).leading_monomials()
    for d in itertools.count():
        monos = monomials_of_degree(I.ring.n, d) if lms else ()
        yield sum(1 for m in monos if any(mono_divides(l, m) for l in lms))


def hilbert_function(I: IdealHandle, dmax: int) -> HilbertData:
    """dim I_d for 0 <= d <= dmax, counted from the canonical initial ideal."""
    if dmax < 0:
        raise ValueError("dmax must be non-negative")
    return HilbertData(I.ring.n, dmax, tuple(itertools.islice(_ideal_dims(I), dmax + 1)))


def _lex_read(ring: PolyRing, dims, delta: int):
    """Lex-segment ideal of the ideal dims dims[0], dims[1], ..., with its top
    generator degree; reading stops at the end of dims or at the first degree
    past delta that brings no new generator."""
    n = ring.n
    generators = []
    top_degree = 0
    prev = set()
    for d, want in enumerate(dims):
        monos = sorted(monomials_of_degree(n, d), reverse=True)  # lex descending
        if want < 0 or want > len(monos):
            raise MacaulayError(f"dim {want} out of range in degree {d}")
        seg = monos[:want]
        grown = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in prev for i in range(n)}
        if not grown <= set(seg):
            raise MacaulayError(f"lex segment in degree {d} is not an ideal step")
        new = [m for m in seg if m not in grown]
        if new:
            generators.extend(new)
            top_degree = d
        elif d > delta:
            break
        prev = set(seg)
    return IdealHandle(ring, [ring.monomial(m) for m in generators]), top_degree


def lex_segment(H: HilbertData, ring: PolyRing, cap: int):
    """Lex-segment ideal realizing the Hilbert data up to degree cap, with its
    top generator degree.

    Returns (monomial IdealHandle, D).  Raises MacaulayError when the data is
    not realized by degreewise lex segments, and CapTooSmallError when a
    generator appears in degree cap itself.  Data up to cap cannot show that no
    generator comes later: only lex_bound certifies that D is final.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    if cap > H.dmax:
        raise ValueError("cap exceeds the available Hilbert data")
    L, D = _lex_read(ring, H.ideal_dims[: cap + 1], cap)
    if D == cap:
        raise CapTooSmallError(
            f"lex-segment generators appear in degree {cap}; increase cap beyond {cap}"
        )
    return L, D


def lex_bound(I: IdealHandle, cap: int = None):
    """Lex-segment ideal with I's Hilbert function and its top generator
    degree D, certified final.

    Returns (lex-segment IdealHandle, D).  Let delta be the top generator
    degree of the canonical initial ideal.  The Hilbert function is read from
    degree 0 until a degree c > delta brings no lex generator.  Then it grows
    maximally from c - 1 to c (Macaulay), and as in(I) is generated in degrees
    <= c - 1, Gotzmann's persistence theorem keeps that growth maximal in every
    later degree, so no lex generator comes after c - 1 (Bruns & Herzog,
    Cohen-Macaulay Rings, 4.2-4.3).  The last degree read is D + 1.  An
    explicit cap reads up to cap instead and raises CapTooSmallError unless it
    passes delta and brings no generator.
    """
    lms = [] if I.is_zero() else I.groebner(CANONICAL).leading_monomials()
    delta = max(map(sum, lms), default=0)
    if cap is None:
        return _lex_read(I.ring, _ideal_dims(I), delta)
    L, D = lex_segment(hilbert_function(I, cap), I.ring, cap)
    if cap <= delta:
        raise CapTooSmallError(
            f"in(I) has generators in degree {delta}; increase cap beyond {delta}"
        )
    return L, D


# ---------------------------------------------------------------------------
# flat family


@dataclass(frozen=True)
class HomogenizedIdeal:
    base: IdealHandle
    weight: tuple
    ring_t: PolyRing
    generators: tuple  # polynomials in the extended ring


def homogenize_ideal_w(I: IdealHandle, w, tie: MonomialOrder = DRL) -> HomogenizedIdeal:
    """Homogenize the weight-refined reduced basis with an extra variable.

    The resulting family interpolates the ideal (t=1), its weight initial
    ideal (t=0) and its diagonal coordinate changes (t=a, a nonzero).
    """
    w = make_weight(w)
    ring_t = I.ring.extended()
    gb = I.groebner(weighted(w, tie=tie))
    gens = tuple(homogenize_w(g, w, ring_t) for g in gb.elements)
    return HomogenizedIdeal(I, w, ring_t, gens)


def specialize_t(H: HomogenizedIdeal, a) -> IdealHandle:
    ring = H.base.ring
    polys = [specialize_last(g, a, ring) for g in H.generators]
    return IdealHandle(ring, [f for f in polys if not f.is_zero()])


# ---------------------------------------------------------------------------
# ideal file format


def parse_ideal_file(text: str):
    """Parse the ideal file format.

    Header declares ``ring: Q | GF(p)`` and ``vars: x,y,z``; a ``gens:`` line
    is followed by one polynomial per line.  Returns (ring, IdealHandle).
    """
    fld = None
    names = None
    gens = []
    in_gens = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_gens:
            gens.append((lineno, line))
            continue
        for part in line.split(";"):
            part = part.strip()
            if not part:
                continue
            if part.lower().startswith("ring:"):
                fld = field_from_spec(part[5:])
            elif part.lower().startswith("vars:"):
                names = tuple(v.strip() for v in part[5:].split(","))
            elif part.lower() == "gens:":
                in_gens = True
            else:
                raise ValueError(f"line {lineno}: unexpected {part!r}")
    if fld is None or names is None:
        raise ValueError("missing ring or vars header")
    ring = PolyRing(names, fld)
    polys = []
    for lineno, line in gens:
        try:
            polys.append(ring.parse(line))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from e
    return ring, IdealHandle(ring, polys)


def ideal_file_text(I: IdealHandle) -> str:
    ring = I.ring
    head = f"ring: {ring.field}; vars: {','.join(ring.names)}"
    lines = [head, "gens:"] + [poly_str(g) for g in I.generators]
    return "\n".join(lines) + "\n"


def basis_json(gb: GroebnerBasis) -> dict:
    return {
        "order": str(gb.order),
        "elements": [poly_str(g) for g in gb.elements],
        "reduced": True,
    }
