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
from .order import CANONICAL, DRL, MonomialOrder, leading_monomial, weighted
from .ring import (
    Polynomial,
    PolyRing,
    Substitution,
    dim_degree,
    field_from_spec,
    homogenize_w,
    initial_form_w,
    make_weight,
    mono_divides,
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
# division and Buchberger on packed monomials
#
# After Monagan & Pearce 2007, "Polynomial division using dynamic arrays,
# heaps, and packed exponent vectors" (CASC).  Each call turns its order into
# integer rows: unit rows for lex, the partial sums e1 + ... + e(n-k) for
# degrevlex, and for a weight order the weight followed by the tie order's
# rows.  A monomial is then two ints.  Its order key holds the row values in
# equal fields, first row on top, so that int comparison is the order.  Its
# exponent int holds one field per variable with a guard bit on top.  Both are
# linear in the exponents: a product is two additions, and a divides b exactly
# when b - a sets no guard bit.  A packed polynomial is a key-descending list
# of (key, exponent, coefficient).

#: bits beyond the largest input degree: exponents up to 256 times it fit
_HEADROOM_BITS = 8


def _order_rows(order: MonomialOrder, n: int) -> list:
    """Integer rows whose values on an exponent vector, compared
    lexicographically, compare monomials as the order does."""
    if order.kind == "lex":
        return [tuple(int(j == i) for j in range(n)) for i in range(n)]
    if order.kind == "drl":
        # the degree, then e1 + ... + e(n-k): at equal degree, comparing
        # these compares -e(n), -e(n-1), ... in turn
        return [tuple(int(j < n - k) for j in range(n)) for k in range(n)]
    if len(order.weight) != n:
        raise ValueError(
            f"weight {order.weight} has {len(order.weight)} entries for {n} variables"
        )
    return [order.weight] + _order_rows(order.tie, n)


class _Kernel:
    """Packed terms of one ring under one order, and division on them; sized
    for a largest input degree: every exponent up to `limit` fits."""

    def __init__(self, order: MonomialOrder, ring: PolyRing, degree: int):
        self.ring = ring
        self.field = fld = ring.field
        # over GF(p), coefficients are reduced mod p only when read
        self.modulus = fld.characteristic
        n = ring.n
        bits = max(degree, 1).bit_length() + _HEADROOM_BITS
        self.limit = limit = (1 << bits) - 1
        self.shifts = tuple(j * (bits + 1) for j in range(n))
        self.guard = sum(1 << (s + bits) for s in self.shifts)
        # key(m) = sum of row(m) << (field of the row), first row on top.  A
        # row's values on two fitting vectors differ by less than 2^width, so
        # the first unequal row decides the sign of the keys' difference, even
        # where a value is negative and borrows from the field above.
        rows = _order_rows(order, n)
        width = max(limit * sum(map(abs, r)) for r in rows).bit_length()
        tops = [width * i for i in reversed(range(len(rows)))]
        self.var_keys = tuple(sum(r[j] << t for r, t in zip(rows, tops)) for j in range(n))

    def key(self, m) -> int:
        return sum(map(operator.mul, m, self.var_keys))

    def exponent(self, m) -> int:
        return sum(x << s for x, s in zip(m, self.shifts))

    def monomial(self, e) -> tuple:
        return tuple(e >> s & self.limit for s in self.shifts)

    def pack(self, f: Polynomial) -> list:
        return sorted(
            ((self.key(m), self.exponent(m), c) for m, c in f.terms.items()), reverse=True
        )

    def unpack(self, terms) -> Polynomial:
        return Polynomial(self.ring, {self.monomial(e): c for _, e, c in terms})

    def monic(self, terms) -> list:
        fld = self.field
        inv = fld.invert(terms[0][2])
        return [(k, e, fld.mul(c, inv)) for k, e, c in terms]

    def normalized(self, terms) -> list:
        # over the rationals, monic intermediate elements blow up coefficient
        # sizes; scale to coprime integers with a positive leading coefficient
        if self.modulus:
            return self.monic(terms)
        ints = clear_denominators([c for _, _, c in terms])
        g = math.gcd(*ints)
        if terms[0][2] < 0:
            g = -g
        return [(k, e, Fraction(c // g)) for (k, e, _), c in zip(terms, ints)]

    def reducer(self, terms):
        """(leading exponent, leading key, tail, growth) of a packed
        polynomial; the tail's coefficients are negated and divided by the
        leading one, growth is how far its degree passes the leading one's."""
        if not terms:
            raise ValueError("leading term of the zero polynomial")
        lk, le, lc = terms[0]
        fld = self.field
        inv = fld.invert(lc)
        tail = [(k, e, fld.neg(fld.mul(c, inv))) for k, e, c in terms[1:]]
        degree = max((sum(self.monomial(e)) for _, e, _ in tail), default=0)
        return le, lk, tail, max(degree - sum(self.monomial(le)), 0)

    def reduce(self, terms, reducers) -> list:
        """Remainder, key-descending, of the sum of the (key, exponent,
        coefficient) terms on division by the reducers: each greatest term
        goes to the first reducer whose leading monomial divides it, and to
        the remainder if there is none."""
        work, expo = {}, {}
        for k, e, c in terms:
            old = work.get(k)
            work[k] = c if old is None else old + c
            expo[k] = e
        # every key enters the heap once: terms brought in by a reduction step
        # are below the one it removes, so a popped key never comes back, and
        # a cancelled one stays in work as zero
        heap = [-k for k in work]
        heapq.heapify(heap)
        pop, push, guard, modulus = heapq.heappop, heapq.heappush, self.guard, self.modulus
        remainder = []
        while heap:
            k = -pop(heap)
            c = work.pop(k)
            if modulus:
                c %= modulus
            if not c:
                continue
            e = expo[k]
            for le, lk, tail, growth in reducers:
                q = e - le
                if q & guard:
                    continue
                if growth and sum(self.monomial(e)) + growth > self.limit:
                    raise OverflowError(
                        f"a degree past {self.limit} overflows the packed monomials"
                    )
                dk = k - lk
                for gk, ge, gc in tail:
                    t = gk + dk
                    old = work.get(t)
                    if old is None:
                        work[t] = c * gc
                        expo[t] = ge + q
                        push(heap, -t)
                    else:
                        work[t] = old + c * gc
                break
            else:
                remainder.append((k, e, c))
        return remainder


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by G; no remainder monomial is divisible by
    a leading monomial of G."""
    degree = max((sum(m) for g in (f, *G.elements) for m in g.terms), default=0)
    K = _Kernel(G.order, f.ring, degree)
    return K.unpack(K.reduce(K.pack(f), [K.reducer(K.pack(g)) for g in G.elements]))


def buchberger_reduced(ideal: IdealHandle, order: MonomialOrder = CANONICAL) -> GroebnerBasis:
    """Unique reduced Groebner basis; normal pair selection, coprime-pair
    criterion, then minimalization and autoreduction."""
    K = _Kernel(order, ideal.ring, max((g.degree() for g in ideal.generators), default=0))
    guard = K.guard
    basis = []
    for g in ideal.generators:
        h = K.normalized(K.pack(g))
        if h not in basis:
            basis.append(h)
    # each element's reducer and leading monomial, packed and as a tuple (for
    # the lcm, which has no packed form)
    red = [K.reducer(h) for h in basis]
    lm = [h[0][1] for h in basis]
    lmt = [K.monomial(e) for e in lm]
    pairs = set()
    queue = []

    def add_pairs(k):
        # homogeneous input: processing by S-polynomial degree keeps low-degree
        # reducers available early even under non-graded weight orders; each
        # pair is keyed once, ties go by (i, j).  An S-polynomial and its
        # reduction have the lcm's degree, so all of it fits when that does.
        for i in range(k):
            lcm = tuple(map(max, lmt[i], lmt[k]))
            d = sum(lcm)
            if d > K.limit:
                raise OverflowError(f"S-pair degree {d} overflows the packed monomials")
            pairs.add((i, k))
            heapq.heappush(queue, (d, K.key(lcm), i, k, K.exponent(lcm)))

    def chain_criterion(i, j, lcm):
        for k in range(len(basis)):
            if k in (i, j) or (lcm - lm[k]) & guard:
                continue
            if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                return True
        return False

    for k in range(len(basis)):
        add_pairs(k)
    while queue:
        _, key, i, j, lcm = heapq.heappop(queue)
        pairs.remove((i, j))
        if lm[i] + lm[j] == lcm:
            continue  # coprime leading monomials
        if chain_criterion(i, j, lcm):
            continue
        # S-polynomial: the reducers' tails are -(tail / leading coefficient)
        s = []
        for sign, (le, lk, tail, _) in ((-1, red[i]), (1, red[j])):
            dk, q = key - lk, lcm - le
            s += [(gk + dk, ge + q, sign * gc) for gk, ge, gc in tail]
        h = K.reduce(s, red)
        if not h:
            continue
        h = K.normalized(h)
        basis.append(h)
        red.append(K.reducer(h))
        lm.append(h[0][1])
        lmt.append(K.monomial(h[0][1]))
        add_pairs(len(basis) - 1)

    # minimalize: keep only elements whose leading monomial is not divisible
    # by another kept leading monomial
    keep = [
        i
        for i, a in enumerate(lm)
        if not any(
            j != i and not (a - b) & guard and (a != b or j < i) for j, b in enumerate(lm)
        )
    ]

    # autoreduce tails
    final = [basis[i] for i in keep]
    red = [red[i] for i in keep]
    changed = True
    while changed:
        changed = False
        for i, f in enumerate(final):
            r = K.reduce(f, red[:i] + red[i + 1 :])
            if r != f:
                final[i] = K.normalized(r)
                red[i] = K.reducer(final[i])
                changed = True

    final.sort(key=lambda f: f[0][0])
    return GroebnerBasis(order, tuple(K.unpack(K.monic(f)) for f in final))


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
