"""Reduced Groebner bases, weight initial ideals, Hilbert functions,
lex-segment ideals and the one-parameter flat family."""
from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
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
    """A reduced basis under its order.  ``leads`` holds the elements'
    leading monomials, in the same order; a caller that knows them passes
    them, and otherwise they are read off the elements.  They follow from
    order and elements, so equality and hashing ignore them."""

    order: MonomialOrder
    elements: tuple  # monic polynomials, ascending by the order key of their leads
    leads: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if self.leads is None:
            leads = tuple(leading_monomial(g, self.order) for g in self.elements)
            object.__setattr__(self, "leads", leads)
        # (kernel, divisors) that normal_form packed last; not a dataclass
        # field, so equality and hashing are untouched
        object.__setattr__(self, "_divisors", None)


def _favours(order: MonomialOrder, diffs, n: int) -> bool:
    """Whether the order puts m above t for every difference d = m - t.

    A weight order decides by the sign of w . d and asks its tie only where
    w . d = 0; lex and degrevlex compare the key of d with that of zero, as
    the key is linear.  A weight whose length is not n raises ValueError."""
    while order.kind == "weight":
        w = order.weight
        if len(w) != n:
            raise ValueError(f"weight {w} has {len(w)} entries for {n} variables")
        tied = []
        for d in diffs:
            s = sum(map(operator.mul, w, d))
            if s < 0:
                return False
            if not s:
                tied.append(d)
        diffs, order = tied, order.tie
    key = order.key
    zero = key((0,) * n)
    return all(key(d) > zero for d in diffs)


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
        # [basis, differences] of each basis that was computed or seeded,
        # recorded when it is stored; a basis that _reuse returns has the
        # differences of the one it came from
        self._held = []

    def groebner(self, order: MonomialOrder = CANONICAL) -> GroebnerBasis:
        """Reduced basis for the order: cached, else a cached basis that is
        also reduced for it, else computed by Buchberger."""
        gb = self._cache.get(order)
        if gb is None:
            gb = self._reuse(order) or self._hold(buchberger_reduced(self, order))
            self._cache[order] = gb
        return gb

    def _hold(self, gb: GroebnerBasis) -> GroebnerBasis:
        self._held.append([gb, None])
        return gb

    def _reuse(self, order: MonomialOrder):
        for held in self._held:
            gb, diffs = held
            if diffs is None:
                # m - t for every other term t of an element with leading
                # monomial m; made on the first reuse test, so a handle that is
                # never asked for another order pays nothing
                diffs = held[1] = [
                    tuple(map(operator.sub, m, t))
                    for g, m in zip(gb.elements, gb.leads)
                    for t in g.terms
                    if t != m
                ]
            # homogeneous ideal: unchanged leading monomials generate in_held(I),
            # which has the Hilbert function of in_order(I), so they generate
            # in_order(I) and the monic, reduced held basis is the reduced one
            if _favours(order, diffs, self.ring.n):
                ranked = sorted(zip(gb.leads, gb.elements), key=lambda p: order.key(p[0]))
                return GroebnerBasis(
                    order, tuple(g for _, g in ranked), tuple(m for m, _ in ranked)
                )
        return None

    def __repr__(self):
        gens = ", ".join(poly_str(g) for g in self.generators)
        return f"IdealHandle({self.ring}; {gens})"


# ---------------------------------------------------------------------------
# division and Buchberger on packed monomials
#
# After Monagan & Pearce 2007, "Polynomial division using dynamic arrays,
# heaps, and packed exponent vectors" (CASC).  Each call reads its order's
# integer rows off the linear order key on the unit vectors: the identity for
# lex, the all-ones row and then -e(n), ..., -e1 for degrevlex, and for a
# weight order the weight followed by the tie order's rows.  A monomial is
# then two ints.  Its order key holds the row values in equal fields, first
# row on top, so that int comparison is the order.  Its exponent int holds one
# field per variable with a guard bit on top.  Both are linear in the
# exponents: a product is two additions, and a divides b exactly when b - a
# sets no guard bit.  A packed polynomial is a key-descending list of (key,
# exponent, coefficient).

#: bits beyond the largest input degree: exponents up to 256 times it fit
_HEADROOM_BITS = 8


class _Kernel:
    """Packed terms of one ring under one order, and division on them; sized
    for a largest input degree: every exponent up to `limit` fits.

    Coefficients are ints, and the kernel reads the characteristic p, not
    the field object.  Over GF(p) they are reduced mod p when read, and
    divisors are monic.  Over Q an element is kept primitive with a positive
    leading coefficient, and division scales instead of dividing
    (fraction-free, as Monagan & Pearce divide over the integers).  Only
    unpack makes Fractions."""

    def __init__(self, order: MonomialOrder, ring: PolyRing, degree: int):
        self.ring = ring
        # over GF(p), coefficients are reduced mod p only when read
        self.modulus = ring.field.characteristic
        n = ring.n
        self.limit = limit = self.limit_for(degree)
        bits = limit.bit_length()
        self.shifts = tuple(j * (bits + 1) for j in range(n))
        self.guard = sum(1 << (s + bits) for s in self.shifts)
        # the fields are digits in base 2^(bits+1), so a packed exponent is
        # congruent to its total degree mod 2^(bits+1) - 1, and every total
        # degree the kernel holds is at most limit, below that modulus
        self.nines = (1 << (bits + 1)) - 1
        # the order key is linear, so its values on the unit vectors are
        # integer rows: key(m) = sum of row(m) << (field of the row), first
        # row on top.  A row's values on two fitting vectors differ by less
        # than 2^width, so the first unequal row decides the sign of the keys'
        # difference, even where a value is negative and borrows from the
        # field above.
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rows = list(zip(*(order.key(unit) for unit in units)))
        width = max(limit * sum(map(abs, r)) for r in rows).bit_length()
        tops = [width * i for i in reversed(range(len(rows)))]
        self.var_keys = tuple(sum(r[j] << t for r, t in zip(rows, tops)) for j in range(n))

    @staticmethod
    def limit_for(degree: int) -> int:
        """The largest exponent that fits a kernel sized for the degree."""
        return (1 << (max(degree, 1).bit_length() + _HEADROOM_BITS)) - 1

    def key(self, m) -> int:
        return sum(map(operator.mul, m, self.var_keys))

    def exponent(self, m) -> int:
        return sum(x << s for x, s in zip(m, self.shifts))

    def monomial(self, e) -> tuple:
        return tuple(e >> s & self.limit for s in self.shifts)

    def degree(self, e) -> int:
        """Total degree of a packed exponent of total degree at most limit."""
        return e % self.nines

    def pack(self, f: Polynomial) -> list:
        return sorted(
            ((self.key(m), self.exponent(m), c) for m, c in f.terms.items()), reverse=True
        )

    def unpack(self, terms, den: int) -> Polynomial:
        """The polynomial of the terms divided by den; over Q its coefficients
        are Fractions, over GF(p) den is 1."""
        if self.modulus:
            return Polynomial(self.ring, {self.monomial(e): c for _, e, c in terms})
        return Polynomial(self.ring, {self.monomial(e): Fraction(c, den) for _, e, c in terms})

    def normalized(self, terms) -> list:
        """The terms with int coefficients: over GF(p) monic, over Q scaled
        to coprime integers with a positive leading coefficient."""
        p = self.modulus
        if p:
            inv = pow(terms[0][2], -1, p)
            return [(k, e, c * inv % p) for k, e, c in terms]
        ints = clear_denominators([c for _, _, c in terms])[0]
        g = math.gcd(*ints)
        if ints[0] < 0:
            g = -g
        return [(k, e, c // g) for (k, e, _), c in zip(terms, ints)]

    def reducer(self, terms):
        """(leading exponent, leading key, leading coefficient, tail, growth)
        of ``normalized`` terms, whose leading coefficient is 1 over GF(p).
        The tail holds the negated coefficients, which over GF(p) reduce
        mod p when read.  Growth is how far the tail's degree passes the
        leading monomial's."""
        if not terms:
            raise ValueError("leading term of the zero polynomial")
        lk, le, lc = terms[0]
        tail = [(k, e, -c) for k, e, c in terms[1:]]
        degree = max((e % self.nines for _, e, _ in tail), default=0)
        return le, lk, lc, tail, max(degree - le % self.nines, 0)

    def reduce(self, terms, reducers):
        """(remainder, scale): the remainder, key-descending, of scale times
        the sum of the (key, exponent, coefficient) terms on division by the
        reducers.  Each greatest term c*x^m goes to the first reducer whose
        leading monomial divides it, and to the remainder if there is none.
        A step by a reducer with leading coefficient lc, g = gcd(c, lc),
        multiplies everything pending and the remainder so far by lc // g
        (and scale with them) and then adds (c // g)*x^q*tail: over Q no
        coefficient leaves the integers.  Over GF(p) lc is 1 and so is
        scale."""
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
        nines, limit = self.nines, self.limit
        gcd = math.gcd
        remainder = []
        scale = 1
        while heap:
            k = -pop(heap)
            c = work.pop(k)
            if modulus:
                c %= modulus
            if not c:
                continue
            e = expo[k]
            for le, lk, lc, tail, growth in reducers:
                q = e - le
                if q & guard:
                    continue
                if growth and e % nines + growth > limit:
                    raise OverflowError(
                        f"a degree past {limit} overflows the packed monomials"
                    )
                if lc != 1:
                    g = gcd(c, lc)
                    if g != lc:
                        m = lc // g
                        scale *= m
                        work = {t: v * m for t, v in work.items()}
                        remainder = [(rk, re, rc * m) for rk, re, rc in remainder]
                    c //= g
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
        return remainder, scale


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by G; no remainder monomial is divisible by
    a leading monomial of G.  Raises ValueError when G holds a polynomial
    from another ring than f's."""
    degree = max((sum(m) for g in (f, *G.elements) for m in g.terms), default=0)
    # G's divisors are packed once, and kept on G for every f that needs a
    # kernel of the same ring and width
    cached = G._divisors
    if cached is None or cached[0].limit != _Kernel.limit_for(degree) or cached[0].ring != f.ring:
        if any(g.ring != f.ring for g in G.elements):
            raise ValueError("polynomial from a different ring")
        K = _Kernel(G.order, f.ring, degree)
        cached = K, [K.reducer(K.normalized(K.pack(g))) for g in G.elements]
        object.__setattr__(G, "_divisors", cached)
    K, reducers = cached
    # over Q, d*f has int coefficients (over GF(p) d is 1)
    terms = K.pack(f)
    ints, d = clear_denominators([c for _, _, c in terms])
    r, scale = K.reduce([(k, e, c) for (k, e, _), c in zip(terms, ints)], reducers)
    return K.unpack(r, d * scale)


def _quotient_floor(degrees, n: int):
    """d -> a lower bound on dim (R/I)_d for any ideal I of n variables
    generated by forms of the given degrees.

    For k <= n forms it is the coefficient of t^d in
    prod(1 - t^d_i) / (1 - t)^n, the Hilbert series of a regular sequence,
    which bounds that of every such ideal from below (Froberg 1985, "An
    inequality for Hilbert series of graded algebras", Math. Scand. 56);
    past n forms the bound is 0."""
    series = {0: 1} if len(degrees) <= n else {}
    for a in degrees:
        product = dict(series)
        for b, c in series.items():
            product[a + b] = product.get(a + b, 0) - c
        series = product
    terms = [(a, c) for a, c in series.items() if c]
    return lambda d: sum(c * dim_degree(n, d - a) for a, c in terms)


def _standard_levels(K: _Kernel, leads):
    """The packed standard monomials of the packed leads, one set per degree
    0, 1, 2, ...: a monomial is standard when it is no lead and every
    m - unit (a guard bit set where m has no such unit) is standard.  The
    leads are read when a degree is reached, so the list may grow, and each
    degree grows from the set last yielded, so a caller may remove a lead of
    the last degree from it.  A degree past K.limit raises OverflowError."""
    units = [1 << s for s in K.shifts]
    guard = K.guard
    level = {0}
    for d in itertools.count():
        level.difference_update(l for l in leads if K.degree(l) == d)
        yield level
        if d == K.limit:
            raise OverflowError(f"degree {d + 1} overflows the packed monomials")
        below = level
        level = {m + u for m in below for u in units}
        level = {m for m in level if all((m - u) & guard or m - u in below for u in units)}


def buchberger_reduced(ideal: IdealHandle, order: MonomialOrder = CANONICAL) -> GroebnerBasis:
    """Unique reduced Groebner basis; normal pair selection, coprime-pair and
    chain criteria, Hilbert-driven pair skipping, then minimalization and
    autoreduction."""
    n = ideal.ring.n
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
    # Hilbert-driven skipping (Traverso 1996, "Hilbert functions and the
    # Buchberger algorithm", JSC 22): the leads' standard monomials of degree
    # d number at least dim (R/I)_d >= floor(d), and where they number
    # exactly floor(d), in(G)_d = in(I)_d and every S-polynomial of degree d
    # reduces to zero.  std is (d, the standard monomials of degree d, packed,
    # floor(d)) for the last degree counted.
    floor = _quotient_floor([K.degree(e) for e in lm], n)
    held = sum(map(len, basis))
    # pairs come by degree, so the leads below d are final when d is first
    # counted, and a new lead of degree d leaves std[1] when it is found
    levels = enumerate(_standard_levels(K, lm))
    std = None
    armed = -1  # the degree of the last S-pair that reduced to zero

    def filled(d):
        # count a degree only where its monomials are few next to the terms
        # the basis holds: a count costs n set lookups per monomial
        nonlocal std
        if std is None or std[0] != d:
            if dim_degree(n, d) > n * held:
                return False
            at, level = std[:2] if std else (-1, None)
            while at < d:
                at, level = next(levels)
            std = (d, level, floor(d))
        return len(std[1]) == std[2]

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
        d, key, i, j, lcm = heapq.heappop(queue)
        pairs.remove((i, j))
        if lm[i] + lm[j] == lcm:
            continue  # coprime leading monomials
        if chain_criterion(i, j, lcm):
            continue
        if d == armed and filled(d):
            continue
        # S-polynomial (lc_j*x^a*g_i - lc_i*x^b*g_j) / gcd(lc_i, lc_j): the
        # leading terms cancel, and the reducers hold negated tails
        lci, lcj = red[i][2], red[j][2]
        g = math.gcd(lci, lcj)
        s = []
        for factor, (le, lk, _, tail, _) in ((-lcj // g, red[i]), (lci // g, red[j])):
            dk, q = key - lk, lcm - le
            s += [(gk + dk, ge + q, factor * gc) for gk, ge, gc in tail]
        h, _ = K.reduce(s, red)
        if not h:
            armed = d
            continue
        h = K.normalized(h)
        if std is not None and std[0] == d:
            std[1].discard(h[0][1])
        held += len(h)
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

    # autoreduce tails in one pass: minimalization fixed the leads, and being
    # reduced depends only on them.  A remainder keeps its lead, and no other
    # term of it is divisible by another lead, whatever the other tails become.
    final = [basis[i] for i in keep]
    red = [red[i] for i in keep]
    for i, f in enumerate(final):
        r, scale = K.reduce(f, red[:i] + red[i + 1 :])
        if scale != 1 or r != f:
            final[i] = K.normalized(r)
            red[i] = K.reducer(final[i])

    final.sort(key=lambda f: f[0][0])
    return GroebnerBasis(
        order,
        tuple(K.unpack(f, f[0][2]) for f in final),
        tuple(K.monomial(f[0][1]) for f in final),
    )


# ---------------------------------------------------------------------------
# initial ideals and equality


def initial_ideal(I: IdealHandle, order: MonomialOrder = CANONICAL) -> IdealHandle:
    """Monomial ideal of leading monomials of the reduced basis."""
    gb = I.groebner(order)
    ring = I.ring
    return IdealHandle(ring, [ring.monomial(m) for m in gb.leads])


def initial_ideal_w(I: IdealHandle, w, tie: MonomialOrder = DRL) -> IdealHandle:
    """Ideal generated by the weight initial forms of the weight-refined
    reduced basis; generally not monomial."""
    return initial_split_w(I, w, tie)[0]


def initial_split_w(I: IdealHandle, w, tie: MonomialOrder = DRL):
    """(in_w(I), splits) from one walk over the weight-refined reduced basis.

    Each element's initial form, by ``initial_form_w``, keeps every term of
    maximal weight, as the element's coefficients are nonzero, so splits
    holds (the form's monomials, the element's other monomials) for each
    element.  An element's lead is its tie-greatest term of greatest weight,
    so it also leads the form, and the form keeps a subset of the element's
    tail: sorted by the tie key of their leads, the forms are monic and
    reduced, a tie-Groebner basis of in_w(I), and the returned handle holds
    that basis, built with those leads, as its tie-reduced one."""
    order = weighted(w, tie=tie)
    w = order.weight
    gb = I.groebner(order)  # checks the weight's length
    ranked = []
    splits = []
    for g, lead in zip(gb.elements, gb.leads):
        form = initial_form_w(g, w)
        top = form.terms.keys()
        splits.append((top, g.terms.keys() - top))
        ranked.append((tie.key(lead), lead, form))
    ranked.sort(key=lambda r: r[0])
    J = IdealHandle(I.ring, [f for _, _, f in ranked])
    J._cache[tie] = J._hold(GroebnerBasis(tie, J.generators, tuple(m for _, m, _ in ranked)))
    return J, splits


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
    """dim I_d in n variables for d = 0, 1, ..., as far as the dims go."""

    n: int
    ideal_dims: tuple  # dim I_d for d = 0, 1, ...

    def quotient_dims(self) -> tuple:
        return tuple(dim_degree(self.n, d) - v for d, v in enumerate(self.ideal_dims))


def _ideal_dims(I: IdealHandle):
    """dim I_0, dim I_1, ... without end: the monomials of each degree less
    the standard ones of the canonical initial ideal."""
    leads = I.groebner(CANONICAL).leads
    # each degree costs the read microseconds, so none reaches the limit,
    # 2^41 - 1, of a kernel sized for 2^32
    K = _Kernel(CANONICAL, I.ring, 1 << 32)
    levels = _standard_levels(K, [K.exponent(m) for m in leads])
    for d, level in enumerate(levels):
        yield dim_degree(I.ring.n, d) - len(level)


def hilbert_function(I: IdealHandle, dmax: int) -> HilbertData:
    """dim I_d for 0 <= d <= dmax, counted from the canonical initial ideal."""
    if dmax < 0:
        raise ValueError("dmax must be non-negative")
    return HilbertData(I.ring.n, tuple(itertools.islice(_ideal_dims(I), dmax + 1)))


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


def lex_bound(I: IdealHandle, cap: int = None):
    """Lex-segment ideal with I's Hilbert function and its top generator
    degree D, certified final.

    Returns (lex-segment IdealHandle, D).  Let delta be the top generator
    degree of the canonical initial ideal.  The Hilbert function is read from
    degree 0 until a degree c > delta brings no lex generator.  Then it grows
    maximally from c - 1 to c (Macaulay), and as in(I) is generated in degrees
    <= c - 1, Gotzmann's persistence theorem keeps that growth maximal in every
    later degree, so no lex generator comes after c - 1 (Bruns & Herzog,
    Cohen-Macaulay Rings, 4.2-4.3).  The last degree read is D + 1, whatever
    the cap, and a cap is checked against that answer: CapTooSmallError when
    a lex generator lies in degree cap or cap does not pass delta (Gotzmann
    leaves no other cap <= D), ValueError when cap is below 1.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
    delta = max(map(sum, I.groebner(CANONICAL).leads), default=0)
    L, D = _lex_read(I.ring, _ideal_dims(I), delta)
    if cap is None:
        return L, D
    if any(g.degree() == cap for g in L.generators):
        raise CapTooSmallError(
            f"lex-segment generators appear in degree {cap}; increase cap beyond {cap}"
        )
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
    generators: tuple  # polynomials in the extended ring


def homogenize_ideal_w(I: IdealHandle, w) -> HomogenizedIdeal:
    """Homogenize the degrevlex-tied weight-refined reduced basis with an
    extra variable.

    The resulting family interpolates the ideal (t=1), its weight initial
    ideal (t=0) and its diagonal coordinate changes (t=a, a nonzero).
    """
    ring_t = I.ring.extended()
    gb = I.groebner(weighted(w, tie=DRL))
    gens = tuple(homogenize_w(g, w, ring_t) for g in gb.elements)
    return HomogenizedIdeal(I, gens)


def specialize_t(H: HomogenizedIdeal, a) -> IdealHandle:
    ring = H.base.ring
    polys = [specialize_last(g, a, ring) for g in H.generators]
    return IdealHandle(ring, [f for f in polys if not f.is_zero()])


# ---------------------------------------------------------------------------
# ideal file format


def parse_ideal_file(text: str, field=None):
    """Parse the ideal file format.

    Header declares ``ring: Q | GF(p)`` and ``vars: x,y,z``; a ``gens:`` line
    is followed by one polynomial per line.  A field, when given, replaces
    the header's, and the polynomials are read in it.  Returns (ring,
    IdealHandle).
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
    ring = PolyRing(names, field or fld)
    polys = []
    for lineno, line in gens:
        try:
            polys.append(ring.parse(line))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from e
    return ring, IdealHandle(ring, polys)


def basis_json(gb: GroebnerBasis) -> dict:
    return {
        "order": str(gb.order),
        "elements": [poly_str(g) for g in gb.elements],
        "reduced": True,
    }
