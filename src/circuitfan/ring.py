"""Exact scalars, monomials, sparse polynomials, weights and linear substitutions.

Monomials are plain tuples of non-negative integer exponents.  Scalars are
``fractions.Fraction`` (or int) over the rationals and plain ints in ``[0, p)``
over a prime field; ``Polynomial`` reduces every coefficient it stores, so
all scalar arithmetic is plain int and Fraction arithmetic and never sees
floating point.  The field objects only parse and draw scalars and give
``characteristic``, ``zero`` and ``one`` (Fractions over Q).
"""
from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .elim import clear_denominators, echelon

Monomial = tuple  # tuple[int, ...]


# ---------------------------------------------------------------------------
# fields


_SCALAR_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def _scalar_parts(s: str):
    """Numerator and denominator of a scalar literal ``[+-]?\\d+(/\\d+)?``."""
    if not _SCALAR_RE.fullmatch(s):
        raise ValueError(f"invalid scalar {s!r}: expected an integer or a/b")
    num, _, den = s.partition("/")
    return int(num), int(den or 1)


# Miller-Rabin with the first thirteen prime bases is deterministic below
# this bound (Sorenson & Webster 2015): it is the least strong pseudoprime
# to all of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality test for p < _MR_BOUND."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RationalField:
    """Exact rationals with arbitrary-precision integers."""

    @property
    def characteristic(self) -> int:
        return 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def parse(self, s: str):
        num, den = _scalar_parts(s)
        if den == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(num, den)

    def random(self, rng, bound: int):
        return Fraction(rng.randint(-bound, bound))

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """Integers modulo a prime, elements stored as ints in [0, p)."""

    p: int

    def __post_init__(self):
        if self.p >= _MR_BOUND:
            raise ValueError(
                f"modulus {self.p} is too large: primality is certified only "
                f"below {_MR_BOUND}"
            )
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def parse(self, s: str):
        num, den = _scalar_parts(s)
        if den % self.p == 0:
            raise ValueError(f"denominator of {s!r} is zero in {self}")
        return num * pow(den, -1, self.p) % self.p

    def random(self, rng, bound: int):
        return rng.randrange(self.p)

    def __str__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_spec(spec: str):
    """Parse a field selector: ``Q``, ``GF(p)`` or ``gf:p``."""
    s = spec.strip()
    if s in ("Q", "QQ", "q"):
        return QQ
    m = re.fullmatch(r"(?:GF\((\d+)\)|gf:(\d+))", s, re.IGNORECASE)
    if m:
        return PrimeField(int(m.group(1) or m.group(2)))
    raise ValueError(f"unknown field spec {spec!r}")


def residue(c, p: int) -> int:
    """An int or Fraction c mod p, in [0, p): a/b is a·b⁻¹ (ValueError when p | b)."""
    return (c if type(c) is int else c.numerator * pow(c.denominator, -1, p)) % p


# ---------------------------------------------------------------------------
# monomials


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def canonical_key(m: Monomial):
    """Sort key realizing degrevlex with declared variable order; larger key
    means larger monomial."""
    return (sum(m),) + tuple(-e for e in reversed(m))


def monomials_of_degree(n: int, d: int) -> list:
    """All degree-d monomials in n variables, canonically descending."""
    if d < 0:
        return []
    out = []
    for bars in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        expo = []
        for b in bars:
            expo.append(b - prev - 1)
            prev = b
        expo.append(d + n - 2 - prev)
        out.append(tuple(expo))
    out.sort(key=canonical_key, reverse=True)
    return out


def dim_degree(n: int, d: int) -> int:
    if d < 0:
        return 0
    return math.comb(d + n - 1, n - 1)


# ---------------------------------------------------------------------------
# weights


def make_weight(entries) -> tuple:
    """Normalize a weight to integer entries by clearing denominators."""
    return clear_denominators(entries)[0]


def parse_weight(text: str) -> tuple:
    """Weight from comma-separated scalars in the coefficient grammar
    ``[+-]?\\d+(/\\d+)?``, denominators cleared: ``1/2,1`` gives ``(1, 2)``."""
    return make_weight([QQ.parse(x.strip()) for x in text.split(",")])


def weight_value(m: Monomial, w) -> int:
    if len(m) != len(w):
        raise ValueError(f"weight {w} has {len(w)} entries for {len(m)} variables")
    return sum(map(operator.mul, m, w))


# ---------------------------------------------------------------------------
# polynomial ring


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class PolyRing:
    names: tuple
    field: object = QQ

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for nm in self.names:
            if not _NAME_RE.fullmatch(nm):
                raise ValueError(f"bad variable name {nm!r}")

    @property
    def n(self) -> int:
        return len(self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def monomial(self, m: Monomial) -> "Polynomial":
        return Polynomial(self, {tuple(m): self.field.one})

    def extended(self) -> "PolyRing":
        """The ring with one more variable, t, last."""
        if "t" in self.names:
            raise ValueError("variable 't' already declared")
        return PolyRing(self.names + ("t",), self.field)

    def monomial_str(self, m: Monomial) -> str:
        if all(e == 0 for e in m):
            return "1"
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def parse(self, text: str) -> "Polynomial":
        return _parse_polynomial(self, text)

    def __str__(self):
        return f"{self.field}[{','.join(self.names)}]"


class Polynomial:
    """Sparse polynomial: map from exponent tuple to nonzero field scalar.

    The constructor normalizes every coefficient: over GF(p) it stores the
    ``residue``, an int in ``[1, p)``, and over Q the int or Fraction as
    given; both drop zeros.  Every layer below a Polynomial reads plain ints
    or Fractions and the characteristic, never the field object."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        p = ring.field.characteristic
        if p:
            self.terms = {
                m: r for m, c in terms.items() if (r := c % p if type(c) is int else residue(c, p))
            }
        else:
            self.terms = {m: c for m, c in terms.items() if c}

    # -- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(self.ring, out)

    def scale(self, c) -> "Polynomial":
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    def mul_monomial(self, m: Monomial) -> "Polynomial":
        return Polynomial(self.ring, {mono_mul(m, k): c for k, c in self.terms.items()})

    # -- canonical form

    def sorted_terms(self) -> list:
        """Terms (monomial, coeff) in canonical descending order."""
        return sorted(self.terms.items(), key=lambda t: canonical_key(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Polynomial({poly_str(self)!r})"


# ---------------------------------------------------------------------------
# text grammar


_TERM_SPLIT = re.compile(r"[+-](?:\^[+-]|[^+\-])+")
_COEFF_RE = re.compile(r"\d+(?:/\d+)?")


def _parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return ring.zero()
    if s[0] not in "+-":
        s = "+" + s
    chunks = _TERM_SPLIT.findall(s)
    if "".join(chunks) != s:
        raise ValueError(f"cannot parse polynomial {text!r}")
    fld = ring.field
    var_index = {nm: i for i, nm in enumerate(ring.names)}
    terms = {}
    for chunk in chunks:
        sign, body = chunk[0], chunk[1:]
        coeff = fld.one
        expo = [0] * ring.n
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"bad term {chunk!r}")
            if _COEFF_RE.fullmatch(factor):
                coeff *= fld.parse(factor)
                continue
            if "^" in factor:
                name, _, power = factor.partition("^")
                if not power.isdigit():
                    raise ValueError(f"bad exponent in {factor!r}")
                k = int(power)
            else:
                name, k = factor, 1
            if name not in var_index:
                raise ValueError(f"unknown variable {name!r}")
            expo[var_index[name]] += k
        if sign == "-":
            coeff = -coeff
        m = tuple(expo)
        terms[m] = terms.get(m, 0) + coeff
    return Polynomial(ring, terms)


def poly_str(f: Polynomial) -> str:
    if f.is_zero():
        return "0"
    ring = f.ring
    pieces = []
    for i, (m, c) in enumerate(f.sorted_terms()):
        # the scalar's parts, no Fraction arithmetic or comparison: a GF(p)
        # residue is an int in [1, p), its own numerator over denominator 1
        num, den = c.numerator, c.denominator
        negative = num < 0
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        mono = ring.monomial_str(m)
        if mono == "1":
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# weight operations on polynomials


def initial_form_w(f: Polynomial, w) -> Polynomial:
    """Sum of the terms of f of maximal weight."""
    if f.is_zero():
        raise ValueError("initial form of the zero polynomial")
    top = initial_support_w(f.terms, w)
    return Polynomial(f.ring, {m: c for m, c in f.terms.items() if m in top})


def initial_support_w(support, w) -> frozenset:
    """Subset of a monomial set with maximal weight: the one selection of
    maximal-weight terms, for initial forms, circuits, ideals and cones."""
    if not support:
        raise ValueError("empty support")
    vals = {m: weight_value(m, w) for m in support}
    top = max(vals.values())
    return frozenset(m for m in support if vals[m] == top)


def homogenize_w(f: Polynomial, w, ring_t: PolyRing) -> Polynomial:
    """Homogenize f with respect to a weight using an extra last variable.

    Each term X^a picks up t^(maxweight - w.a), with the weight's
    denominators cleared first so that every exponent is an int; evaluating
    t=1 recovers f and t=0 gives the initial form.
    """
    if f.is_zero():
        raise ValueError("cannot homogenize the zero polynomial")
    w = make_weight(w)
    vals = {m: weight_value(m, w) for m in f.terms}
    top = max(vals.values())
    terms = {m + (top - vals[m],): c for m, c in f.terms.items()}
    return Polynomial(ring_t, terms)


def specialize_last(f: Polynomial, a, target: PolyRing) -> Polynomial:
    """Evaluate the last variable at the scalar a, landing in target; over
    GF(p) by modular powers, since a weight gap can make a ** k huge."""
    p = target.field.characteristic
    out = {}
    for m, c in f.terms.items():
        out[m[:-1]] = out.get(m[:-1], 0) + c * (pow(a, m[-1], p) if p else a ** m[-1])
    return Polynomial(target, out)


# ---------------------------------------------------------------------------
# substitutions


class Substitution:
    """Invertible linear change of variables acting by rows: X_i goes to
    sum_j m[i][j] X_j.  The images of the variables are integer linear forms
    over one common denominator (1 over GF(p)).  ``apply`` builds the image
    of each monomial it needs once, as the image of the monomial with its
    first nonzero exponent lowered times one form, and adds c times it, c
    scaled by den^(top - |m|) over Q, into one integer dict; each output
    term then makes one Fraction over Q, or is reduced mod p by Polynomial.
    """

    __slots__ = ("ring", "matrix", "_forms", "_den")

    def __init__(self, ring: PolyRing, matrix):
        n = ring.n
        p = ring.field.characteristic
        # ints or Fractions, stored as residues over GF(p)
        rows = tuple(tuple(residue(x, p) if p else x for x in r) for r in matrix)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("substitution matrix has wrong shape")
        self.ring = ring
        self.matrix = rows
        flat, self._den = clear_denominators(x for r in rows for x in r)
        ints = [flat[i : i + n] for i in range(0, n * n, n)]
        if len(echelon(ints, p)) != n:
            raise ValueError("substitution matrix is singular")
        # X_k goes to sum c X_j / den over the pairs (j, c) of _forms[k]
        self._forms = tuple(tuple((j, c) for j, c in enumerate(r) if c) for r in ints)

    def apply(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        p, den, forms = self.ring.field.characteristic, self._den, self._forms
        one = (0,) * self.ring.n
        images = {one: {one: 1}}  # lives for this call only

        def image(m):
            chain = []
            while m not in images:
                i = next(k for k, e in enumerate(m) if e)
                chain.append((m, i))
                m = m[:i] + (m[i] - 1,) + m[i + 1 :]
            for m, i in reversed(chain):
                img = {}
                for t, c in images[m[:i] + (m[i] - 1,) + m[i + 1 :]].items():
                    for j, a in forms[i]:
                        u = t[:j] + (t[j] + 1,) + t[j + 1 :]
                        img[u] = img.get(u, 0) + a * c
                images[m] = {u: c % p for u, c in img.items()} if p else img
            return images[m]

        top = max(map(sum, f.terms), default=0)
        coeffs, lcd = clear_denominators(f.terms.values())
        out = {}
        for m, c in zip(f.terms, coeffs):
            c *= den ** (top - sum(m))
            for u, a in image(m).items():
                out[u] = out.get(u, 0) + c * a
        if p:
            return Polynomial(self.ring, out)
        lcd *= den**top
        return Polynomial(self.ring, {u: Fraction(c, lcd) for u, c in out.items() if c})
