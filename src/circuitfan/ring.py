"""Exact scalars, monomials, sparse polynomials, weights and linear substitutions.

Monomials are plain tuples of non-negative integer exponents.  Scalars are
``fractions.Fraction`` over the rationals and plain ints in ``[0, p)`` over a
prime field; all arithmetic goes through the field object so polynomials never
see floating point.
"""
from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .elim import clear_denominators, inverse, rref

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

    kind: str = "Q"

    @property
    def characteristic(self) -> int:
        return 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1, a)

    def div(self, a, b):
        return a / self.one / b

    def power(self, a, k: int):
        return Fraction(a) ** k

    def from_int(self, k: int):
        return Fraction(k)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, s: str):
        num, den = _scalar_parts(s)
        if den == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(num, den)

    def to_str(self, a) -> str:
        return str(a)

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
    def kind(self):
        return "GF"

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.invert(b)) % self.p

    def power(self, a, k: int):
        return pow(a, k, self.p)

    def from_int(self, k: int):
        return k % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, s: str):
        num, den = _scalar_parts(s)
        if den % self.p == 0:
            raise ValueError(f"denominator of {s!r} is zero in {self}")
        return self.div(num % self.p, den % self.p)

    def to_str(self, a) -> str:
        return str(a % self.p)

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


# ---------------------------------------------------------------------------
# monomials


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(operator.le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; raises on non-divisibility."""
    q = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in q):
        raise ValueError("monomial not divisible")
    return q


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
    return clear_denominators(entries)


def parse_weight(text: str) -> tuple:
    """Weight from comma-separated scalars in the coefficient grammar
    ``[+-]?\\d+(/\\d+)?``, denominators cleared: ``1/2,1`` gives ``(1, 2)``."""
    return make_weight([QQ.parse(x.strip()) for x in text.split(",")])


def weight_value(m: Monomial, w) -> int:
    if len(m) != len(w):
        raise ValueError("weight/monomial dimension mismatch")
    return sum(e * we for e, we in zip(m, w))


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

    def constant(self, c) -> "Polynomial":
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {(0,) * self.n: c})

    def extended(self, extra: str = "t") -> "PolyRing":
        if extra in self.names:
            raise ValueError(f"variable {extra!r} already declared")
        return PolyRing(self.names + (extra,), self.field)

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
    """Sparse polynomial: map from exponent tuple to nonzero field scalar."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        fld = ring.field
        self.terms = {m: c for m, c in terms.items() if not fld.is_zero(c)}

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

    def support(self) -> frozenset:
        return frozenset(self.terms)

    # -- arithmetic

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = fld.add(out.get(m, fld.zero), c)
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = fld.sub(out.get(m, fld.zero), c)
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fld = self.ring.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                prod = fld.mul(c1, c2)
                if m in out:
                    out[m] = fld.add(out[m], prod)
                else:
                    out[m] = prod
        return Polynomial(self.ring, out)

    def scale(self, c) -> "Polynomial":
        fld = self.ring.field
        if fld.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {m: fld.mul(c, v) for m, v in self.terms.items()})

    def mul_monomial(self, m: Monomial) -> "Polynomial":
        return Polynomial(self.ring, {mono_mul(m, k): c for k, c in self.terms.items()})

    def coefficient(self, m: Monomial):
        return self.terms.get(tuple(m), self.ring.field.zero)

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


_TERM_SPLIT = re.compile(r"[+-][^+\-]+")
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
                coeff = fld.mul(coeff, fld.parse(factor))
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
            coeff = fld.neg(coeff)
        m = tuple(expo)
        terms[m] = fld.add(terms.get(m, fld.zero), coeff)
    return Polynomial(ring, terms)


def poly_str(f: Polynomial) -> str:
    if f.is_zero():
        return "0"
    ring = f.ring
    fld = ring.field
    pieces = []
    for i, (m, c) in enumerate(f.sorted_terms()):
        if isinstance(fld, RationalField):
            negative = c < 0
            mag = -c if negative else c
        else:
            negative = False
            mag = c
        mono = ring.monomial_str(m)
        if mono == "1":
            body = fld.to_str(mag)
        elif mag == fld.one:
            body = mono
        else:
            body = f"{fld.to_str(mag)}*{mono}"
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
    vals = {m: weight_value(m, w) for m in f.terms}
    top = max(vals.values())
    return Polynomial(f.ring, {m: c for m, c in f.terms.items() if vals[m] == top})


def initial_support_w(support, w) -> frozenset:
    """Subset of a monomial set with maximal weight."""
    if not support:
        raise ValueError("empty support")
    vals = {m: weight_value(m, w) for m in support}
    top = max(vals.values())
    return frozenset(m for m in support if vals[m] == top)


def homogenize_w(f: Polynomial, w, ring_t: PolyRing = None) -> Polynomial:
    """Homogenize f with respect to a weight using an extra last variable.

    Each term X^a picks up t^(maxweight - w.a); evaluating t=1 recovers f and
    t=0 gives the initial form.
    """
    if f.is_zero():
        raise ValueError("cannot homogenize the zero polynomial")
    if ring_t is None:
        ring_t = f.ring.extended()
    vals = {m: weight_value(m, w) for m in f.terms}
    top = max(vals.values())
    terms = {m + (top - vals[m],): c for m, c in f.terms.items()}
    return Polynomial(ring_t, terms)


def specialize_last(f: Polynomial, a, target: PolyRing) -> Polynomial:
    """Evaluate the last variable at the scalar a, landing in target."""
    fld = target.field
    out = {}
    for m, c in f.terms.items():
        base, k = m[:-1], m[-1]
        if fld.is_zero(a):
            if k != 0:
                continue
            coeff = c
        else:
            coeff = fld.mul(c, fld.power(a, k))
        out[base] = fld.add(out.get(base, fld.zero), coeff)
    return Polynomial(target, out)


# ---------------------------------------------------------------------------
# substitutions


class Substitution:
    """Invertible linear change of variables.

    Row action sends X_i to sum_j m[i][j] X_j; column action sends X_j to
    sum_i m[i][j] X_i.
    """

    __slots__ = ("ring", "matrix", "convention", "_images")

    def __init__(self, ring: PolyRing, matrix, convention: str = "row"):
        if convention not in ("row", "column"):
            raise ValueError("convention must be 'row' or 'column'")
        n = ring.n
        rows = tuple(tuple(r) for r in matrix)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("substitution matrix has wrong shape")
        self.ring = ring
        self.matrix = rows
        self.convention = convention
        if len(rref(rows, ring.field.characteristic)[0]) != n:
            raise ValueError("substitution matrix is singular")
        fld = ring.field
        images = []
        for k in range(n):
            terms = {}
            for j in range(n):
                c = rows[k][j] if convention == "row" else rows[j][k]
                if not fld.is_zero(c):
                    e = [0] * n
                    e[j] = 1
                    terms[tuple(e)] = c
            images.append(Polynomial(ring, terms))
        self._images = tuple(images)

    def apply(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        out = self.ring.zero()
        powers = {}
        for m, c in f.terms.items():
            piece = self.ring.constant(c)
            for i, e in enumerate(m):
                if e == 0:
                    continue
                key = (i, e)
                if key not in powers:
                    p = self._images[i]
                    acc = p
                    for _ in range(e - 1):
                        acc = acc * p
                    powers[key] = acc
                piece = piece * powers[key]
            out = out + piece
        return out

    def inverse(self) -> "Substitution":
        inv = inverse(self.matrix, self.ring.field.characteristic)
        return Substitution(self.ring, inv, self.convention)

    @staticmethod
    def identity(ring: PolyRing) -> "Substitution":
        fld = ring.field
        m = [
            [fld.one if i == j else fld.zero for j in range(ring.n)]
            for i in range(ring.n)
        ]
        return Substitution(ring, m)

    @staticmethod
    def diagonal_change(ring: PolyRing, w, a) -> "Substitution":
        """The change mapping X_i to a^(-w_i) X_i for a nonzero scalar a."""
        fld = ring.field
        if fld.is_zero(a):
            raise ValueError("diagonal change needs a nonzero scalar")
        m = [
            [fld.power(a, -w[i]) if i == j else fld.zero for j in range(ring.n)]
            for i in range(ring.n)
        ]
        return Substitution(ring, m)

