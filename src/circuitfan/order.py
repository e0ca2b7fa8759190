"""Monomial orders: lex, degrevlex and weight-refined orders."""
from __future__ import annotations

import re
from dataclasses import dataclass

from .ring import Monomial, Polynomial, canonical_key, make_weight, parse_weight, weight_value


@dataclass(frozen=True)
class MonomialOrder:
    kind: str  # "lex" | "drl" | "weight"
    weight: tuple = None
    tie: "MonomialOrder" = None

    def __post_init__(self):
        if self.kind not in ("lex", "drl", "weight"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "weight":
            if self.weight is None or self.tie is None:
                raise ValueError("weight-refined order needs a weight and a tie order")
            object.__setattr__(self, "weight", make_weight(self.weight))
            if self.tie.kind == "weight" and self.tie.weight == self.weight:
                raise ValueError("tie order refines by the same weight (no-op nesting)")

    def key(self, m: Monomial):
        """Totally ordered sort key; larger key means larger monomial.

        Every entry of the key is linear in the exponents, so key(a + b) is
        key(a) + key(b) entrywise, and the keys of the unit vectors are the
        integer rows that the packed Groebner kernel orders by."""
        if self.kind == "lex":
            return tuple(m)
        if self.kind == "drl":
            return canonical_key(m)
        return (weight_value(m, self.weight),) + self.tie.key(m)

    def __str__(self):
        if self.kind == "weight":
            return f"w:{','.join(str(x) for x in self.weight)};tie={self.tie}"
        return self.kind


LEX = MonomialOrder("lex")
DRL = MonomialOrder("drl")

#: Canonical global order used for hashing and ideal equality: degrevlex with
#: the declared variable order.  Reduced bases with respect to it are the
#: canonical forms of ideals.
CANONICAL = DRL


def weighted(w, tie: MonomialOrder = DRL) -> MonomialOrder:
    return MonomialOrder("weight", weight=w, tie=tie)


def leading_term(f: Polynomial, order: MonomialOrder):
    """(monomial, coefficient) of the order-greatest monomial of f."""
    if f.is_zero():
        raise ValueError("leading term of the zero polynomial")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def leading_monomial(f: Polynomial, order: MonomialOrder) -> Monomial:
    return leading_term(f, order)[0]


_ORDER_RE = re.compile(r"w:([^;]+);tie=(.+)", re.IGNORECASE)


def parse_order(text: str) -> MonomialOrder:
    """CLI order syntax: ``lex``, ``drl``, ``w:2,1,0;tie=drl``."""
    s = text.strip()
    if s == "lex":
        return LEX
    if s in ("drl", "degrevlex"):
        return DRL
    m = _ORDER_RE.fullmatch(s)
    if m:
        return weighted(parse_weight(m.group(1)), tie=parse_order(m.group(2)))
    raise ValueError(f"cannot parse order {text!r}")
