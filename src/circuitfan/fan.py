"""Groebner-fan cells: weight equivalence, cone descriptions, certified box
sampling, the canonical universal basis and generic-fan comparison."""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .circuits import circuits_truncated
from .generic import RandomSpec, gcs_truncated
from .groebner import IdealHandle, hilbert_function, initial_split_w, lex_bound
from .order import CANONICAL, DRL, MonomialOrder, leading_term, weighted
from .ring import Polynomial, initial_form_w, make_weight, poly_str


class FanConsistencyError(RuntimeError):
    """Sampled weights contradict the recorded cells: two cones share an
    initial ideal, or a weight is not interior to its own cone."""


def _primitive(v):
    g = math.gcd(*v)
    if g == 0:
        return None
    return tuple(x // g for x in v)


def _canonical_equality(v):
    v = _primitive(v)
    if v is None:
        return None
    lead = next(x for x in v if x != 0)
    if lead < 0:
        v = tuple(-x for x in v)
    return v


@dataclass(frozen=True)
class Cone:
    """Closure of a weight-equivalence class: integer linear equalities and
    weak inequalities on exponent differences."""

    equalities: tuple  # tuples of ints, each meaning v . w = 0
    inequalities: tuple  # tuples of ints, each meaning v . w >= 0

    @staticmethod
    def build(equalities, inequalities) -> "Cone":
        eqs = sorted({e for e in (_canonical_equality(v) for v in equalities) if e})
        ins = sorted({p for p in (_primitive(v) for v in inequalities) if p})
        return Cone(tuple(eqs), tuple(ins))

    def contains(self, w, strict: bool = False) -> bool:
        """Whether w, with int or Fraction entries, lies in the cone, or with
        ``strict`` in its relative interior.  Denominators are not cleared: a
        positive scale of w changes no sign of v . w."""
        vectors = self.equalities or self.inequalities
        if vectors and len(vectors[0]) != len(w):
            raise ValueError(f"weight of length {len(w)} for a cone in {len(vectors[0])} variables")
        for v in self.equalities:
            if sum(map(operator.mul, v, w)):
                return False
        for v in self.inequalities:
            s = sum(map(operator.mul, v, w))
            if s < 0 or (strict and s == 0):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "equalities": [list(v) for v in self.equalities],
            "inequalities": [list(v) for v in self.inequalities],
        }


@dataclass(frozen=True)
class FanCell:
    rep_weight: tuple
    cone: Cone
    initial_basis: tuple  # canonical reduced basis of the weight initial ideal

    @property
    def full_dimensional(self) -> bool:
        return not self.cone.equalities


@dataclass(frozen=True)
class FanSketch:
    cells: tuple
    box: int
    step: int

    def to_json(self) -> dict:
        return {
            "cells": [
                {
                    "initial_ideal": list(c.initial_basis),
                    "rep_weight": list(c.rep_weight),
                    **c.cone.to_json(),
                }
                for c in self.cells
            ],
            "box": self.box,
            "step": self.step,
            "seed": 0,
        }


# ---------------------------------------------------------------------------
# cell tests


def weight_equiv(I: IdealHandle, w, w2) -> bool:
    """Two weights give the same initial ideal iff w2 lies in the relative
    interior of the cone of w."""
    w2 = make_weight(w2)
    # a cone with no vectors, as of a monomial ideal, takes any length
    if len(w2) != I.ring.n:
        raise ValueError(f"weight of length {len(w2)} in {I.ring.n} variables")
    return cone_of(I, w).contains(w2, strict=True)


def cone_of(I: IdealHandle, w, tie: MonomialOrder = DRL) -> Cone:
    """Linearized equivalence-class closure at a weight.

    For each reduced-basis element: equalities between tied maximal exponent
    vectors, weak inequalities from maximal against non-maximal ones.
    """
    return _cone(initial_split_w(I, w, tie)[1])


def _cone(splits) -> Cone:
    """The cone of (maximal monomials, other monomials) splits: equalities
    tie the maximal monomials of each split, and inequalities put them above
    the split's other ones."""
    eqs = []
    ins = []
    for initial, rest in splits:
        eqs += [tuple(map(operator.sub, a, b)) for a, b in itertools.combinations(initial, 2)]
        ins += [tuple(map(operator.sub, a, c)) for a in initial for c in rest]
    return Cone.build(eqs, ins)


# ---------------------------------------------------------------------------
# box sampling


def _grid_representatives(n: int, B: int, step: int):
    """Grid weights with minimum entry pinned to -B: one representative per
    all-ones translate class meeting the box."""
    if B < 1 or step < 1:
        raise ValueError("box bound and step must be positive")
    axis = range(-B, B + 1, step)
    for w in itertools.product(axis, repeat=n):
        if min(w) == -B:
            yield w


def enumerate_fan(I: IdealHandle, B: int, step: int = 1, tie: MonomialOrder = DRL) -> FanSketch:
    """Certified sampling of the fan over the integer box [-B, B]^n.

    Every sampled weight is either strictly inside a recorded cone or opens a
    new cell whose cone it must strictly satisfy.
    """
    # most recently matched or opened first: neighbouring grid weights mostly
    # share a cell, and relative interiors of distinct cells are disjoint, so
    # the order of the scan changes no match
    cells = []
    seen = {}
    for w in _grid_representatives(I.ring.n, B, step):
        for i, cell in enumerate(cells):
            if cell.cone.contains(w, strict=True):
                if i:
                    cells.insert(0, cells.pop(i))
                break
        else:
            J, splits = initial_split_w(I, w, tie)
            cone = _cone(splits)
            gens = tuple(poly_str(g) for g in J.groebner(CANONICAL).elements)
            if gens in seen:
                raise FanConsistencyError(
                    f"weights {seen[gens]} and {w} share an initial ideal but not a cone"
                )
            if not cone.contains(w, strict=True):
                raise FanConsistencyError(f"weight {w} is not interior to its own cone")
            cells.insert(0, FanCell(tuple(w), cone, gens))
            seen[gens] = w
    cells.sort(key=lambda c: c.rep_weight, reverse=True)
    return FanSketch(tuple(cells), B, step)


def newton_fan_oracle(f: Polynomial, B: int = 4, step: int = 1) -> FanSketch:
    """Independent fan oracle for a principal ideal.

    The cell of a weight is its argmax set over the exponent vectors of the
    generator; its cone is that of the one split of the generator's support
    into the argmax and the rest.  No Groebner machinery is involved.
    """
    if f.is_zero():
        raise ValueError("zero generator")
    cells = []
    seen = set()
    for w in _grid_representatives(f.ring.n, B, step):
        form = initial_form_w(f, w)
        argmax = frozenset(form.terms)
        if argmax in seen:
            continue
        seen.add(argmax)
        # the monic initial form is the canonical reduced basis of the
        # initial ideal of a principal ideal, as the sampler records it
        _, lc = leading_term(form, CANONICAL)
        monic = form.scale(Fraction(1, lc))
        cone = _cone([(argmax, f.terms.keys() - argmax)])
        cells.append(FanCell(tuple(w), cone, (poly_str(monic),)))
    cells.sort(key=lambda c: c.rep_weight, reverse=True)
    return FanSketch(tuple(cells), B, step)


# ---------------------------------------------------------------------------
# universal basis and fan comparison


def universal_basis(I: IdealHandle, sketch: FanSketch) -> list:
    """Union of the reduced bases over the full-dimensional sampled cells,
    deduplicated up to nonzero scalar via monic canonical form."""
    out = {}
    for cell in sketch.cells:
        if not cell.full_dimensional:
            continue
        gb = I.groebner(weighted(cell.rep_weight, tie=DRL))
        for g in gb.elements:
            _, lc = leading_term(g, CANONICAL)
            monic = g.scale(Fraction(1, lc))
            out[poly_str(monic)] = monic
    return [out[k] for k in sorted(out)]


def generic_fan_compare(
    I: IdealHandle, J: IdealHandle, spec: RandomSpec, mode: str = "generic"
) -> dict:
    """One-directional fan-equality certificate through truncated circuits.

    mode "generic" compares certified generic circuits sets (equal generic
    fans); mode "deterministic" compares plain circuits sets (equal fans).
    """
    if mode not in ("generic", "deterministic"):
        raise ValueError("mode must be 'generic' or 'deterministic'")
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    L, D = lex_bound(I)
    LJ, DJ = lex_bound(J)
    # a Hilbert function fixes its lex-segment ideal and is read off it
    # (Macaulay), so the two ideals' Hilbert functions agree exactly when
    # their lex-segment ideals do; the dims are read only to show a mismatch,
    # one degree past the larger bound, where both grow maximally for good
    if L.generators != LJ.generators:
        top = max(D, DJ) + 1
        return {
            "verdict": "incomparable",
            "reason": "Hilbert mismatch",
            "dims": [list(hilbert_function(K, top).ideal_dims) for K in (I, J)],
        }
    if mode == "generic":
        left = gcs_truncated(I, D, spec)
        right = gcs_truncated(J, D, RandomSpec(spec.seed + 1, spec.entry_bound))
    else:
        left = circuits_truncated(I, D)
        right = circuits_truncated(J, D)
    equal = left == right
    return {
        "verdict": "EQUAL-FAN-CERTIFIED" if equal else "INCONCLUSIVE",
        "mode": mode,
        "lex_bound": D,
        "circuits_equal": equal,
    }
