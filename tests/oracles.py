"""Independent test oracles: textbook Gauss-Jordan elimination over Q or
GF(p), brute-force circuit enumeration straight from the rank criterion,
with no pruning and no quotient-space shortcut, and the plain formatting of
circuits sets and polynomials, by key lists and scalar comparisons, and the
term-by-term expansion of a substitution, and the Hilbert function by a
divisibility scan; the two references that no library code calls:
``rank_rel``, the relative rank of a monomial set against a graded piece,
and ``lex_segment``, the lex-segment ideal of given Hilbert data up to a
cap; and the helpers that only tests use: monomial divisibility and
quotients, diagonal changes, weight component dimensions and initial spaces
by Gauss-Jordan on weight-sorted columns, ideal file text and Borel matrix
products."""
import itertools
from fractions import Fraction

from circuitfan.generic import BorelOmegaElement
from circuitfan.groebner import CapTooSmallError, HilbertData, IdealHandle, _lex_read
from circuitfan.linalg import GradedMatrix, exact_rank
from circuitfan.order import DRL, MonomialOrder, weighted
from circuitfan.ring import (
    Monomial,
    Polynomial,
    PolyRing,
    Substitution,
    canonical_key,
    monomials_of_degree,
    poly_str,
    weight_value,
)


def rref_reference(rows, p: int):
    """Reduced row echelon form over Q (``p`` 0) or GF(p) by Gauss-Jordan
    elimination, one scalar operation per entry, reduced mod p over GF(p);
    returns (rows, pivot columns)."""

    def red(x):
        return x % p if p else x

    rows = [[red(x) for x in r] for r in rows]
    pivots = []
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p) if p else Fraction(1, rows[rank][col])
        rows[rank] = [red(inv * x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [red(x - factor * y) for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return [tuple(r) for r in rows[:rank]], pivots


def rank_reference(rows, p: int) -> int:
    """Rank as the number of Gauss-Jordan pivots."""
    return len(rref_reference(rows, p)[1])


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


def inverse_reference(rows, p: int) -> tuple:
    """Inverse from the Gauss-Jordan form of ``[M | I]``, or None when M is
    singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    ech, pivots = rref_reference(aug, p)
    if pivots != list(range(n)):
        return None
    return tuple(r[n:] for r in ech)


def circuits_bruteforce(W: GradedMatrix) -> frozenset:
    """Every nonempty monomial subset is tested: dependent with all maximal
    proper subsets independent."""
    if W.dim == 0:
        return frozenset()
    monos = monomials_of_degree(W.ring.n, W.degree)
    dependent = {}
    for size in range(1, len(monos) + 1):
        for combo in itertools.combinations(monos, size):
            s = frozenset(combo)
            dependent[s] = rank_rel(W, combo) + len(combo) - W.dim < len(combo)
    circuits = set()
    for s, dep in dependent.items():
        if not dep:
            continue
        if len(s) == 1 or all(not dependent[s - {m}] for m in s):
            circuits.add(s)
    return frozenset(circuits)


def circuits_json_reference(cs, ring) -> list:
    """``CircuitsSet.to_json`` by key lists: each circuit's monomials by
    descending canonical key, and the circuits by their key lists,
    descending."""
    out = []
    for d, circ in cs.by_degree:
        sets = sorted(
            (sorted(c, key=canonical_key, reverse=True) for c in circ),
            key=lambda ms: [canonical_key(m) for m in ms],
            reverse=True,
        )
        out.append({"degree": d, "circuits": [[ring.monomial_str(m) for m in c] for c in sets]})
    return out


def poly_str_reference(f) -> str:
    """``poly_str`` by scalar operations: the sign by comparison over Q, the
    magnitude by negation, a unit by equality with one."""
    if f.is_zero():
        return "0"
    ring = f.ring
    fld = ring.field
    pieces = []
    for i, (m, c) in enumerate(f.sorted_terms()):
        negative = not fld.characteristic and c < 0
        mag = -c if negative else c
        mono = ring.monomial_str(m)
        if mono == "1":
            body = str(mag)
        elif mag == fld.one:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


def substitution_apply_reference(s: Substitution, f: Polynomial) -> Polynomial:
    """``Substitution.apply`` term by term in polynomial arithmetic: each
    variable's image polynomial, read off its row of the matrix, its powers
    by repeated multiplication, and each term's product added to the running
    sum."""
    ring = s.ring
    n = ring.n
    images = []
    for k in range(n):
        terms = {}
        for j in range(n):
            c = s.matrix[k][j]
            if c:
                e = [0] * n
                e[j] = 1
                terms[tuple(e)] = c
        images.append(Polynomial(ring, terms))
    out = ring.zero()
    powers = {}
    for m, c in f.terms.items():
        piece = Polynomial(ring, {(0,) * n: c})
        for i, e in enumerate(m):
            if e == 0:
                continue
            if (i, e) not in powers:
                acc = images[i]
                for _ in range(e - 1):
                    acc = acc * images[i]
                powers[i, e] = acc
            piece = piece * powers[i, e]
        out = out + piece
    return out


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """Whether a divides b, exponent by exponent."""
    return all(x <= y for x, y in zip(a, b))


def ideal_dims_reference(I: IdealHandle, dmax: int) -> tuple:
    """dim I_d for d = 0..dmax, by testing every monomial of degree d
    against every leading monomial of the canonical reduced basis."""
    leads = I.groebner(DRL).leads
    return tuple(
        sum(any(mono_divides(l, m) for l in leads) for m in monomials_of_degree(I.ring.n, d))
        for d in range(dmax + 1)
    )


def lex_segment(H: HilbertData, ring: PolyRing, cap: int):
    """Lex-segment ideal realizing the Hilbert data up to degree cap, with its
    top generator degree.

    Returns (monomial IdealHandle, D).  Raises MacaulayError when the data is
    not realized by degreewise lex segments, and CapTooSmallError when a
    generator appears in degree cap itself.  Data up to cap cannot show that no
    generator comes later: only lex_bound certifies that D is final.
    """
    if H.n != ring.n:
        raise ValueError(f"Hilbert data in {H.n} variables for a ring in {ring.n}")
    if cap < 1:
        raise ValueError("cap must be positive")
    if cap >= len(H.ideal_dims):
        raise ValueError("cap exceeds the available Hilbert data")
    L, D = _lex_read(ring, H.ideal_dims[: cap + 1], cap)
    if D == cap:
        raise CapTooSmallError(
            f"lex-segment generators appear in degree {cap}; increase cap beyond {cap}"
        )
    return L, D


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; raises on non-divisibility."""
    q = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in q):
        raise ValueError("monomial not divisible")
    return q


def diagonal_change(ring: PolyRing, w, a) -> Substitution:
    """The change mapping X_i to a^(-w_i) X_i for a nonzero scalar a."""
    p = ring.field.characteristic
    if (a % p if p else a) == 0:
        raise ValueError("diagonal change needs a nonzero scalar")
    m = [
        [Fraction(a) ** -w[i] if i == j else 0 for j in range(ring.n)]
        for i in range(ring.n)
    ]
    return Substitution(ring, m)


def weight_rref_reference(W: GradedMatrix, w, tie: MonomialOrder = DRL):
    """Gauss-Jordan form of W's rows on its monomials sorted descending in
    the w-weight order refined by ``tie``: (the sorted monomials, rows,
    pivot columns).  Each row's pivot is its leading monomial."""
    cols = sorted(W.basis, key=weighted(w, tie=tie).key, reverse=True)
    index = {m: j for j, m in enumerate(W.basis)}
    raw = [[r[index[m]] for m in cols] for r in W.rows]
    rows, pivots = rref_reference(raw, W.ring.field.characteristic)
    return cols, rows, pivots


def weight_component_dims(W: GradedMatrix, w, tie: MonomialOrder = DRL) -> dict:
    """Dimensions of the weight components of the weight initial space: the
    weights of W's Gauss-Jordan pivots on weight-sorted columns."""
    cols, _, pivots = weight_rref_reference(W, w, tie)
    dims = {}
    for j in pivots:
        a = weight_value(cols[j], w)
        dims[a] = dims.get(a, 0) + 1
    return dims


def initial_space_reference(W: GradedMatrix, w, tie: MonomialOrder = DRL) -> list:
    """Gauss-Jordan rows, on W's canonical columns, of the span of the
    initial forms of W's Gauss-Jordan rows on weight-sorted columns: each
    row's terms of its pivot's weight."""
    cols, rows, pivots = weight_rref_reference(W, w, tie)
    forms = []
    for r, j in zip(rows, pivots):
        top = weight_value(cols[j], w)
        form = {m: c for m, c in zip(cols, r) if weight_value(m, w) == top}
        forms.append([form.get(m, 0) for m in W.basis])
    return rref_reference(forms, W.ring.field.characteristic)[0]


def ideal_file_text(I: IdealHandle) -> str:
    """The ideal file that parse_ideal_file reads back as I."""
    ring = I.ring
    head = f"ring: {ring.field}; vars: {','.join(ring.names)}"
    lines = [head, "gens:"] + [poly_str(g) for g in I.generators]
    return "\n".join(lines) + "\n"


def compose(a: BorelOmegaElement, b: BorelOmegaElement) -> BorelOmegaElement:
    """The matrix product a*b, validated as a Borel element."""
    if a.weight != b.weight:
        raise ValueError("weights differ")
    n = len(a.weight)
    prod = []
    for i in range(n):
        row = []
        for j in range(n):
            s = 0
            for k in range(n):
                s += a.matrix[i][k] * b.matrix[k][j]
            row.append(s)
        prod.append(tuple(row))
    return BorelOmegaElement(a.weight, tuple(prod), a.field)
