"""Independent check of the golden manifest: the outputs it hashes agree with
sympy, not only with the program itself.

- ``gb`` jobs of the ``groebner`` workload under degrevlex against
  ``sympy.groebner`` (grevlex, over QQ and modulo 32003);
- circuits of degree <= 3 of the ``circuits`` jobs against a brute-force
  enumeration of all monomial subsets, with ranks from ``sympy.Matrix.rank``
  over QQ and from sympy's ``DomainMatrix`` over GF(32003).

Ideal files and outputs are parsed here, without the program's parser.
Skipped when sympy is not installed.
"""
import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

import corpus
import run


def golden_outputs(workload, command):
    """Run the workload's jobs of one command on the default seed and check
    their golden hashes; returns [(job name, argv, file text, output)]."""
    golden = json.loads(run.GOLDEN.read_text())
    assert golden["seed"] == run.DEFAULT_SEED
    expected = golden["workloads"][workload]
    out = []
    with run.corpus_dir(workload, run.DEFAULT_SEED) as (_, cli, jobs):
        for name, argv in jobs:
            if argv[1] != command:
                continue
            _, code, data = run.run_job(cli, argv)
            assert code == expected[name]["exit"] == 0
            assert run.sha256(data) == expected[name]["sha256"], name
            out.append((name, argv, Path(argv[2]).read_text(), json.loads(data)))
    return out


def parse_ideal(text):
    head, _, *gens = text.splitlines()
    field, names = (part.split(":")[1].strip() for part in head.split(";"))
    modulus = int(field[3:-1]) if field.startswith("GF") else None
    syms = sympy.symbols(names.split(","))
    return [parse_poly(g, syms, modulus) for g in gens], syms, modulus


def parse_poly(text, syms, modulus):
    expr = sympy.sympify(text.replace("^", "**"), locals={str(s): s for s in syms})
    options = {"modulus": modulus} if modulus else {"domain": sympy.QQ}
    return sympy.Poly(expr, *syms, **options)


def canonical(poly, modulus):
    """Polynomial as a frozenset of (exponents, coefficient)."""
    if modulus:
        return frozenset((m, int(c) % modulus) for m, c in poly.terms())
    return frozenset((m, sympy.Rational(c)) for m, c in poly.terms())


def test_gb_matches_sympy_groebner():
    checked = 0
    for name, argv, text, doc in golden_outputs("groebner", "gb"):
        if argv[argv.index("--order") + 1] != "drl":
            continue
        polys, syms, modulus = parse_ideal(text)
        options = {"modulus": modulus} if modulus else {"domain": sympy.QQ}
        reference = sympy.groebner(polys, *syms, order="grevlex", **options)
        want = {canonical(p, modulus) for p in reference.polys}
        got = {
            canonical(parse_poly(g, syms, modulus), modulus)
            for g in doc["basis"]["elements"]
        }
        assert got == want, name
        checked += 1
    assert checked == 7


def brute_force_circuits(polys, syms, modulus, d):
    """Inclusion-minimal supports of nonzero degree-d elements, by testing
    every monomial subset: S supports an element of I_d iff the columns
    outside S of a spanning matrix of I_d lose rank."""
    n = len(syms)
    cols = corpus.monomials(n, d)
    rows = []
    for g in polys:
        gap = d - g.total_degree()
        for m in corpus.monomials(n, gap) if gap >= 0 else []:
            shifted = g * sympy.Poly(sympy.Mul(*(s**e for s, e in zip(syms, m))), *syms,
                                     **({"modulus": modulus} if modulus else {}))
            coeffs = dict(shifted.terms())
            rows.append([coeffs.get(c, 0) for c in cols])
    if not rows:
        return set()

    def rank(matrix_rows):
        if not matrix_rows or not matrix_rows[0]:
            return 0
        if modulus:
            K = GF(modulus)
            return DomainMatrix(
                [[K(int(x) % modulus) for x in r] for r in matrix_rows],
                (len(matrix_rows), len(matrix_rows[0])), K,
            ).rank()
        return sympy.Matrix(matrix_rows).rank()

    full = rank(rows)
    dependent = {}
    for size in range(1, len(cols) + 1):
        for subset in itertools.combinations(range(len(cols)), size):
            keep = [j for j in range(len(cols)) if j not in subset]
            dependent[frozenset(subset)] = rank([[r[j] for j in keep] for r in rows]) < full
    return {
        frozenset(cols[j] for j in s)
        for s, dep in dependent.items()
        if dep and all(not dependent.get(s - {j}, False) for j in s)
    }


def parse_monomial(text, names):
    e = [0] * len(names)
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        e[names.index(name)] += int(power or 1)
    return tuple(e)


def test_low_degree_circuits_match_brute_force():
    checked = 0
    for name, argv, text, doc in golden_outputs("circuits", "circuits"):
        polys, syms, modulus = parse_ideal(text)
        names = [str(s) for s in syms]
        got = {
            entry["degree"]: {
                frozenset(parse_monomial(m, names) for m in c) for c in entry["circuits"]
            }
            for entry in doc["circuits"]
        }
        for d in range(4):
            assert got.get(d, set()) == brute_force_circuits(polys, syms, modulus, d), (name, d)
        checked += 1
    assert checked == 13
