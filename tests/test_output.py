"""Output formatting: the CLI's JSON emitter against ``json.dumps(doc,
indent=2)``, and the rank sort of ``CircuitsSet.to_json`` and the
``poly_str`` printer against their plain references."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitfan import CircuitsSet, PolyRing, Polynomial, PrimeField, QQ, cli, poly_str
from circuitfan.ring import canonical_key, monomials_of_degree

from oracles import circuits_json_reference, poly_str_reference
from test_golden import BENCH, load_corpus

# ---------------------------------------------------------------------------
# the emitter

_tricky = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀", "/"])
strings = st.lists(st.one_of(_tricky, st.text(max_size=4)), max_size=4).map("".join)
ints = st.one_of(st.integers(-1000, 1000), st.integers(-(10**40), 10**40))
scalars = st.one_of(
    strings, ints, st.booleans(), st.none(), st.floats(allow_nan=True, allow_infinity=True)
)
keys = st.one_of(strings, ints, st.booleans(), st.none(), st.floats(allow_nan=False))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        # the one-pass paths and the lists that leave them part way
        st.lists(strings, max_size=4),
        st.lists(ints, max_size=4),
        st.lists(st.one_of(ints, st.booleans()), min_size=1, max_size=4),
        st.tuples(strings, children),
        st.tuples(ints, children),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        # json's own text, indented to the depth it is written at
        st.lists(st.dictionaries(ints, children, min_size=1, max_size=2), min_size=1, max_size=2),
    )


documents = st.recursive(scalars, _containers, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_emitter_equals_json_dumps(doc):
    assert cli.dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("workload", ["circuits", "generic", "groebner", "fan"])
def test_emitter_equals_json_dumps_on_golden_documents(workload, tmp_path, monkeypatch, capsys):
    golden = json.loads((BENCH / "golden.json").read_text())
    corpus = load_corpus()
    files, jobs = corpus.build(workload, golden["seed"])
    corpus.write(files, tmp_path)
    monkeypatch.chdir(tmp_path)
    documents = []
    emit = cli.dumps

    def recording(doc):
        documents.append(doc)
        return emit(doc)

    monkeypatch.setattr(cli, "dumps", recording)
    for _, argv in jobs:
        cli.main(argv)
    capsys.readouterr()
    assert len(documents) == len(jobs)
    for doc in documents:
        assert emit(doc) == json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# circuits sorted by ranks


@st.composite
def circuit_families(draw):
    n = draw(st.integers(4, 5))
    ring = PolyRing(tuple("abcde"[:n]))
    mapping = {}
    for d in draw(st.sets(st.integers(1, 3), min_size=1, max_size=3)):
        monos = monomials_of_degree(n, d)
        circ = draw(
            st.sets(st.frozensets(st.sampled_from(monos), min_size=1, max_size=5), max_size=12)
        )
        if circ:
            # a circuit whose descending key list is a prefix of another's
            c = min(circ, key=len)
            below = [m for m in monos if canonical_key(m) < min(map(canonical_key, c))]
            if below:
                circ.add(c | {draw(st.sampled_from(below))})
        mapping[d] = circ
    return ring, CircuitsSet.build(mapping)


@settings(max_examples=150, deadline=None)
@given(circuit_families())
def test_to_json_equals_key_list_sort(family):
    ring, cs = family
    assert cs.to_json(ring) == circuits_json_reference(cs, ring)


def test_to_json_puts_the_longer_of_two_prefixed_circuits_first():
    ring = PolyRing(("a", "b", "c", "d"))
    a2, ab, d2 = (2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 0, 2)
    cs = CircuitsSet.build({2: {frozenset({a2, ab}), frozenset({a2, ab, d2})}})
    assert cs.to_json(ring) == [{"degree": 2, "circuits": [["a^2", "a*b", "d^2"], ["a^2", "a*b"]]}]
    assert cs.to_json(ring) == circuits_json_reference(cs, ring)


# ---------------------------------------------------------------------------
# polynomials printed from numerator and denominator

GF = PrimeField(32003)
_coefficients = st.one_of(
    st.sampled_from([(1, 1), (-1, 1), (-1, 2), (3, 4), (-3, 4), (2, 1)]),
    st.tuples(st.integers(-(10**30), 10**30).filter(bool), st.integers(1, 10**6)),
)


@st.composite
def polynomials(draw, fld):
    n = draw(st.integers(1, 4))
    ring = PolyRing(tuple("wxyz"[:n]), fld)
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    terms = {}
    # the constant term comes up often
    for m in draw(st.lists(st.one_of(st.just((0,) * n), exponents), max_size=6)):
        num, den = draw(_coefficients)
        if fld.characteristic and den % fld.characteristic == 0:
            continue
        terms[m] = Fraction(num, den)
    return Polynomial(ring, terms)


@settings(max_examples=150, deadline=None)
@given(st.one_of(polynomials(QQ), polynomials(GF)))
def test_poly_str_equals_field_operation_reference(f):
    assert poly_str(f) == poly_str_reference(f)


def test_poly_str_over_q_reads_signs_units_and_fractions():
    R = PolyRing(("x", "y"))
    f = Polynomial(R, {(2, 0): Fraction(-1), (1, 1): Fraction(3, 4), (0, 2): Fraction(-1, 2), (0, 0): Fraction(1)})
    assert poly_str(f) == "-x^2 + 3/4*x*y - 1/2*y^2 + 1" == poly_str_reference(f)
    g = Polynomial(PolyRing(("x",), GF), {(1,): Fraction(-1), (0,): Fraction(1)})
    assert poly_str(g) == "32002*x + 1" == poly_str_reference(g)
