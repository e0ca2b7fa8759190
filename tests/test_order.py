import random

import pytest

from circuitfan import DRL, LEX, PolyRing, leading_term, parse_order, weighted
from circuitfan.order import MonomialOrder, leading_monomial
from circuitfan.ring import initial_form_w, monomials_of_degree

from conftest import random_homogeneous


def test_lex_compare():
    assert LEX.key((2, 0)) > LEX.key((1, 1))


def test_drl_compare():
    # three variables: the monomial with the smaller last exponent wins
    assert DRL.key((0, 2, 0)) > DRL.key((1, 0, 1))


def test_weight_refined_tie():
    o = weighted((1, 1), tie=LEX)
    assert o.key((2, 1)) > o.key((1, 2))


def test_compare_total_on_degree():
    rng = random.Random(5)
    monos = monomials_of_degree(3, 4)
    for o in (LEX, DRL, weighted((3, 1, 0), tie=DRL)):
        shuffled = list(monos)
        rng.shuffle(shuffled)
        s1 = sorted(shuffled, key=o.key)
        s2 = sorted(monos, key=o.key)
        assert s1 == s2
        assert len({o.key(m) for m in monos}) == len(monos)


def test_multiplicative():
    rng = random.Random(6)
    monos = monomials_of_degree(3, 3)
    for o in (LEX, DRL, weighted((2, 1, 0))):
        for _ in range(50):
            a, b = rng.sample(monos, 2)
            c = rng.choice(monos)
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert (o.key(a) < o.key(b)) == (o.key(ac) < o.key(bc))


def test_no_op_nesting_rejected():
    with pytest.raises(ValueError):
        weighted((1, 0), tie=weighted((1, 0), tie=DRL))


def test_leading_term_examples():
    R = PolyRing(("x", "y"))
    assert leading_term(R.parse("x + y"), LEX) == ((1, 0), 1)
    f = R.parse("x^2 + x*y + y^2")
    assert leading_term(f, weighted((2, 1), tie=LEX)) == ((2, 0), 1)
    assert leading_term(R.parse("x + y"), weighted((1, 1), tie=LEX)) == ((1, 0), 1)


def test_leading_zero_rejected():
    R = PolyRing(("x", "y"))
    with pytest.raises(ValueError):
        leading_term(R.zero(), LEX)


def test_weight_refinement_factors_through_initial_form():
    rng = random.Random(7)
    R = PolyRing(("x", "y", "z"))
    for _ in range(30):
        f = random_homogeneous(R, rng.choice([2, 3, 4]), rng)
        w = tuple(rng.randint(-3, 3) for _ in range(3))
        refined = weighted(w, tie=DRL)
        assert leading_monomial(f, refined) == leading_monomial(
            initial_form_w(f, w), DRL
        )


def test_parse_order_syntax():
    assert parse_order("lex") == LEX
    assert parse_order("drl") == DRL
    o = parse_order("w:2,1,0;tie=drl")
    assert o == MonomialOrder("weight", weight=(2, 1, 0), tie=DRL)
    assert parse_order(str(o)) == o
    with pytest.raises(ValueError):
        parse_order("grevlex-typo")
