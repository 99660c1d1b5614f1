"""Exact polynomial arithmetic: golden cases plus algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.poly import Monomial, Polynomial, format_polynomial, monomial_from_pairs, monomials_of_length

x1 = Polynomial.variable(1)
x2 = Polynomial.variable(2)


def mono(**kw):
    return Monomial({int(k[1:]): v for k, v in kw.items()})


monomials = st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=3).map(Monomial)
coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6).filter(lambda c: c != 0)
polynomials = st.lists(st.tuples(monomials, coeffs), max_size=4).map(Polynomial)


def test_add_cancellation():
    assert (x1 + x2) - x2 == x1
    assert ((x1 + x2) + x2.scale(-1)) == x1


def test_add_identity():
    p = x1 * x2 + Polynomial.constant(3)
    assert p + Polynomial.zero() == p


def test_like_term_merge():
    half = Polynomial.term(mono(x1=2), Fraction(1, 2))
    assert half + half == Polynomial.term(mono(x1=2))


def test_difference_of_squares():
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_mul_identity_and_exponents():
    p = x1 * x1 + x2
    assert p * Polynomial.one() == p
    assert x1 * Polynomial.term(mono(x1=2)) == Polynomial.term(mono(x1=3))


def test_partial_power_rule():
    p = Polynomial.term(mono(x1=2, x2=1))
    assert p.partial(1) == Polynomial.term(mono(x1=1, x2=1), 2)
    assert p.partial(3).is_zero()
    assert Polynomial.term(mono(x2=3)).partial(2) == Polynomial.term(mono(x2=2), 3)


def test_var_degree():
    m = mono(x1=2, x2=1)
    assert m.var_degree(1) == 2
    assert m.var_degree(5) == 0
    assert Monomial.unit().var_degree(1) == 0
    assert m.length() == 3


def test_support_vars():
    assert (Polynomial.term(mono(x1=2, x2=1))).support_vars() == {1, 2}
    assert Polynomial.zero().support_vars() == frozenset()
    assert (Polynomial.constant(3) + Polynomial.variable(4)).support_vars() == {4}


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial({0: 1})
    with pytest.raises(ValueError):
        Monomial({1: -1})
    assert Monomial({1: 0}) == Monomial.unit()


def test_monomial_enumeration():
    assert [m.pairs for m in monomials_of_length(0, 3)] == [()]
    assert len(list(monomials_of_length(2, 3))) == 6
    assert len(list(monomials_of_length(3, 4))) == 20


def test_zero_polynomial_is_first_class():
    z = Polynomial.zero()
    assert z.is_zero() and not z
    assert z * x1 == z
    assert z.partial(1) == z
    assert format_polynomial(z) == "0"


@given(polynomials, polynomials)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polynomials, polynomials, polynomials)
@settings(max_examples=60)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polynomials, polynomials, st.integers(1, 4))
@settings(max_examples=60)
def test_leibniz(p, q, i):
    assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


@given(polynomials, st.integers(1, 4), st.integers(1, 4))
def test_partials_commute(p, i, j):
    assert p.partial(i).partial(j) == p.partial(j).partial(i)


@given(polynomials, polynomials)
def test_results_normalized(p, q):
    for result in (p + q, p - q, p * q, p.partial(1)):
        for m, c in result.terms():
            assert c != 0
            assert all(e >= 1 and v >= 1 for v, e in m.pairs)


def test_canonical_term_order():
    p = Polynomial.one() + x1 + Polynomial.term(mono(x1=2)) + x2
    order = [m for m, _ in p.terms()]
    assert order == [mono(x1=2), mono(x1=1), mono(x2=1), Monomial.unit()]
    assert format_polynomial(p) == "x1^2 + x1 + x2 + 1"


@given(monomials)
def test_trusted_monomial_equals_checked(m):
    # the trusted constructor from canonical pairs equals, and hashes like,
    # the checking one from an exponent dict
    trusted = monomial_from_pairs(m.pairs)
    checked = Monomial(dict(m.pairs))
    assert trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked)
    assert trusted.pairs == checked.pairs and trusted.length() == checked.length()
    assert {trusted: 1}[checked] == 1
    assert monomial_from_pairs(()) == Monomial.unit()
