"""Vector fields: bracket, grading, windows, standard bases."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.fields import (
    L_basis,
    TruncationWindow,
    VectorField,
    WindowViolation,
    bracket_terms,
    euler,
    exponent_terms,
    gl_basis,
    sl_basis,
    truncate,
)
from wittkit.linalg import RowSpace
from wittkit.poly import Monomial, Polynomial
from wittkit.suites import random_field

monomials = st.dictionaries(st.integers(1, 4), st.integers(1, 2), max_size=3).map(Monomial)
coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(lambda c: c != 0)
fields = st.lists(
    st.tuples(monomials, st.integers(1, 4), coeffs), max_size=4
).map(lambda terms: sum((VectorField.term(m, i, c) for m, i, c in terms), VectorField.zero()))
polynomials = st.lists(st.tuples(monomials, coeffs), max_size=3).map(Polynomial)


def term(i, **kw):
    return VectorField.term(Monomial({int(k[1:]): v for k, v in kw.items()}), i)


def test_bracket_golden():
    assert VectorField.direction(1).bracket(term(2, x1=1)) == VectorField.direction(2)
    assert term(2, x1=1).bracket(term(1, x2=1)) == term(1, x1=1) - term(2, x2=1)


def test_bracket_against_derivation_oracle():
    # apply both derivations to each coordinate and subtract
    u = term(1, x1=1, x2=1)
    w = term(1, x2=1)
    b = u.bracket(w)
    assert b == term(1, x2=2).scale(-1)
    for k in (1, 2, 3):
        xk = Polynomial.variable(k)
        assert b.apply_to(xk) == u.apply_to(w.apply_to(xk)) - w.apply_to(u.apply_to(xk))


def term_map(w):
    return {(m, i): c for m, i, c in w.terms()}


def term_bracket(u, w):
    return bracket_terms(exponent_terms(u), exponent_terms(w))


def test_bracket_terms_golden():
    assert term_bracket(VectorField.direction(1), term(2, x1=1)) == {(Monomial(), 2): 1}
    assert term_bracket(term(1, x1=1, x2=1), term(1, x2=1)) == {(Monomial({2: 2}), 1): -1}
    assert term_bracket(term(1, x1=1), term(1, x1=1)) == {}
    assert term_bracket(VectorField.direction(1), VectorField.direction(2)) == {}
    assert term_bracket(VectorField.zero(), euler(2)) == {}
    # [1/2 x1^2 d2, 4 x1 x2 d1] = 2 x1^3 d1 - 4 x1^2 x2 d2, with int coefficients
    u = term(2, x1=2).scale(Fraction(1, 2))
    w = term(1, x1=1, x2=1).scale(4)
    got = term_bracket(u, w)
    assert got == {(Monomial({1: 3}), 1): 2, (Monomial({1: 2, 2: 1}), 2): -4}
    assert all(type(c) is int for c in got.values())
    assert term_bracket(u, VectorField.direction(3).scale(Fraction(1, 3))) == {}
    got = term_bracket(u, term(1, x2=1).scale(Fraction(1, 3)))
    assert got == {(Monomial({1: 2}), 1): Fraction(1, 6), (Monomial({1: 1, 2: 1}), 2): Fraction(-1, 3)}
    assert all(type(c) is Fraction for c in got.values())


def test_bracket_terms_match_generic_bracket():
    # oracle: VectorField.bracket on seeded random pairs
    rng = random.Random(20251018)
    seen = {"rational": 0, "unit": 0, "free-direction": 0, "cancelled": 0}
    for _ in range(500):
        u, w = random_field(rng), random_field(rng)
        generic = u.bracket(w)
        got = term_bracket(u, w)
        assert got == term_map(generic)
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in got.values())
        # images are term maps and can be bracketed again
        assert bracket_terms(exponent_terms(got), exponent_terms(u)) == term_map(generic.bracket(u))
        terms = [*u.terms(), *w.terms()]
        seen["rational"] += any(c.denominator != 1 for _, _, c in terms)
        seen["unit"] += any(not m.pairs for m, _, _ in terms)
        variables = {v for m, _, _ in terms for v in m.support()}
        seen["free-direction"] += any(i not in variables for _, i, _ in terms)
        seen["cancelled"] += not got and not u.is_zero() and not w.is_zero()
    assert min(seen.values()) >= 10, seen


def test_bracket_terms_integer_structure_constants():
    # integral inputs give int coefficients
    for a in sl_basis(3) + gl_basis(2):
        for b in L_basis(3):
            got = term_bracket(a, b)
            assert got == term_map(a.bracket(b))
            assert all(type(c) is int for c in got.values())


def test_apply_field_golden():
    assert term(2, x1=1).apply_to(Polynomial.variable(2)) == Polynomial.variable(1)
    w = term(1, x1=1, x2=1) + VectorField.direction(2)
    assert w.apply_to(Polynomial.one()).is_zero()
    p = Polynomial.variable(1) * Polynomial.variable(2)
    assert euler(2).apply_to(p) == 2 * p


@given(fields, fields)
@settings(max_examples=80)
def test_antisymmetry(u, w):
    assert u.bracket(w) == w.bracket(u).scale(-1)


@given(fields, fields, fields)
@settings(max_examples=60, deadline=None)
def test_jacobi(u, v, w):
    total = u.bracket(v.bracket(w)) + v.bracket(w.bracket(u)) + w.bracket(u.bracket(v))
    assert total.is_zero()


@given(fields, fields, polynomials)
@settings(max_examples=60)
def test_bracket_is_commutator_of_derivations(u, w, p):
    assert u.bracket(w).apply_to(p) == u.apply_to(w.apply_to(p)) - w.apply_to(u.apply_to(p))


def test_degree_components():
    w = VectorField.direction(1) + term(2, x1=1, x2=1)
    comps = w.degree_components()
    assert set(comps) == {-1, 1}
    assert comps[-1].field == VectorField.direction(1)
    assert comps[1].field == term(2, x1=1, x2=1)
    assert sum((h.field for h in comps.values()), VectorField.zero()) == w
    assert VectorField.zero().degree_components() == {}
    diag = term(1, x1=1) - term(2, x2=1)
    assert set(diag.degree_components()) == {0}


@given(fields)
def test_degree_components_recover(w):
    comps = w.degree_components()
    assert sum((h.field for h in comps.values()), VectorField.zero()) == w
    for deg, h in comps.items():
        assert h.degree == deg
        assert all(m.length() - 1 == deg for m, _, _ in h.field.terms())


def test_standard_basis_shapes():
    assert sl_basis(2) == [term(2, x1=1), term(1, x2=1), term(1, x1=1) - term(2, x2=1)]
    assert len(sl_basis(3)) == 8
    assert len(gl_basis(3)) == 9
    assert len(L_basis(2)) == 6
    with pytest.raises(ValueError):
        sl_basis(1)
    with pytest.raises(ValueError):
        gl_basis(0)


def _closed_under_bracket(basis):
    dim = len(basis)
    terms = sorted({(m, i) for b in basis for m, i, _ in b.terms()},
                   key=lambda t: (t[0].length(), t[1], t[0].pairs))
    index = {t: k for k, t in enumerate(terms)}

    def coords(w):
        vec = [Fraction(0)] * len(terms)
        for m, i, c in w.terms():
            if (m, i) not in index:
                return None
            vec[index[(m, i)]] = c
        return vec

    space = RowSpace(len(terms))
    for b in basis:
        space.add(coords(b))
    assert space.rank == dim
    for a in basis:
        for b in basis:
            vec = coords(a.bracket(b))
            if vec is None or space.add(vec):
                return False
    return True


def test_sl_closed_under_bracket():
    assert _closed_under_bracket(sl_basis(2))
    assert _closed_under_bracket(sl_basis(3))


def test_L_closed_under_bracket():
    assert _closed_under_bracket(L_basis(2))
    assert _closed_under_bracket(L_basis(3))


def test_euler_commutes_with_sl():
    for n in (2, 3, 4):
        e = euler(n)
        assert all(s.bracket(e).is_zero() for s in sl_basis(n))


def test_euler_eigenvalues():
    assert euler(2).bracket(VectorField.direction(1)) == VectorField.direction(1).scale(-1)
    w = term(3, x1=1, x2=1)
    assert euler(3).bracket(w) == w


@given(st.integers(2, 4), st.integers(-1, 3), st.data())
@settings(max_examples=50)
def test_grading(n, k, data):
    terms = data.draw(st.lists(
        st.tuples(st.integers(1, n), coeffs), min_size=1, max_size=3))
    w = VectorField.zero()
    for direction, c in terms:
        body = data.draw(st.lists(st.integers(1, n), min_size=k + 1, max_size=k + 1))
        exps = {}
        for v in body:
            exps[v] = exps.get(v, 0) + 1
        w = w + VectorField.term(Monomial(exps), direction, c)
    if w.is_zero():
        return
    assert euler(n).bracket(w) == w.scale(k)
    u = VectorField.term(Monomial({1: 2}), 2)  # degree 1
    b = u.bracket(w)
    if not b.is_zero():
        assert b.degree() == k + 1


def test_truncate_project_and_strict():
    w = term(1, x1=1) + term(1, x5=1)
    window = TruncationWindow(4, -1, 3, "project")
    assert truncate(w, window) == term(1, x1=1)
    assert truncate(w, TruncationWindow(5, -1, 3, "project")) == w
    with pytest.raises(WindowViolation) as err:
        truncate(term(1, x5=1), TruncationWindow(4, -1, 3, "strict"))
    assert "x5 d1" in str(err.value)


def test_truncate_degree_bounds():
    w = VectorField.direction(1) + term(1, x1=2)
    assert truncate(w, TruncationWindow(2, 0, 3, "project")) == term(1, x1=2)
    assert truncate(w, TruncationWindow(2, -1, 0, "project")) == VectorField.direction(1)


def test_window_validation():
    with pytest.raises(ValueError):
        TruncationWindow(0, -1, 1)
    with pytest.raises(ValueError):
        TruncationWindow(2, 2, 1)
    with pytest.raises(ValueError):
        TruncationWindow(2, -2, 1)
    with pytest.raises(ValueError):
        TruncationWindow(2, -1, 1, "loose")


def test_window_term_basis():
    window = TruncationWindow(2, -1, 1, "strict")
    basis = window.term_basis()
    assert len(basis) == window.dimension() == 2 * (1 + 2 + 3)
    degrees = [m.length() - 1 for m, _ in basis]
    assert degrees == sorted(degrees)


def test_max_indices():
    w = term(4, x2=1) + VectorField.direction(6)
    assert w.max_variable() == 2
    assert w.max_direction() == 6
    assert w.max_index() == 6
    assert VectorField.zero().max_index() == 0


def test_values_shareable_across_threads():
    # immutable values, pure operations: parallel brackets agree with serial
    from concurrent.futures import ThreadPoolExecutor
    import random

    from wittkit.suites import random_field

    rng = random.Random(31)
    pairs = [(random_field(rng), random_field(rng)) for _ in range(40)]
    serial = [u.bracket(w) for u, w in pairs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda p: p[0].bracket(p[1]), pairs))
    assert serial == parallel
