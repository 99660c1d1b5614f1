"""Acceptance suite: one test per criterion, exact arithmetic, stated budgets.

Every check is zero-tolerance (exact rational equality).  Each test prints a
single pass line with its runtime; run with ``pytest tests/test_acceptance.py
-v -s`` to see them.  Random data is drawn from fixed seeds, so runs are
reproducible.
"""

import random
import time
from fractions import Fraction

from wittkit.derivations import (
    DerivationSpec,
    SubspaceSpec,
    centralizer,
    h1_dimension,
    solve_inner,
    stabilization_scan,
    submodule_closure,
)
from wittkit.fields import L_basis, TruncationWindow, VectorField, euler, sl_basis
from wittkit.linalg import RowSpace
from wittkit.poly import Monomial, Polynomial
from wittkit.suites import (
    random_field,
    random_homogeneous_field,
    run_suite,
)
from wittkit.textio import parse_field, print_field

SEED = 20250401


def span(max_var, lo, hi):
    return SubspaceSpec.span_window(TruncationWindow(max_var, lo, hi, "strict"))


def _finish(num, name, started, budget):
    elapsed = time.time() - started
    print(f"criterion {num:2d} PASS  {name}  ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _assert_suite(results):
    for r in results:
        assert r.ok, f"{r.item}: {r.detail}"


def test_criterion_01_bracket_correctness():
    started = time.time()
    # >= 500 seeded random pairs/triples, <= 4 variables, degree <= 3:
    # antisymmetry, bilinearity, Jacobi, and the derivation-commutator oracle
    _assert_suite(run_suite("bracket", SEED))
    _finish(1, "bracket properties on 500 random pairs/triples", started, 10)


def test_criterion_02_equation_identities():
    started = time.time()
    # >= 200 random (w, i, j): the three closed bracket formulas match the
    # generic bracket exactly
    _assert_suite(run_suite("identities", SEED))
    _finish(2, "closed bracket identities on 200 random inputs", started, 10)


def test_criterion_03_grading():
    started = time.time()
    rng = random.Random(SEED + 3)
    for n in (2, 3, 4):
        e = euler(n)
        for k in range(-1, 4):
            for _ in range(10):
                w = random_homogeneous_field(rng, k, n)
                assert e.bracket(w) == w.scale(k)
                ka = rng.randint(-1, 3)
                u = random_homogeneous_field(rng, ka, n)
                b = u.bracket(w)
                assert b.is_zero() or b.degree() == ka + k
    _finish(3, "degree additivity and grading-field eigenvalues", started, 5)


def test_criterion_04_h1_vanishes():
    started = time.time()
    for n in (2, 3):
        for k in (-1, 0, 1):
            for m in (n, n + 1):
                module = span(m, k, k)
                assert h1_dimension(n, module) == 0, (n, k, m)
    _finish(4, "first cohomology vanishes on the (n, k, m) grid", started, 60)


def test_criterion_05_sl_centralizer_shapes():
    started = time.time()
    basis = centralizer(sl_basis(3), span(3, -1, 3))
    assert len(basis) == 1
    assert basis[0] == euler(3).scale(basis[0].coeff(Monomial.var(1), 1))

    amb = span(4, -1, 1)
    computed = centralizer(sl_basis(3), amb)
    assert len(computed) == 5
    predicted = [
        euler(3),
        euler(3).mul_poly(Polynomial.variable(4)),
        VectorField.direction(4),
        VectorField.term(Monomial({4: 1}), 4),
        VectorField.term(Monomial({4: 2}), 4),
    ]
    left, right, union = RowSpace(amb.dim), RowSpace(amb.dim), RowSpace(amb.dim)
    for f in computed:
        left.add(amb.coords(f))
        union.add(amb.coords(f))
    for f in predicted:
        right.add(amb.coords(f))
        union.add(amb.coords(f))
    assert left.rank == right.rank == union.rank == 5
    _finish(5, "special-linear centralizers match the predicted shapes", started, 60)


def test_criterion_06_L_centralizer_trivial():
    started = time.time()
    for n in (2, 3):
        assert centralizer(L_basis(n), span(n, -1, 3)) == []
    _finish(6, "centralizer of the direction+linear family is zero", started, 30)


def test_criterion_07_inner_reconstruction():
    started = time.time()
    rng = random.Random(SEED + 7)
    search = span(3, -1, 2)
    gens = L_basis(3)
    for trial in range(100):
        w = random_field(rng, max_var=3, max_deg=2, terms=4)
        result = solve_inner(DerivationSpec.from_ad(w, gens), search)
        assert result.kind == "unique", trial
        assert result.field == w, trial

    # with special-linear generators only, the ambiguity is exactly the
    # grading line
    w = random_field(rng, max_var=3, max_deg=2, terms=4)
    result = solve_inner(DerivationSpec.from_ad(w, sl_basis(3)), search)
    assert result.kind == "underdetermined"
    assert len(result.kernel) == 1
    k = result.kernel[0]
    scale = k.coeff(Monomial.var(1), 1)
    assert scale != 0 and k == euler(3).scale(scale)
    _finish(7, "100 exact inner-element round trips with uniqueness", started, 120)


def test_criterion_08_stabilization():
    started = time.time()
    w = (
        VectorField.term(Monomial({1: 2}), 2)
        + VectorField.term(Monomial.var(2), 1).scale(2)
        - VectorField.term(Monomial.var(1), 1).scale(Fraction(1, 3))
    )
    report = stabilization_scan("solve-inner", [2, 3, 4, 5], from_field=w, generators="L")
    assert report.all_stabilized
    assert all(report.stabilized.values())
    assert report.limit == w
    _finish(8, "coefficient trajectories stabilize with the right limit", started, 120)


def test_criterion_09_submodule_closures():
    started = time.time()
    assert len(submodule_closure(VectorField.direction(1), 3, span(3, -1, -1))) == 3
    for n in (2, 3):
        assert len(submodule_closure(euler(n), n, span(n, 0, 0))) == 1
    assert len(submodule_closure(VectorField.term(Monomial.var(1), 1), 2, span(2, 0, 0))) == 4
    _finish(9, "orbit closures terminate at the hand-checked dimensions", started, 5)


def test_criterion_10_textio():
    started = time.time()
    # >= 1000 print/parse round trips, fuzz safety, lossless JSON
    _assert_suite(run_suite("textio", SEED))
    assert parse_field(print_field(VectorField.zero())) == VectorField.zero()
    _finish(10, "grammar round trips, fuzz safety, JSON round trips", started, 10)
