"""Exact linear algebra, cross-checked against two independent oracles:
sympy, and the dense Gauss-Jordan eliminator of ``oracle.py``."""

import random
from fractions import Fraction

import oracle
import pytest
import sympy

from wittkit import linalg
from wittkit.linalg import (
    RationalMatrix,
    RowSpace,
    SpanCoordinates,
    kernel,
    rank,
    rref,
    solve,
    solve_many,
    solve_sparse,
)


def rows_of(m):
    return [[sympy.Rational(v) for v in m.row(i)] for i in range(m.rows)]


# the sympy cross-checks run on the public readouts and on the dense oracle
ENGINES = [pytest.param(linalg, id="public"), pytest.param(oracle, id="oracle")]


def random_matrix(rng, r, c, bound=10):
    return RationalMatrix.from_rows(
        [[Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(c)] for _ in range(r)]
    )


def test_rref_goldens():
    eye = RationalMatrix.identity(3)
    assert rref(eye) == eye
    assert rref(RationalMatrix.from_rows([[2, 4], [1, 2]])) == RationalMatrix.from_rows([[1, 2], [0, 0]])
    z = RationalMatrix.zero(2, 3)
    assert rref(z) == z
    # no rows, or no columns: the shape is kept
    for empty in (RationalMatrix(0, 3, ()), RationalMatrix(2, 0, ())):
        assert rref(empty) == empty


def test_kernel_goldens():
    assert kernel(RationalMatrix.identity(4)) == []
    assert len(kernel(RationalMatrix.zero(2, 3))) == 3
    assert kernel(RationalMatrix.from_rows([[1, 1]])) == [(Fraction(-1), Fraction(1))]


def test_solve_goldens():
    eye = RationalMatrix.identity(3)
    out = solve(eye, [1, 2, 3])
    assert out.kind == "unique" and out.particular == (1, 2, 3) and out.kernel_basis == ()
    out = solve(RationalMatrix.from_rows([[1, 1]]), [0])
    assert out.kind == "underdetermined" and len(out.kernel_basis) == 1
    out = solve(RationalMatrix.from_rows([[0]]), [1])
    assert out.kind == "inconsistent" and out.particular is None and out.bad_row == 0


def test_solve_shape_checks():
    with pytest.raises(ValueError):
        solve(RationalMatrix.identity(2), [1])
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, (Fraction(1),))


@pytest.mark.parametrize("engine", ENGINES)
def test_rref_matches_sympy(engine):
    rng = random.Random(421)
    for _ in range(60):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, r, c)
        ours = engine.rref(m)
        theirs, _ = sympy.Matrix(rows_of(m)).rref()
        assert rows_of(ours) == theirs.tolist()
        assert ours == oracle.rref(m)
        assert engine.rank(m) == oracle.rank(m)


@pytest.mark.parametrize("engine", ENGINES)
def test_kernel_matches_sympy_span(engine):
    rng = random.Random(422)
    for _ in range(60):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, r, c)
        ours = engine.kernel(m)
        # the order of the vectors is part of the result
        assert ours == oracle.kernel(m)
        theirs = sympy.Matrix(rows_of(m)).nullspace()
        assert len(ours) == len(theirs)
        for vec in ours:
            assert all(v == 0 for v in m.mat_vec(list(vec)))
        if ours:
            span = RowSpace(c)
            for vec in theirs:
                span.add([Fraction(v.p, v.q) for v in vec])
            assert span.rank == len(ours)
            assert all(span.contains(vec) for vec in ours)


def test_rank_nullity_and_determinism():
    rng = random.Random(423)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) + len(kernel(m)) == m.cols
        assert rref(m) == rref(m)
        assert kernel(m) == kernel(m)
        assert rref(rref(m)) == rref(m)


@pytest.mark.parametrize("engine", ENGINES)
def test_solve_classification_matches_sympy(engine):
    rng = random.Random(424)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, r, c, bound=4)
        b = [Fraction(rng.randint(-4, 4)) for _ in range(r)]
        ours = engine.solve(m, b)
        # kernel order and bad_row included
        assert ours == oracle.solve(m, b)
        A = sympy.Matrix(rows_of(m))
        rhs = sympy.Matrix([sympy.Rational(v) for v in b])
        consistent = A.rank() == A.row_join(rhs).rank()
        if not consistent:
            assert ours.kind == "inconsistent"
        else:
            assert ours.kind in ("unique", "underdetermined")
            assert m.mat_vec(list(ours.particular)) == b
            if ours.kind == "unique":
                assert A.rank() == c
            else:
                assert A.rank() < c


def test_solve_many_shares_results():
    rng = random.Random(425)
    m = random_matrix(rng, 5, 4)
    bs = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(6)]
    batch = solve_many(m, bs)
    singles = [solve(m, b) for b in bs]
    assert batch == singles


@pytest.mark.parametrize("engine", ENGINES)
def test_big_integer_entries(engine):
    # entries far beyond 64 bits stay exact
    big = 10**40
    assert engine.rref(RationalMatrix.from_rows([[big, 1], [1, big]])) == RationalMatrix.identity(2)
    m = RationalMatrix.from_rows([[big, 1, Fraction(1, big)], [1, big, big**2]])
    assert engine.rref(m) == oracle.rref(m)
    assert engine.kernel(m) == oracle.kernel(m)
    assert engine.solve(m, [big, -1]) == oracle.solve(m, [big, -1])


def test_rowspace_membership():
    space = RowSpace(3)
    assert space.add([1, 0, 1])
    assert space.add([0, 1, 1])
    assert not space.add([1, 1, 2])
    assert space.rank == 2
    assert space.contains([2, -1, 1])
    assert not space.contains([0, 0, 1])
    basis = space.basis()
    assert basis == [(1, 0, 1), (0, 1, 1)]


def test_rowspace_shape_checks():
    space = RowSpace(3)
    space.add([1, 2, 3])
    for bad in ([1, 2], [1, 2, 3, 4], [], {3: 1}, {-1: 1}, {0: 1, 5: 0}):
        with pytest.raises(ValueError):
            space.add(bad)
        with pytest.raises(ValueError):
            space.contains(bad)
    assert space.rank == 1


def random_vectors(rng, ncols, count):
    """Seeded vectors mixing zero, duplicate, dependent, Fraction and huge ones."""
    out = []
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            vec = [0] * ncols
        elif kind == 1 and out:
            vec = list(rng.choice(out))
        elif kind == 2 and len(out) >= 2:
            a, b = rng.sample(out, 2)
            s, t = Fraction(rng.randint(-5, 5), rng.randint(1, 5)), rng.randint(-3, 3)
            vec = [s * x + t * y for x, y in zip(a, b)]
        elif kind == 3:
            vec = [rng.choice((0, 1, -1)) * rng.randint(10**40, 10**45) for _ in range(ncols)]
        elif kind == 4:
            vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(ncols)]
        else:
            vec = [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(ncols)]
        out.append(vec)
    return out


def nonzero_rref_rows(vectors):
    reduced = oracle.rref(RationalMatrix.from_rows(vectors))
    return [reduced.row(i) for i in range(reduced.rows) if any(reduced.row(i))]


def test_rowspace_matches_one_shot_rref():
    rng = random.Random(427)
    for _ in range(60):
        ncols = rng.randint(1, 7)
        vectors = random_vectors(rng, ncols, rng.randint(1, 12))
        space = RowSpace(ncols)
        mapped = RowSpace(ncols)  # the same vectors as {column: coefficient} maps
        rank_before = 0
        for k, vec in enumerate(vectors):
            grew = space.add(vec)
            expected = nonzero_rref_rows(vectors[: k + 1])
            assert grew == (len(expected) > rank_before)
            assert space.rank == len(expected)
            assert space.basis() == expected
            # the map keeps some zero coefficients, at even columns
            assert mapped.add({c: v for c, v in enumerate(vec) if v or c % 2 == 0}) == grew
            assert mapped.rank == space.rank
            assert mapped.basis() == expected
            rank_before = len(expected)
        assert all(space.contains(vec) for vec in vectors)
        assert all(mapped.contains(dict(enumerate(vec))) for vec in vectors)
        probe = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(ncols)]
        assert space.contains(probe) == (len(nonzero_rref_rows(vectors + [probe])) == space.rank)
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        other = RowSpace(ncols)
        for vec in shuffled:
            other.add(vec)
        assert other.basis() == space.basis()


def test_rowspace_matches_sympy():
    rng = random.Random(428)
    for _ in range(40):
        ncols = rng.randint(1, 5)
        vectors = random_vectors(rng, ncols, rng.randint(1, 6))
        space = RowSpace(ncols)
        for vec in vectors:
            space.add(vec)
        theirs, _ = sympy.Matrix([[sympy.Rational(v) for v in vec] for vec in vectors]).rref()
        theirs = [row for row in theirs.tolist() if any(row)]
        assert [[sympy.Rational(v) for v in row] for row in space.basis()] == theirs


def densify(rows, ncols):
    if not rows:
        return RationalMatrix.zero(0, ncols)
    return RationalMatrix.from_rows([[row.get(c, 0) for c in range(ncols)] for row in rows])


def random_sparse_system(rng):
    """Seeded sparse rows mixing empty, zero-valued, duplicate, Fraction and
    huge entries, over columns some of which no row touches."""
    ncols = rng.randint(0, 9)
    rows, rhs = [], []
    for _ in range(rng.randint(0, 10)):
        kind = rng.randrange(8)
        if kind == 0 or not ncols:
            row = {}
        elif kind == 1 and rows:
            row = dict(rng.choice(rows))
        else:
            row = {}
            for c in rng.sample(range(ncols), rng.randint(1, min(3, ncols))):
                pick = rng.randrange(6)
                if pick == 0:
                    row[c] = 0
                elif pick == 1:
                    row[c] = rng.choice((1, -1)) * rng.randint(10**40, 10**45)
                else:
                    row[c] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        rows.append(row)
        rhs.append(rng.choice((0, 0, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))))
    return rows, ncols, rhs


def test_solve_sparse_matches_dense_solve():
    rng = random.Random(429)
    kinds = {"unique": 0, "underdetermined": 0, "inconsistent": 0}
    for _ in range(1000):
        rows, ncols, rhs = random_sparse_system(rng)
        dense = densify(rows, ncols)
        assert solve_sparse(rows, ncols) == oracle.solve(dense, [0] * len(rows))
        ours = solve_sparse(rows, ncols, rhs)
        assert ours == oracle.solve(dense, rhs)
        kinds[ours.kind] += 1
        if ours.kind == "inconsistent":
            # bad_row is the first prefix of equations with no solution
            for i in range(ours.bad_row + 1):
                prefix = oracle.solve(densify(rows[: i + 1], ncols), rhs[: i + 1])
                assert (prefix.kind == "inconsistent") == (i == ours.bad_row)
    assert min(kinds.values()) >= 60


def test_solve_bad_row_does_not_depend_on_pivoting():
    # rows 0 and 2 fix x4 to different values; row 0 alone is solvable
    rows = [{4: Fraction(2, 3)}, {1: 5, 2: Fraction(3, 2)}, {4: Fraction(-3, 2)},
            {4: Fraction(-5, 3)}, {3: Fraction(-1, 2)}]
    rhs = [1, -1, -2, 2, 1]
    assert oracle.solve(densify(rows, 5), rhs).bad_row == 2
    assert solve(densify(rows, 5), rhs).bad_row == 2
    assert solve_sparse(rows, 5, rhs).bad_row == 2
    assert solve_sparse([{}, {0: 1}, {0: 1}], 1, [0, 1, 2]).bad_row == 2
    assert solve_sparse([{0: 1}, {}, {0: 2}], 1, [1, 3, 1]).bad_row == 1


def test_solve_sparse_shape_checks():
    with pytest.raises(ValueError):
        solve_sparse([{0: 1}], 1, [1, 2])
    with pytest.raises(ValueError):
        solve_sparse([{2: 1}], 2)


def random_entry(rng):
    if rng.randrange(4) == 0:
        return rng.choice((1, -1)) * rng.randint(10**40, 10**45)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_span_case(rng):
    """Seeded sparse basis vectors mixing fresh vectors with duplicates, zero
    vectors and rational multiples, and probes that are zero, random (mostly
    outside the span) or combinations of the basis."""
    ncols = rng.randint(0, 7)

    def fresh():
        cols = rng.sample(range(ncols), rng.randint(1, min(3, ncols))) if ncols else []
        return {c: random_entry(rng) for c in cols}

    basis = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(6)
        if kind == 0:
            basis.append({})
        elif kind == 1 and basis:
            basis.append(dict(rng.choice(basis)))
        elif kind == 2 and basis:
            f = Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 4))
            basis.append({c: f * v for c, v in rng.choice(basis).items()})
        else:
            basis.append(fresh())
    combination = {}
    for vec in basis:
        f = random_entry(rng)
        for c, v in vec.items():
            combination[c] = combination.get(c, 0) + f * v
    return basis, ncols, [{}, fresh(), combination]


def test_span_coordinates_match_dense_solve():
    rng = random.Random(431)
    seen = {"independent": 0, "dependent": 0, "inside": 0, "outside": 0}
    for _ in range(600):
        basis, ncols, probes = random_span_case(rng)
        dim = len(basis)
        m = RationalMatrix(ncols, dim, tuple(Fraction(vec.get(r, 0)) for r in range(ncols) for vec in basis))
        ours = SpanCoordinates(basis, ncols)
        outcomes = [oracle.solve(m, [probe.get(r, 0) for r in range(ncols)]) for probe in probes]
        assert ours.independent == (outcomes[0].kernel_basis == ())
        seen["independent" if ours.independent else "dependent"] += 1
        for probe, outcome in zip(probes, outcomes):
            coords = ours.coords(probe)
            if outcome.kind == "inconsistent":
                assert coords is None
                seen["outside"] += 1
            else:
                assert coords == {k: x for k, x in enumerate(outcome.particular) if x}
                assert all(type(x) is Fraction for x in coords.values())
                seen["inside"] += 1
    assert min(seen.values()) >= 150, seen

