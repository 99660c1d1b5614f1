"""Dense integer Gauss-Jordan elimination: the tests' oracle for ``linalg``.

It shares no elimination code with ``wittkit.linalg``, whose ``rref``,
``rank``, ``kernel`` and ``solve`` are readouts of its sparse ``RowSpace``.
The functions here take the same arguments and return the same values, so
a test can check both with ``==``.  ``RationalMatrix`` and ``SolveOutcome``
are only borrowed as value types.

Conventions of ``eliminate``:
  * pivot search: leftmost nonzero column, first row at or below the
    current row (no pivoting heuristics);
  * every pivot row is reduced by its gcd with the pivot entry positive;
  * every updated row is reduced by its (positive) gcd, sign untouched.

Dividing each pivot row by its pivot entry yields the (unique) reduced row
echelon form.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from wittkit.linalg import RationalMatrix, SolveOutcome


def eliminate(rows: list[list[int]], pivot_limit: int) -> list[int]:
    """Reduce rows in place over their first ``pivot_limit`` columns and
    return the pivot columns; trailing columns (e.g. right-hand sides) are
    carried through every row operation but never pivoted on.  Afterwards
    rows[k] is the row with pivot column pivots[k], and the remaining rows
    are zero on the pivot-eligible columns."""
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(pivot_limit):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow[:] = [v // g for v in prow]
        pv = prow[c]
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if i == r or not f:
                continue
            row[:] = [a * pv - b * f for a, b in zip(row, prow)]
            g = gcd(*row)
            if g > 1:
                row[:] = [v // g for v in row]
        pivots.append(c)
        r += 1
    return pivots


def _int_rows(m_rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int] | None = None) -> list[list[int]]:
    """Scale each row, with its right-hand side appended, to integers."""
    out = []
    for i, row in enumerate(m_rows):
        full = [Fraction(v) for v in (row if rhs is None else [*row, rhs[i]])]
        den = lcm(*[v.denominator for v in full])
        out.append([v.numerator * (den // v.denominator) for v in full])
    return out


def _kernel(reduced: list[list[int]], pivots: list[int], ncols: int) -> list[tuple[Fraction, ...]]:
    """One vector per free column: a 1 there and the negated rref column
    above the pivots."""
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for k, c in enumerate(pivots):
            vec[c] = -Fraction(reduced[k][free], reduced[k][c])
        basis.append(tuple(vec))
    return basis


def rref(m: RationalMatrix) -> RationalMatrix:
    rows = _int_rows(m.to_rows())
    pivots = eliminate(rows, m.cols)
    entries = [Fraction(v, rows[k][c]) for k, c in enumerate(pivots) for v in rows[k]]
    entries += [Fraction(0)] * ((m.rows - len(pivots)) * m.cols)
    return RationalMatrix(m.rows, m.cols, tuple(entries))


def rank(m: RationalMatrix) -> int:
    return len(eliminate(_int_rows(m.to_rows()), m.cols))


def kernel(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    rows = _int_rows(m.to_rows())
    return _kernel(rows, eliminate(rows, m.cols), m.cols)


def _consistent(m_rows: list[list[Fraction]], b: Sequence[Fraction | int], ncols: int) -> bool:
    rows = _int_rows(m_rows, b)
    pivots = eliminate(rows, ncols)
    return not any(row[ncols] for row in rows[len(pivots):])


def solve(m: RationalMatrix, b: Sequence[Fraction | int]) -> SolveOutcome:
    """Solve M x = b; ``bad_row`` is the first i for which equations 0..i
    alone are inconsistent, found by solving every prefix afresh."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    m_rows = m.to_rows()
    rows = _int_rows(m_rows, b)
    pivots = eliminate(rows, m.cols)
    kernel_basis = tuple(_kernel(rows, pivots, m.cols))
    if any(row[m.cols] for row in rows[len(pivots):]):
        bad_row = next(i for i in range(m.rows) if not _consistent(m_rows[: i + 1], b[: i + 1], m.cols))
        return SolveOutcome("inconsistent", None, kernel_basis, bad_row)
    x = [Fraction(0)] * m.cols
    for k, c in enumerate(pivots):
        x[c] = Fraction(rows[k][m.cols], rows[k][c])
    if kernel_basis:
        return SolveOutcome("underdetermined", tuple(x), kernel_basis)
    return SolveOutcome("unique", tuple(x), ())
