"""Integer Gauss-Jordan elimination over dense rows.

Rows are lists of Python ints (arbitrary precision, so no entry can
overflow).  ``eliminate`` reduces in place over the first ``pivot_limit``
columns; trailing columns (e.g. stacked right-hand sides) are carried
through every row operation but never pivoted on.

Conventions:
  * pivot search: leftmost nonzero column, first row at or below the
    current row (no pivoting heuristics);
  * every pivot row is reduced by its gcd with the pivot entry positive;
  * every updated row is reduced by its (positive) gcd, sign untouched.

After the call, rows[k] is the row with pivot column pivots[k] for
k < len(pivots); remaining rows are zero on all pivot-eligible columns.
Dividing each pivot row by its pivot entry yields the (unique) reduced row
echelon form, so results are canonical.  ``linalg.RowSpace`` calls it on
a single row to normalise a new pivot row.
"""

from __future__ import annotations

from math import gcd


def _row_gcd(row: list[int], start: int = 0) -> int:
    g = 0
    for v in row[start:]:
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


def eliminate(rows: list[list[int]], pivot_limit: int) -> list[int]:
    """Reduce rows in place; return the list of pivot columns."""
    nrows = len(rows)
    if nrows == 0:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(pivot_limit):
        p = -1
        for i in range(r, nrows):
            if rows[i][c]:
                p = i
                break
        if p < 0:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        g = _row_gcd(prow, c)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow[:] = [v // g for v in prow]
        pv = prow[c]
        ptail = prow[c:]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if not f:
                continue
            if i < r and c:
                # entries left of c sit in earlier columns where prow is zero
                row[:c] = [v * pv for v in row[:c]]
            row[c:] = [a * pv - b * f for a, b in zip(row[c:], ptail)]
            g = _row_gcd(row)
            if g > 1:
                row[:] = [v // g for v in row]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots
