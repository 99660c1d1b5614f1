"""Normalisation of a new pivot row, the one-row case of integer
Gauss-Jordan elimination.

``linalg.RowSpace`` is the only elimination routine; it calls
``eliminate`` once for each row it adds as a pivot row.  The function keeps
the name and signature of the multi-row eliminator it once was, because
the benchmark's tracer wraps it by name and counts its calls and rows.
"""

from __future__ import annotations

from math import gcd


def eliminate(rows: list[list[int]], pivot_limit: int) -> list[int]:
    """Normalise one integer row in place: divide it by its gcd, with the
    sign making its leftmost nonzero entry among the first ``pivot_limit``
    columns positive.  Return that entry's column as the one pivot, or no
    pivot for a row that is zero there.  ``rows`` must hold exactly one row."""
    [row] = rows
    c = next((c for c in range(pivot_limit) if row[c]), None)
    if c is None:
        return []
    g = gcd(*row)
    if row[c] < 0:
        g = -g
    if g != 1:
        row[:] = [v // g for v in row]
    return [c]
