"""Exact linear algebra over the rationals.

Results are canonical: the reduced row echelon form is unique and kernel
bases follow the rref free-column convention.  Rational rows are scaled to
integers (by the lcm of the denominators) before elimination; pivot rows
are divided back by their pivot entry when results are read off.

``RowSpace`` keeps the integer rref of the vectors added to it as sparse
rows; it is the only elimination routine.  Every system goes through one:
``solve_sparse`` adds ``{column: coefficient}`` rows, right-hand side
appended, and ``SpanCoordinates`` reads coordinates in the span of fixed
basis vectors.

The dense functions (``rref``, ``rank``, ``kernel``, ``solve``,
``solve_many``) take a ``RationalMatrix`` and are short readouts of a
``RowSpace`` or of ``solve_sparse`` over the matrix's nonzero entries.  No
production path calls them; they stay for the API, ``wittkit verify`` and
the benchmark's tracer, which wraps them by name.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import _elim_py


def active_engine() -> str:
    """The elimination engine: always 'pure', the only one there is."""
    return "pure"


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of Fractions, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction | int]]) -> RationalMatrix:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            entries.extend(Fraction(v) for v in row)
        return RationalMatrix(nrows, ncols, tuple(entries))

    @staticmethod
    def zero(rows: int, cols: int) -> RationalMatrix:
        return RationalMatrix(rows, cols, (Fraction(0),) * (rows * cols))

    @staticmethod
    def identity(n: int) -> RationalMatrix:
        return RationalMatrix(
            n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n))
        )

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mat_vec(self, vec: Sequence[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        return [sum((a * b for a, b in zip(self.row(i), vec)), Fraction(0)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SolveOutcome:
    """Classification of a linear system M x = b.

    kind is 'unique', 'underdetermined', or 'inconsistent'.  ``particular``
    is present unless inconsistent; ``kernel_basis`` is the canonical
    nullspace basis of M (empty when the solution is unique).  For an
    inconsistent system ``bad_row`` is the first index i for which equations
    0..i alone have no solution; it depends only on the system and the
    order of its equations.
    """

    kind: str
    particular: tuple[Fraction, ...] | None
    kernel_basis: tuple[tuple[Fraction, ...], ...]
    bad_row: int | None = None


def _nonzero_rows(m: RationalMatrix) -> list[dict[int, Fraction]]:
    return [{j: v for j, v in enumerate(m.row(i)) if v} for i in range(m.rows)]


def _row_space(m: RationalMatrix) -> RowSpace:
    space = RowSpace(m.cols)
    for row in _nonzero_rows(m):
        space.add(row)
    return space


def rref(m: RationalMatrix) -> RationalMatrix:
    """Reduced row echelon form (unique, hence deterministic), zero rows
    last."""
    entries = [v for row in _row_space(m).basis() for v in row]
    entries += [Fraction(0)] * (m.rows * m.cols - len(entries))
    return RationalMatrix(m.rows, m.cols, tuple(entries))


def rank(m: RationalMatrix) -> int:
    return _row_space(m).rank


def kernel(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical nullspace basis: one vector per rref free column, with a 1
    at the free column and the negated rref column above the pivots."""
    return list(solve(m, [0] * m.rows).kernel_basis)


def solve(m: RationalMatrix, b: Sequence[Fraction | int]) -> SolveOutcome:
    """Solve M x = b exactly, classifying the solution set."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    return solve_sparse(_nonzero_rows(m), m.cols, [Fraction(v) for v in b])


def solve_many(m: RationalMatrix, bs: Sequence[Sequence[Fraction | int]]) -> list[SolveOutcome]:
    """``solve`` for each right-hand side; kept because the benchmark's
    tracer wraps it by name."""
    return [solve(m, b) for b in bs]


def solve_sparse(
    rows: Sequence[dict[int, Fraction | int]],
    ncols: int,
    rhs: Sequence[Fraction | int] | None = None,
) -> SolveOutcome:
    """Solve a system given by sparse rows ``{column: coefficient}``.

    Each row, with its right-hand side (default zero) as column ``ncols``,
    is added to one ``RowSpace`` in order, and the outcome is read off its
    rref.
    """
    rhs = [0] * len(rows) if rhs is None else rhs
    if len(rhs) != len(rows):
        raise ValueError(f"rhs length {len(rhs)} != rows {len(rows)}")
    space = RowSpace(ncols + 1)
    bad_row = None
    for i, (row, v) in enumerate(zip(rows, rhs)):
        # ``add`` range-checks every other column
        if ncols in row:
            raise ValueError(f"row {row} has a column outside 0..{ncols - 1}")
        if space.add({**row, ncols: v}) and bad_row is None and ncols in space._rows:
            bad_row = i
    x = [Fraction(0)] * ncols
    kernel_by_free = {f: [Fraction(0)] * ncols for f in range(ncols) if f not in space._rows}
    for c, row in space._rows.items():
        if c == ncols:
            continue
        pv = row[c]
        x[c] = Fraction(row.get(ncols, 0), pv)
        # every other matrix column of a pivot row is a free column
        for f, a in row.items():
            if f != c and f != ncols:
                kernel_by_free[f][c] = Fraction(-a, pv)
    for f, vec in kernel_by_free.items():
        vec[f] = Fraction(1)
    kernel_basis = tuple(tuple(vec) for vec in kernel_by_free.values())
    if bad_row is not None:
        return SolveOutcome("inconsistent", None, kernel_basis, bad_row)
    if kernel_basis:
        return SolveOutcome("underdetermined", tuple(x), kernel_basis)
    return SolveOutcome("unique", tuple(x), ())


def _cancel(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """``row`` with column c cleared by ``prow`` (whose entry there is
    positive), divided by its gcd; the sign of ``row`` is kept."""
    f, pv = row[c], prow[c]
    out = {k: a * pv for k, a in row.items()} if pv != 1 else dict(row)
    for k, b in prow.items():
        a = out.get(k, 0) - f * b
        if a:
            out[k] = a
        else:
            del out[k]
    g = gcd(*out.values())
    return {k: a // g for k, a in out.items()} if g > 1 else out


class RowSpace:
    """Incrementally maintained row space over the rationals.

    Internally keeps the integer-scaled reduced row echelon form of all
    vectors added so far as sparse rows ``{column: int}`` keyed by pivot
    column: each row is primitive (gcd 1) with a positive pivot, and every
    pivot column is zero in the other rows.  That form is unique, so the
    basis depends only on the span, not on insertion order.

    Vectors are dense sequences of length ``ncols`` or ``{column:
    coefficient}`` maps over columns ``0..ncols-1``.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Sequence[Fraction | int] | Mapping[int, Fraction | int]) -> dict[int, int]:
        """The integer-scaled vector with every stored pivot column cleared."""
        if isinstance(vec, Mapping):
            if vec and (min(vec) < 0 or max(vec) >= self.ncols):
                raise ValueError(f"vector {dict(vec)} has a column outside 0..{self.ncols - 1}")
            items = vec.items()
        else:
            if len(vec) != self.ncols:
                raise ValueError(f"vector length {len(vec)} != {self.ncols}")
            items = enumerate(vec)
        nonzero = {c: v for c, v in items if v}
        if not nonzero:
            return nonzero
        den = lcm(*[v.denominator for v in nonzero.values()])
        # numerator * (den // denominator) is v * den without Fraction arithmetic
        v = {c: a.numerator * (den // a.denominator) for c, a in nonzero.items()}
        # a stored row is zero at the other pivots, so clearing one pivot
        # leaves the vector's entries at the others nonzero
        for c in [c for c in v if c in self._rows]:
            v = _cancel(v, self._rows[c], c)
        return v

    def add(self, vec: Sequence[Fraction | int] | Mapping[int, Fraction | int]) -> bool:
        """Add a vector; return True when it enlarged the span."""
        v = self._reduce(vec)
        if not v:
            return False
        # one-row elimination over the support: divide by the gcd, making
        # the pivot (leftmost) entry positive
        cols = sorted(v)
        vals = [v[c] for c in cols]
        _elim_py.eliminate([vals], 1)
        c = cols[0]
        v = dict(zip(cols, vals))
        for p, row in self._rows.items():
            if c in row:
                self._rows[p] = _cancel(row, v, c)
        self._rows[c] = v
        return True

    def contains(self, vec: Sequence[Fraction | int] | Mapping[int, Fraction | int]) -> bool:
        return not self._reduce(vec)

    def basis(self) -> list[tuple[Fraction, ...]]:
        """Canonical rref basis of the span."""
        out = []
        for c in sorted(self._rows):
            row = self._rows[c]
            vec = [Fraction(0)] * self.ncols
            for k, a in row.items():
                vec[k] = Fraction(a, row[c])
            out.append(tuple(vec))
        return out


class SpanCoordinates:
    """Coordinates of sparse vectors in the span of fixed basis vectors.

    Each basis vector, extended by a 1 in a marker column of its own, goes
    into one ``RowSpace``; the basis is independent exactly when every pivot
    lies in a data column (``0..ncols-1``).  A vector extended by a 1 in the
    unit column reduces to zero on the data columns exactly when it lies in
    the span; the marker columns then hold minus its coordinates, scaled by
    the unit entry.  Markers run in reverse basis order, so that over a
    dependent basis the coordinates are those of ``solve``: zero at each
    vector that depends on earlier ones.
    """

    def __init__(self, basis: Sequence[Mapping[int, Fraction | int]], ncols: int):
        self.ncols = ncols
        self.unit = ncols + len(basis)
        self._space = RowSpace(self.unit + 1)
        for k, vec in enumerate(basis):
            self._space.add({**vec, self.unit - 1 - k: 1})
        self.independent = all(c < ncols for c in self._space._rows)

    def coords(self, vec: Mapping[int, Fraction | int]) -> dict[int, Fraction] | None:
        """``{basis position: coefficient}`` of vec, zeros dropped, or None
        when vec lies outside the span."""
        v = self._space._reduce({**vec, self.unit: 1})
        u = v.pop(self.unit)
        if any(c < self.ncols for c in v):
            return None
        return {self.unit - 1 - c: Fraction(-a, u) for c, a in v.items()}
