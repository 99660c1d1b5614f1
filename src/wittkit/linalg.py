"""Exact linear algebra over the rationals.

Results are canonical: the reduced row echelon form is unique and kernel
bases follow the rref free-column convention.  Rational rows are scaled to
integers (by the lcm of the denominators) before elimination; pivot rows
are divided back by their pivot entry when results are read off.

The dense functions (``rref``, ``rank``, ``kernel``, ``solve``,
``solve_many``) work on a ``RationalMatrix`` with the integer Gauss-Jordan
primitive ``wittkit._elim_py.eliminate``; pivots are chosen
deterministically, leftmost nonzero column, first available row.
``RowSpace`` keeps the same integer rref as sparse rows, reducing each new
vector against the rows it holds.  ``solve_sparse`` takes rows as
``{column: coefficient}`` maps and adds them, right-hand side appended, to
one ``RowSpace``; it returns exactly what ``solve`` returns on the
densified system.
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


def _int_rows(m_rows: Sequence[Sequence[Fraction | int]], extra: Sequence[Sequence[Fraction]] | None = None) -> list[list[int]]:
    """Scale each (row + extra-columns) to coprime integers."""
    out = []
    n_extra = len(extra) if extra else 0
    for i, row in enumerate(m_rows):
        full = list(row)
        if extra:
            full.extend(extra[j][i] for j in range(n_extra))
        den = lcm(*[v.denominator for v in full])
        # numerator * (den // denominator) is v * den without Fraction arithmetic
        ints = [v.numerator * (den // v.denominator) for v in full]
        g = 0
        for v in ints:
            if v:
                g = gcd(g, v)
                if g == 1:
                    break
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _dedupe_nonzero(int_rows: list[list[int]]) -> list[list[int]]:
    """Drop all-zero and duplicate rows (first occurrence kept)."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for row in int_rows:
        key = tuple(row)
        if key in seen or not any(row):
            continue
        seen.add(key)
        out.append(row)
    return out


def rref(m: RationalMatrix) -> RationalMatrix:
    """Reduced row echelon form (unique, hence deterministic)."""
    reduced, pivots = _rref_rows(m.to_rows(), m.cols)
    while len(reduced) < m.rows:
        reduced.append([Fraction(0)] * m.cols)
    return RationalMatrix.from_rows(reduced[: m.rows])


def _rref_rows(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    int_rows = _int_rows(rows)
    pivots = _elim_py.eliminate(int_rows, ncols)
    out = []
    for k, c in enumerate(pivots):
        pv = int_rows[k][c]
        out.append([Fraction(v, pv) for v in int_rows[k]])
    return out, pivots


def rank(m: RationalMatrix) -> int:
    int_rows = _dedupe_nonzero(_int_rows(m.to_rows()))
    return len(_elim_py.eliminate(int_rows, m.cols))


def kernel(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Canonical nullspace basis: one vector per rref free column, with a 1
    at the free column and the negated rref column above the pivots."""
    int_rows = _dedupe_nonzero(_int_rows(m.to_rows()))
    pivots = _elim_py.eliminate(int_rows, m.cols)
    return _kernel_from_reduced(int_rows, pivots, m.cols)


def _kernel_from_reduced(int_rows: list[list[int]], pivots: list[int], ncols: int) -> list[tuple[Fraction, ...]]:
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for k, c in enumerate(pivots):
            vec[c] = -Fraction(int_rows[k][free], int_rows[k][c])
        basis.append(tuple(vec))
    return basis


def solve(m: RationalMatrix, b: Sequence[Fraction | int]) -> SolveOutcome:
    """Solve M x = b exactly, classifying the solution set."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    return solve_many(m, [b])[0]


def solve_many(m: RationalMatrix, bs: Sequence[Sequence[Fraction | int]]) -> list[SolveOutcome]:
    """Solve M x = b for several right-hand sides with one elimination."""
    m_rows = m.to_rows()
    cols = [[Fraction(v) for v in b] for b in bs]
    for b in cols:
        if len(b) != m.rows:
            raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    int_rows = _dedupe_nonzero(_int_rows(m_rows, cols))
    pivots = _elim_py.eliminate(int_rows, m.cols)
    kernel_basis = tuple(_kernel_from_reduced(int_rows, pivots, m.cols))
    zero_rows = int_rows[len(pivots):]  # zero on every column of M
    outcomes = []
    for j, b in enumerate(cols):
        if any(row[m.cols + j] for row in zero_rows):
            bad = _first_inconsistent_row(m_rows, b, m.cols)
            outcomes.append(SolveOutcome("inconsistent", None, kernel_basis, bad))
            continue
        x = [Fraction(0)] * m.cols
        for k, c in enumerate(pivots):
            x[c] = Fraction(int_rows[k][m.cols + j], int_rows[k][c])
        if kernel_basis:
            outcomes.append(SolveOutcome("underdetermined", tuple(x), kernel_basis))
        else:
            outcomes.append(SolveOutcome("unique", tuple(x), ()))
    return outcomes


def _first_inconsistent_row(m_rows: list[list[Fraction]], b: list[Fraction], ncols: int) -> int:
    """The first i for which rows 0..i with their right-hand sides have no
    solution: the first augmented row whose reduction pivots on the rhs."""
    space = RowSpace(ncols + 1)
    for i, (row, v) in enumerate(zip(m_rows, b)):
        if space.add([*row, v]) and ncols in space._rows:
            return i
    raise ValueError("the system is consistent")


def solve_sparse(
    rows: Sequence[dict[int, Fraction | int]],
    ncols: int,
    rhs: Sequence[Fraction | int] | None = None,
) -> SolveOutcome:
    """Solve a system given by sparse rows ``{column: coefficient}``.

    Each row, with its right-hand side as column ``ncols``, is added to one
    ``RowSpace`` in order, and the outcome is read off its rref.  The
    outcome equals ``solve`` on the densified system, with ``rhs``
    defaulting to zero.
    """
    for row in rows:
        if any(not 0 <= c < ncols for c in row):
            raise ValueError(f"row {row} has a column outside 0..{ncols - 1}")
    rhs = [0] * len(rows) if rhs is None else rhs
    if len(rhs) != len(rows):
        raise ValueError(f"rhs length {len(rhs)} != rows {len(rows)}")
    space = RowSpace(ncols + 1)
    bad_row = None
    for i, (row, v) in enumerate(zip(rows, rhs)):
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
            if any(not 0 <= c < self.ncols for c in vec):
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
