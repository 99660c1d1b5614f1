"""The benchmark's workloads: fixed lists of ``wittkit`` CLI invocations.

Each workload is a list of ops.  An op is one argv for ``wittkit.cli.main``
plus an invariant check on its stdout.  Only ``inner`` draws inputs from the
seed; the other workloads are the same grid for every seed.

wittkit modules are imported inside the functions, never at module level:
the benchmark re-imports wittkit before every pass, and the checks must use
the classes of the import that produced the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("cohomology", "centralizer", "inner", "closure")

STABILIZE_FIELD = "x1^2 d2 + 2*x2 d1 - 1/3*x1 d1"

# The heaviest op of each workload, fixed in advance (never picked from a
# measurement): the scaling frontier a user waits on.
LARGEST_OP = {
    "cohomology": ("h1", "--n", "3", "--k", "1", "--max-var", "4"),
    "centralizer": ("centralizer", "--gens", "sl", "--n", "5"),
    "inner": ("stabilize", "--task", "solve-inner", "--n-from", "2", "--n-to", "4",
              f"--from-ad={STABILIZE_FIELD}"),
    "closure": ("closure", "x1^2 d1", "--n", "5", "--max-var", "5", "--deg-min", "1", "--deg-max", "1"),
}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[str], str | None]   # stdout -> None, or what is wrong


def build(workload: str, seed: int) -> list[Op]:
    """The op list of a workload; the same seed gives the same list."""
    if workload == "cohomology":
        return _cohomology()
    if workload == "centralizer":
        return _centralizer()
    if workload == "inner":
        return _inner(seed)
    if workload == "closure":
        return _closure()
    raise ValueError(f"unknown workload {workload!r}")


def _expect_text(expected: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        return None if out == expected else f"stdout {out!r}, expected {expected!r}"
    return check


def _cohomology() -> list[Op]:
    return [
        Op(("h1", "--n", str(n), "--k", str(k), "--max-var", str(m)), _expect_text("0\n"))
        for n in (2, 3)
        for k in (-1, 0, 1)
        for m in (n, n + 1)
    ]


def _centralizer() -> list[Op]:
    ops = [Op(("centralizer", "--gens", "sl", "--n", str(n)), _sl_centralizer_check(n)) for n in (3, 4, 5)]
    ops += [
        Op(("centralizer", "--gens", "L", "--n", str(n), "--max-var", str(n), "--deg-max", "3"),
           _expect_text("dimension: 0\n"))
        for n in (2, 3)
    ]
    return ops


def _basis_lines(out: str) -> tuple[int, list[str]]:
    lines = out.rstrip("\n").split("\n")
    head = lines[0]
    if not head.startswith("dimension: "):
        raise ValueError(f"first line {head!r} is not 'dimension: N'")
    return int(head[len("dimension: "):]), lines[1:]


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain Gaussian elimination, independent of wittkit.linalg."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _sl_centralizer_check(n: int) -> Callable[[str], str | None]:
    """The sl_n centralizer in the default window (max-var n+1, degrees -1..2)
    is spanned by x_m^j d_m (j <= 3) and x_m^j * euler(n) (j <= 2), m = n+1."""
    m = n + 1

    def coords(w) -> list[Fraction] | None:
        # coordinates (a_0..a_3, b_0..b_2) of w in the expected basis
        a = [Fraction(0)] * 4
        b: list[dict[int, Fraction]] = [{} for _ in range(3)]
        for mono, direction, coeff in w.terms():
            exps = dict(mono.pairs)
            j = exps.pop(m, 0)
            if direction == m and not exps and j <= 3:
                a[j] = coeff
            elif direction <= n and exps == {direction: 1} and j <= 2:
                b[j][direction] = coeff
            else:
                return None
        out = list(a)
        for per_dir in b:
            values = set(per_dir.values())
            if per_dir and (len(per_dir) != n or len(values) != 1):
                return None
            out.append(values.pop() if values else Fraction(0))
        return out

    def check(out: str) -> str | None:
        from wittkit.fields import sl_basis
        from wittkit.textio import parse_field

        dim, lines = _basis_lines(out)
        basis = [parse_field(line) for line in lines]
        if dim != 7 or len(basis) != 7:
            return f"sl_{n} centralizer has dimension {dim} with {len(basis)} basis lines, expected 7"
        vecs = []
        for w in basis:
            vec = coords(w)
            if vec is None:
                return f"basis element {w!r} lies outside the expected span"
            vecs.append(vec)
        if _rank(vecs) != 7:
            return "basis does not span the expected 7-dim space"
        for g in sl_basis(n):
            for w in basis:
                if not g.bracket(w).is_zero():
                    return f"[{g!r}, {w!r}] != 0"
        return None

    return check


def _inner(seed: int) -> list[Op]:
    from wittkit import suites
    from wittkit.textio import print_field

    rng = random.Random(seed)
    fields = [suites.random_field(rng, max_var=3, max_deg=2, terms=4) for _ in range(20)]
    window = ("--n", "3", "--max-var", "3", "--deg-max", "2")
    # `--from-ad=F` keeps a leading minus sign from reading as an option
    ops = [
        Op(("solve-inner", "--gens", "L", *window, f"--from-ad={print_field(f)}"), _round_trip_check(f))
        for f in fields
    ]
    ops.append(Op(("solve-inner", "--gens", "sl", *window, f"--from-ad={print_field(fields[0])}"),
                  _sl_round_trip_check(fields[0])))
    ops.append(Op(LARGEST_OP["inner"], _stabilize_check))
    return ops


def _round_trip_check(f) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        from wittkit.textio import parse_field

        lines = out.rstrip("\n").split("\n")
        if len(lines) != 1:
            return f"expected a unique solution, got {len(lines)} lines"
        got = parse_field(lines[0])
        return None if got == f else f"round trip returned {got!r}, expected {f!r}"
    return check


def _sl_round_trip_check(f) -> Callable[[str], str | None]:
    """sl_3 fixes F only up to the grading field: a 1-dim kernel on euler(3),
    and the solution differs from F by a multiple of it."""
    def on_grading_line(w) -> bool:
        from wittkit.fields import euler
        from wittkit.poly import Monomial

        return w == euler(3).scale(w.coeff(Monomial.var(1), 1))

    def check(out: str) -> str | None:
        from wittkit.textio import parse_field

        lines = out.rstrip("\n").split("\n")
        if len(lines) != 3 or lines[1] != "kernel dimension: 1" or not lines[2].startswith("kernel: "):
            return f"expected a solution and a 1-dim kernel, got {lines!r}"
        kernel = parse_field(lines[2][len("kernel: "):])
        if kernel.is_zero() or not on_grading_line(kernel):
            return f"kernel {kernel!r} is not on the grading line"
        if not on_grading_line(f - parse_field(lines[0])):
            return "solution differs from F by more than a multiple of the grading field"
        return None
    return check


def _stabilize_check(out: str) -> str | None:
    from wittkit.textio import parse_field

    lines = out.rstrip("\n").split("\n")
    if "all stabilized: yes" not in lines:
        return "scan did not stabilize"
    limits = [line[len("limit: "):] for line in lines if line.startswith("limit: ")]
    if len(limits) != 1 or parse_field(limits[0]) != parse_field(STABILIZE_FIELD):
        return f"limit {limits!r} differs from {STABILIZE_FIELD!r}"
    return None


CLOSURES = (
    ("x1^3 d1", 3, 2, 30),
    ("x1^2 d1", 4, 1, 40),
    ("x1^3 d1", 4, 2, 80),
    ("x1^2 d1", 5, 1, 75),
    ("x1*x2 d3", 4, 1, 36),
)


def _closure() -> list[Op]:
    return [
        Op(("closure", field, "--n", str(n), "--max-var", str(n), "--deg-min", str(d), "--deg-max", str(d)),
           _closure_check(dim))
        for field, n, d, dim in CLOSURES
    ]


def _closure_check(expected: int) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        dim, lines = _basis_lines(out)
        if dim != expected or len(lines) != expected:
            return f"closure dimension {dim} with {len(lines)} basis lines, expected {expected}"
        return None
    return check
