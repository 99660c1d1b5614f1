"""Seeded verification suites exercising every module's stated invariants.

Each suite is a list of named checks; a check either passes or fails with a
counterexample rendered in the field grammar, so failures are directly
replayable.  All randomness is drawn from a Random instance seeded from
(seed, suite name), making every run byte-reproducible.

The same suites back the command-line ``verify`` subcommand and the
acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from . import linalg, textio
from .derivations import (
    DerivationSpec,
    SubspaceSpec,
    centralizer,
    h1_report,
    solve_inner,
    stabilization_scan,
    submodule_closure,
    verify_bracket_identities,
)
from .fields import (
    L_basis,
    TruncationWindow,
    VectorField,
    bracket_terms,
    euler,
    exponent_terms,
    sl_basis,
)
from .linalg import RationalMatrix, RowSpace
from .poly import Monomial, Polynomial
from .textio import ParseError, parse_field, print_field


@dataclass(frozen=True)
class CheckResult:
    item: str
    ok: bool
    detail: str = ""


# -- random generators --------------------------------------------------------


def random_monomial(rng: random.Random, max_var: int, max_len: int, min_len: int = 0) -> Monomial:
    length = rng.randint(min_len, max_len)
    exps: dict[int, int] = {}
    for _ in range(length):
        v = rng.randint(1, max_var)
        exps[v] = exps.get(v, 0) + 1
    return Monomial(exps)


def random_rational(rng: random.Random, bound: int = 9) -> Fraction:
    num = rng.randint(1, bound) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, bound))


def random_polynomial(rng: random.Random, max_var: int = 4, max_len: int = 4, terms: int = 3) -> Polynomial:
    out = Polynomial.zero()
    for _ in range(rng.randint(0, terms)):
        out = out + Polynomial.term(random_monomial(rng, max_var, max_len), random_rational(rng))
    return out


def random_field(rng: random.Random, max_var: int = 4, max_deg: int = 3, terms: int = 4) -> VectorField:
    out = VectorField.zero()
    for _ in range(rng.randint(0, terms)):
        mono = random_monomial(rng, max_var, max_deg + 1)
        out = out + VectorField.term(mono, rng.randint(1, max_var), random_rational(rng))
    return out


def random_homogeneous_field(
    rng: random.Random, degree: int, max_var: int, terms: int = 3
) -> VectorField:
    out = VectorField.zero()
    for _ in range(rng.randint(1, terms)):
        mono = random_monomial(rng, max_var, degree + 1, min_len=degree + 1)
        out = out + VectorField.term(mono, rng.randint(1, max_var), random_rational(rng))
    return out


def _counter(*fields: VectorField, note: str = "") -> str:
    rendered = "; ".join(print_field(f) for f in fields)
    return f"{note} {rendered}".strip()


# -- suites -------------------------------------------------------------------


def _suite_poly(rng: random.Random) -> Iterator[CheckResult]:
    x1, x2 = Polynomial.variable(1), Polynomial.variable(2)

    ok = (x1 + x2) + (-1 * x2) == x1
    yield CheckResult("poly.add-cancellation", ok)

    p = random_polynomial(rng)
    yield CheckResult("poly.add-identity", p + Polynomial.zero() == p)

    half_sq = Polynomial.term(Monomial({1: 2}), Fraction(1, 2))
    yield CheckResult("poly.like-term-merge", half_sq + half_sq == Polynomial.term(Monomial({1: 2})))

    yield CheckResult("poly.difference-of-squares",
                      (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2)
    yield CheckResult("poly.mul-identity", p * Polynomial.one() == p)
    yield CheckResult("poly.exponent-addition",
                      x1 * Polynomial.term(Monomial({1: 2})) == Polynomial.term(Monomial({1: 3})))

    sq = Polynomial.term(Monomial({1: 2, 2: 1}))
    yield CheckResult("poly.partial-power-rule",
                      sq.partial(1) == 2 * Polynomial.term(Monomial({1: 1, 2: 1}))
                      and sq.partial(3).is_zero())

    for trial in range(200):
        p = random_polynomial(rng)
        q = random_polynomial(rng)
        r = random_polynomial(rng)
        if p + q != q + p or p * q != q * p:
            yield CheckResult("poly.commutativity", False, f"trial {trial}")
            return
        if (p + q) + r != p + (q + r) or (p * q) * r != p * (q * r):
            yield CheckResult("poly.associativity", False, f"trial {trial}")
            return
        i = rng.randint(1, 4)
        j = rng.randint(1, 4)
        if (p * q).partial(i) != p.partial(i) * q + p * q.partial(i):
            yield CheckResult("poly.leibniz", False, f"trial {trial}, i={i}")
            return
        if p.partial(i).partial(j) != p.partial(j).partial(i):
            yield CheckResult("poly.partials-commute", False, f"trial {trial}, i={i}, j={j}")
            return
        for result in (p + q, p * q, p - q, p.partial(i)):
            for mono, coeff in result.terms():
                if coeff == 0 or any(e < 1 for _, e in mono.pairs):
                    yield CheckResult("poly.normalization", False, f"trial {trial}")
                    return
    yield CheckResult("poly.commutativity", True)
    yield CheckResult("poly.associativity", True)
    yield CheckResult("poly.leibniz", True)
    yield CheckResult("poly.partials-commute", True)
    yield CheckResult("poly.normalization", True)


def _suite_bracket(rng: random.Random, triples: int = 500) -> Iterator[CheckResult]:
    d1 = VectorField.direction(1)
    x1d2 = VectorField.term(Monomial.var(1), 2)
    x2d1 = VectorField.term(Monomial.var(2), 1)
    yield CheckResult("bracket.coordinate-action", d1.bracket(x1d2) == VectorField.direction(2))
    yield CheckResult(
        "bracket.linear-relation",
        x1d2.bracket(x2d1)
        == VectorField.term(Monomial.var(1), 1) - VectorField.term(Monomial.var(2), 2),
    )
    u = VectorField.term(Monomial({1: 1, 2: 1}), 1)
    w = VectorField.term(Monomial.var(2), 1)
    yield CheckResult("bracket.quadratic-example",
                      u.bracket(w) == VectorField.term(Monomial({2: 2}), 1, -1))

    for trial in range(triples):
        u = random_field(rng)
        v = random_field(rng)
        w = random_field(rng)
        if u.bracket(w) != -1 * w.bracket(u):
            yield CheckResult("bracket.antisymmetry", False, _counter(u, w, note=f"trial {trial}:"))
            return
        # the structure-constant term formula against the generic bracket
        generic = {(m, i): c for m, i, c in u.bracket(w).terms()}
        if bracket_terms(exponent_terms(u), exponent_terms(w)) != generic:
            yield CheckResult("bracket.term-formula", False, _counter(u, w, note=f"trial {trial}:"))
            return
        a, b = random_rational(rng), random_rational(rng)
        if (u.scale(a) + v.scale(b)).bracket(w) != u.bracket(w).scale(a) + v.bracket(w).scale(b):
            yield CheckResult("bracket.bilinearity", False, _counter(u, v, w, note=f"trial {trial}:"))
            return
        jac = (
            u.bracket(v.bracket(w)) + v.bracket(w.bracket(u)) + w.bracket(u.bracket(v))
        )
        if not jac.is_zero():
            yield CheckResult("bracket.jacobi", False, _counter(u, v, w, note=f"trial {trial}:"))
            return
        p = random_polynomial(rng)
        lhs = u.bracket(w).apply_to(p)
        rhs = u.apply_to(w.apply_to(p)) - w.apply_to(u.apply_to(p))
        if lhs != rhs:
            yield CheckResult("bracket.derivation-oracle", False, _counter(u, w, note=f"trial {trial}:"))
            return
    yield CheckResult("bracket.antisymmetry", True)
    yield CheckResult("bracket.bilinearity", True)
    yield CheckResult("bracket.jacobi", True)
    yield CheckResult("bracket.derivation-oracle", True)
    yield CheckResult("bracket.term-formula", True)

    # grading: deg[u, w] = deg u + deg w; the grading field acts by the degree
    for trial in range(100):
        n = rng.choice((2, 3, 4))
        ka = rng.randint(-1, 3)
        kb = rng.randint(-1, 3)
        u = random_homogeneous_field(rng, ka, n)
        w = random_homogeneous_field(rng, kb, n)
        b = u.bracket(w)
        if not b.is_zero() and b.degree() != ka + kb:
            yield CheckResult("bracket.grading-additive", False, _counter(u, w, note=f"trial {trial}:"))
            return
        if euler(n).bracket(w) != w.scale(kb):
            yield CheckResult("bracket.euler-eigenvalue", False, _counter(w, note=f"trial {trial}, n={n}, k={kb}:"))
            return
    yield CheckResult("bracket.grading-additive", True)
    yield CheckResult("bracket.euler-eigenvalue", True)

    ok = all(s.bracket(euler(n)).is_zero() for n in (2, 3, 4) for s in sl_basis(n))
    yield CheckResult("bracket.euler-centralized-by-sl", ok)

    comps = (VectorField.direction(1) + VectorField.term(Monomial({1: 1, 2: 1}), 2)).degree_components()
    ok = set(comps) == {-1, 1} and all(h.field.degree() == d for d, h in comps.items())
    yield CheckResult("bracket.degree-components", ok)


def _suite_identities(rng: random.Random, count: int = 200) -> Iterator[CheckResult]:
    yield CheckResult("identities.zero-field", verify_bracket_identities(VectorField.zero(), 1, 2))
    yield CheckResult("identities.linear-term",
                      verify_bracket_identities(VectorField.term(Monomial.var(2), 1), 1, 2))
    for trial in range(count):
        w = random_field(rng)
        i = rng.randint(1, 4)
        j = rng.randint(1, 4)
        if i == j:
            j = i % 4 + 1
        if not verify_bracket_identities(w, i, j):
            yield CheckResult("identities.closed-forms", False, _counter(w, note=f"trial {trial}, i={i}, j={j}:"))
            return
    yield CheckResult("identities.closed-forms", True)


def _random_matrix(rng: random.Random, rows: int, cols: int) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [[Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    )


def _suite_linalg(rng: random.Random) -> Iterator[CheckResult]:
    eye = RationalMatrix.identity(3)
    yield CheckResult("linalg.rref-identity", linalg.rref(eye) == eye)
    m = RationalMatrix.from_rows([[2, 4], [1, 2]])
    yield CheckResult("linalg.rref-rank-deficient",
                      linalg.rref(m) == RationalMatrix.from_rows([[1, 2], [0, 0]]))
    z = RationalMatrix.zero(2, 3)
    yield CheckResult("linalg.rref-zero", linalg.rref(z) == z)
    yield CheckResult("linalg.kernel-identity", linalg.kernel(eye) == [])
    yield CheckResult("linalg.kernel-zero", len(linalg.kernel(z)) == 3)
    yield CheckResult("linalg.kernel-line",
                      linalg.kernel(RationalMatrix.from_rows([[1, 1]])) == [(Fraction(-1), Fraction(1))])
    out = linalg.solve(eye, [1, 2, 3])
    yield CheckResult("linalg.solve-unique", out.kind == "unique" and out.particular == (1, 2, 3))
    out = linalg.solve(RationalMatrix.from_rows([[1, 1]]), [0])
    yield CheckResult("linalg.solve-underdetermined",
                      out.kind == "underdetermined" and len(out.kernel_basis) == 1)
    out = linalg.solve(RationalMatrix.from_rows([[0]]), [1])
    yield CheckResult("linalg.solve-inconsistent", out.kind == "inconsistent" and out.particular is None)

    for trial in range(120):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, r, c)
        red = linalg.rref(m)
        if linalg.rref(red) != red:
            yield CheckResult("linalg.rref-idempotent", False, f"trial {trial}")
            return
        ker = linalg.kernel(m)
        for vec in ker:
            if any(v != 0 for v in m.mat_vec(list(vec))):
                yield CheckResult("linalg.kernel-exact", False, f"trial {trial}")
                return
        if linalg.rank(m) + len(ker) != c:
            yield CheckResult("linalg.rank-nullity", False, f"trial {trial}")
            return
        if linalg.rref(m) != red or linalg.kernel(m) != ker:
            yield CheckResult("linalg.deterministic", False, f"trial {trial}")
            return
        b = [Fraction(rng.randint(-6, 6)) for _ in range(r)]
        sol = linalg.solve(m, b)
        if sol.particular is not None and m.mat_vec(list(sol.particular)) != b:
            yield CheckResult("linalg.solve-exact", False, f"trial {trial}")
            return
    yield CheckResult("linalg.rref-idempotent", True)
    yield CheckResult("linalg.kernel-exact", True)
    yield CheckResult("linalg.rank-nullity", True)
    yield CheckResult("linalg.deterministic", True)
    yield CheckResult("linalg.solve-exact", True)


def _window_span(max_var: int, lo: int, hi: int) -> SubspaceSpec:
    return SubspaceSpec.span_window(TruncationWindow(max_var, lo, hi, "strict"))


def _suite_centralizer(rng: random.Random) -> Iterator[CheckResult]:
    amb = _window_span(3, -1, 3)
    cen = centralizer(sl_basis(3), amb)
    ok = len(cen) == 1 and cen[0] == euler(3).scale(cen[0].coeff(Monomial.var(1), 1))
    yield CheckResult("centralizer.sl3-euler-line", ok, "" if ok else f"dim={len(cen)}")

    amb45 = _window_span(4, -1, 1)
    cen5 = centralizer(sl_basis(3), amb45)
    yield CheckResult("centralizer.sl3-beyond-window-dim5", len(cen5) == 5, f"dim={len(cen5)}")

    for n in (2, 3):
        ambL = _window_span(n, -1, 3)
        cl = centralizer(L_basis(n), ambL)
        yield CheckResult(f"centralizer.L{n}-trivial", cl == [], f"dim={len(cl)}")

    # soundness: every returned basis element commutes with every actor
    for label, actors, ambient in (
        ("sl3-euler-line", sl_basis(3), amb),
        ("sl3-beyond-window", sl_basis(3), amb45),
    ):
        basis = centralizer(actors, ambient)
        bad = None
        for cand in basis:
            for s in actors:
                if not s.bracket(cand).is_zero():
                    bad = _counter(s, cand)
                    break
        yield CheckResult(f"centralizer.soundness-{label}", bad is None, bad or "")

    # completeness: dimension equals cols - rank of the stacked action matrix
    per_gen = []
    for s in sl_basis(3):
        cols = [amb.coords(s.bracket(b)) for b in amb.basis]
        for t in range(amb.dim):
            per_gen.append([cols[b][t] for b in range(amb.dim)])
    stacked = RationalMatrix.from_rows(per_gen)
    ok = len(centralizer(sl_basis(3), amb)) == amb.dim - linalg.rank(stacked)
    yield CheckResult("centralizer.completeness-sl3", ok)

    # predicted shape in the wider window: multiples of the Euler field by
    # polynomials in the extra variable, plus fields along the extra direction
    amb42 = _window_span(4, -1, 2)
    computed = centralizer(sl_basis(3), amb42)
    predicted = []
    for k in range(0, 3):
        predicted.append(euler(3).mul_poly(Polynomial.term(Monomial({4: k}))))
    for k in range(0, 4):
        predicted.append(VectorField.term(Monomial({4: k}), 4))
    a, b, both = RowSpace(amb42.dim), RowSpace(amb42.dim), RowSpace(amb42.dim)
    for f in computed:
        a.add(amb42.coords(f))
        both.add(amb42.coords(f))
    for f in predicted:
        b.add(amb42.coords(f))
        both.add(amb42.coords(f))
    ok = a.rank == b.rank == both.rank == len(predicted)
    yield CheckResult("centralizer.predicted-shape-double-inclusion", ok,
                      "" if ok else f"ranks {a.rank}/{b.rank}/{both.rank}")

    # rigidity witness: positive-degree fields commuting with the full
    # direction+linear family vanish
    for n in (2, 3):
        pos = _window_span(n, 1, 3)
        cl = centralizer(L_basis(n), pos)
        yield CheckResult(f"centralizer.rigidity-positive-degree-n{n}", cl == [], f"dim={len(cl)}")


def _suite_h1(rng: random.Random) -> Iterator[CheckResult]:
    for n in (2, 3):
        for k in (-1, 0, 1):
            for m in (n, n + 1):
                module = _window_span(m, k, k)
                report = h1_report(n, module)
                ok = report.h1 == 0 and report.z1 >= report.b1 >= 0
                yield CheckResult(f"h1.vanishes-n{n}-k{k}-m{m}", ok,
                                  "" if ok else f"z1={report.z1} b1={report.b1}")

    triv = SubspaceSpec([euler(2)], TruncationWindow(2, 0, 0, "strict"))
    yield CheckResult("h1.trivial-module", h1_report(2, triv).h1 == 0)

    # containment: every coboundary vector lies in the cocycle space
    module = _window_span(2, 0, 0)
    report = h1_report(2, module, include_bases=True)
    space = RowSpace(len(report.cocycle_basis[0]) if report.cocycle_basis else module.dim * len(sl_basis(2)))
    for vec in report.cocycle_basis:
        space.add(vec)
    contained = all(space.contains(vec) for vec in report.coboundary_vectors)
    yield CheckResult("h1.coboundaries-inside-cocycles", contained and space.rank == report.z1)


def _suite_solve_inner(rng: random.Random, round_trips: int = 100) -> Iterator[CheckResult]:
    search = _window_span(3, -1, 2)
    gens = L_basis(3)
    failed = None
    for trial in range(round_trips):
        w = random_field(rng, max_var=3, max_deg=2, terms=4)
        spec = DerivationSpec.from_ad(w, gens)
        result = solve_inner(spec, search)
        if result.kind != "unique" or result.field != w:
            failed = _counter(w, note=f"trial {trial} ({result.kind}):")
            break
    yield CheckResult("solve-inner.round-trip", failed is None, failed or "")

    w0 = VectorField.term(Monomial({1: 2}), 2)
    spec = DerivationSpec.from_ad(w0, sl_basis(3))
    result = solve_inner(spec, search)
    ok = (
        result.kind == "underdetermined"
        and len(result.kernel) == 1
        and result.kernel[0] == euler(3).scale(result.kernel[0].coeff(Monomial.var(1), 1))
    )
    yield CheckResult("solve-inner.sl-ambiguity-is-euler-line", ok,
                      "" if ok else f"kind={result.kind} kernel dim {len(result.kernel)}")

    spec0 = DerivationSpec(gens, [VectorField.zero()] * len(gens))
    result0 = solve_inner(spec0, search)
    yield CheckResult("solve-inner.zero-derivation",
                      result0.kind == "unique" and result0.field.is_zero())

    specE = DerivationSpec.from_ad(euler(2), L_basis(2))
    resE = solve_inner(specE, _window_span(2, -1, 2))
    yield CheckResult("solve-inner.euler-separated-by-directions",
                      resE.kind == "unique" and resE.field == euler(2))

    # unreachable prescribed value produces a certificate, not a wrong answer
    bad = DerivationSpec([VectorField.term(Monomial.var(1), 1)],
                         [VectorField.term(Monomial.var(1), 1)])
    res_bad = solve_inner(bad, _window_span(2, 0, 0))
    ok = res_bad.kind == "inconsistent" and res_bad.certificate is not None
    yield CheckResult("solve-inner.inconsistency-certificate", ok)


def _suite_closure(rng: random.Random) -> Iterator[CheckResult]:
    dims = []
    cl = submodule_closure(VectorField.direction(1), 3, _window_span(3, -1, -1))
    dims.append(len(cl))
    yield CheckResult("closure.directions-orbit", len(cl) == 3, f"dim={len(cl)}")
    for n in (2, 3):
        cl = submodule_closure(euler(n), n, _window_span(n, 0, 0))
        yield CheckResult(f"closure.euler-invariant-n{n}", len(cl) == 1, f"dim={len(cl)}")
    cl = submodule_closure(VectorField.term(Monomial.var(1), 1), 2, _window_span(2, 0, 0))
    yield CheckResult("closure.diagonal-generates-linear-fields", len(cl) == 4, f"dim={len(cl)}")


def _suite_stabilize(rng: random.Random) -> Iterator[CheckResult]:
    w0 = VectorField.term(Monomial({1: 2}), 2)
    report = stabilization_scan("solve-inner", [2, 3, 4], from_field=w0, generators="L")
    ok = report.all_stabilized and report.limit == w0
    yield CheckResult("stabilize.round-trip-limit", ok,
                      "" if ok else f"dims={report.dims}")
    stable_at_2 = all(n == 2 for n in report.first_stable_n.values())
    yield CheckResult("stabilize.stable-from-start", stable_at_2)

    report2 = stabilization_scan("centralizer", [3, 4, 5], generators="sl",
                                 max_var_offset=0, degree_max=3)
    yield CheckResult("stabilize.centralizer-dimension-constant",
                      report2.dims == (1, 1, 1), f"dims={report2.dims}")

    try:
        stabilization_scan("centralizer", [], generators="sl")
        yield CheckResult("stabilize.empty-range-rejected", False)
    except ValueError:
        yield CheckResult("stabilize.empty-range-rejected", True)


def _suite_textio(rng: random.Random, round_trips: int = 1000) -> Iterator[CheckResult]:
    goldens = [
        ("x1*x2 d1 - 2/3*x3^2 d2", {(Monomial({1: 1, 2: 1}), 1): Fraction(1),
                                    (Monomial({3: 2}), 2): Fraction(-2, 3)}),
        ("d4", {(Monomial(), 4): Fraction(1)}),
        ("x1 d1 + x2 d2 + x3 d3", {(Monomial.var(i), i): Fraction(1) for i in (1, 2, 3)}),
    ]
    ok = True
    for text, expected in goldens:
        w = parse_field(text)
        if {(m, i): c for m, i, c in w.terms()} != expected:
            ok = False
    yield CheckResult("textio.golden-parses", ok)
    yield CheckResult("textio.zero-prints", print_field(VectorField.zero()) == "0"
                      and parse_field("0").is_zero())
    yield CheckResult("textio.euler-prints", print_field(euler(2)) == "x1 d1 + x2 d2")

    failed = None
    for trial in range(round_trips):
        w = random_field(rng, max_var=5, max_deg=3, terms=5)
        text = print_field(w)
        if parse_field(text) != w:
            failed = f"trial {trial}: {text}"
            break
        if print_field(parse_field(text)) != text:
            failed = f"trial {trial} (not idempotent): {text}"
            break
        if textio.field_from_json(textio.to_json(w)) != w:
            failed = f"trial {trial} (json): {text}"
            break
    yield CheckResult("textio.round-trip", failed is None, failed or "")

    alphabet = "x d123456789+-*/^()[]{}@#\\\"'\n\t .,eE"
    crashed = None
    for trial in range(600):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse_field(text)
        except ParseError:
            pass
        except Exception as exc:  # anything else is a fuzz failure
            crashed = f"trial {trial}: {text!r} -> {type(exc).__name__}"
            break
    for trial in range(300):
        chars = list(print_field(random_field(rng)))
        if not chars:
            continue
        chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        try:
            parse_field("".join(chars))
        except ParseError:
            pass
        except Exception as exc:
            crashed = f"mutation trial {trial} -> {type(exc).__name__}"
            break
    yield CheckResult("textio.fuzz-structured-errors", crashed is None, crashed or "")

    bad = '{"components":{"1":[{"monomial":{},"coeff":"1/0"}]}}'
    try:
        textio.field_from_json(bad)
        yield CheckResult("textio.schema-error-path", False)
    except textio.SchemaError as exc:
        yield CheckResult("textio.schema-error-path", "components.1[0].coeff" in str(exc))


SUITES: dict[str, Callable[[random.Random], Iterator[CheckResult]]] = {
    "poly": _suite_poly,
    "bracket": _suite_bracket,
    "identities": _suite_identities,
    "linalg": _suite_linalg,
    "centralizer": _suite_centralizer,
    "h1": _suite_h1,
    "solve-inner": _suite_solve_inner,
    "closure": _suite_closure,
    "stabilize": _suite_stabilize,
    "textio": _suite_textio,
}


def run_suite(name: str, seed: int) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    rng = random.Random(f"{seed}:{name}")
    return list(SUITES[name](rng))


def run_suites(names: Sequence[str], seed: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in names:
        out.extend(run_suite(name, seed))
    return out
