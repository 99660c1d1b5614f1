"""Centralizer and solve_inner per torus-weight block against the one-block
solve: one ``solve_sparse`` over every search column, as the systems were
solved before they were split by weight.  Results, certificates and
errors must be equal."""

import random

import pytest

from wittkit.derivations import (
    ClosureViolation,
    DerivationSpec,
    InnerObstruction,
    InnerSolveResult,
    SubspaceSpec,
    centralizer,
    solve_inner,
)
from wittkit.derivations import _derived_codomain, _stacked_rows, _term_key, _weight_blocks
from wittkit.fields import (
    L_basis,
    TruncationWindow,
    VectorField,
    WindowViolation,
    euler,
    format_term,
    sl_basis,
    term_weight,
)
from wittkit.linalg import solve_sparse
from wittkit.poly import Monomial
from wittkit.suites import random_field
from wittkit.textio import parse_field


def span(max_var, lo, hi, mode="strict"):
    return SubspaceSpec.span_window(TruncationWindow(max_var, lo, hi, mode))


def whole_centralizer(actors, ambient):
    window = _derived_codomain(actors, ambient)
    rows = _stacked_rows(actors, ambient, window, range(ambient.dim))
    outcome = solve_sparse(list(rows.values()), ambient.dim)
    return [ambient.field_from_coords(vec) for vec in outcome.kernel_basis]


def whole_solve_inner(spec, search, codomain=None):
    gens = spec.generators
    window = codomain or _derived_codomain(gens, search)
    rows = _stacked_rows(gens, search, window, range(search.dim))
    rhs = {}
    for a, value in enumerate(spec.values):
        for mono, direction, coeff in value.terms():
            if not window.contains_term(mono, direction):
                if window.mode == "strict":
                    raise WindowViolation(
                        f"prescribed value term {format_term(mono, direction)} lies outside "
                        f"the codomain window",
                        mono,
                        direction,
                    )
                continue
            rhs[(a, (mono, direction))] = coeff
            rows.setdefault((a, (mono, direction)), {})
    labels = sorted(rows, key=lambda lab: (lab[0], _term_key(lab[1])))
    outcome = solve_sparse([rows[lab] for lab in labels], search.dim, [rhs.get(lab, 0) for lab in labels])
    kernel = tuple(search.field_from_coords(vec) for vec in outcome.kernel_basis)
    if outcome.kind == "inconsistent":
        a, (mono, direction) = labels[outcome.bad_row]
        return InnerSolveResult("inconsistent", None, kernel, InnerObstruction(a, mono, direction))
    return InnerSolveResult(outcome.kind, search.field_from_coords(outcome.particular), kernel)


def settle(fn, *args):
    """fn's result, or the type, message and term of the violation it raised."""
    try:
        return fn(*args)
    except WindowViolation as exc:
        return type(exc), str(exc), exc.mono, exc.direction


def is_graded(actors, search, values=()):
    return None not in _weight_blocks(actors, search, True, values)[0]


# -- centralizer ---------------------------------------------------------------


def centralizer_cases():
    for n in (2, 3, 4, 5):
        yield f"sl{n}", sl_basis(n), span(n + 1, -1, 2)
        yield f"sl{n}-wide", sl_basis(n), span(n + 2, -1, 1)
    yield "sl3-project", sl_basis(3), span(4, -1, 2, "project")
    yield "sl3-narrow", sl_basis(3), span(2, -1, 2)
    for n in (2, 3, 4):
        yield f"L{n}", L_basis(n), span(n + 1, -1, 2)
        yield f"L{n}-wide", L_basis(n), span(n + 2, -1, 1)
    yield "L2-project", L_basis(2), span(3, 0, 2, "project")
    yield "euler", [euler(3)], span(4, -1, 2)


@pytest.mark.parametrize("actors, ambient", [c[1:] for c in centralizer_cases()],
                         ids=[c[0] for c in centralizer_cases()])
def test_graded_centralizer_matches_whole_solve(actors, ambient):
    assert is_graded(actors, ambient)
    assert centralizer(actors, ambient) == whole_centralizer(actors, ambient)


# -- solve_inner ----------------------------------------------------------------


def inner_cases():
    """Seeded specs: values [g, F] of random fields F (some outside the search
    window), over L_n and sl_n."""
    rng = random.Random(1717)
    configs = [
        ("L", L_basis(2), span(2, -1, 2)), ("L", L_basis(2), span(3, 0, 2)),
        ("L", L_basis(3), span(4, -1, 1)), ("L", L_basis(3), span(3, 0, 2)),
        ("sl", sl_basis(2), span(3, -1, 2)), ("sl", sl_basis(3), span(4, -1, 1)),
        ("sl", sl_basis(3), span(2, -1, 2)), ("sl", sl_basis(2), span(2, 0, 2)),
        ("L", L_basis(2), span(3, -1, 2, "project")), ("sl", sl_basis(2), span(3, 0, 1, "project")),
    ]
    for family, gens, search in configs:
        for _ in range(8):
            field = random_field(rng, max_var=search.window.max_var + 1, max_deg=2, terms=4)
            yield family, DerivationSpec.from_ad(field, gens), search


INNER_CASES = list(inner_cases())


@pytest.mark.parametrize("spec, search", [c[1:] for c in INNER_CASES])
def test_graded_solve_inner_matches_whole_solve(spec, search):
    assert is_graded(spec.generators, search, spec.values)
    assert settle(solve_inner, spec, search) == settle(whole_solve_inner, spec, search)


def test_inner_cases_cover_every_outcome():
    kinds = {"L": set(), "sl": set()}
    for family, spec, search in INNER_CASES:
        got = settle(solve_inner, spec, search)
        kinds[family].add(got.kind if isinstance(got, InnerSolveResult) else got[0])
    for family in kinds:
        assert "inconsistent" in kinds[family]
        assert kinds[family] & {"unique", "underdetermined"}
    assert WindowViolation in kinds["L"] | kinds["sl"]


def test_unreachable_value_certifies_inconsistency():
    # d1 and d2 lie below the search window: no search column has their weight
    field = VectorField.direction(1) + VectorField.direction(2).scale(3) + parse_field("x1^2 d2")
    spec, search = DerivationSpec.from_ad(field, L_basis(2)), span(3, 0, 2)
    blocks, key = _weight_blocks(spec.generators, search, True, spec.values)
    labels = [(a, (m, i)) for a, v in enumerate(spec.values) for m, i, _ in v.terms()]
    assert any(key(*label) not in blocks for label in labels)
    result = solve_inner(spec, search)
    assert result.kind == "inconsistent"
    assert result == whole_solve_inner(spec, search)


# -- the one-block partition ------------------------------------------------------


def one_block_cases():
    mixed = [parse_field("x1 d2 + x2^2 d1"), parse_field("d1"), parse_field("x2 d2")]
    hand_basis = [euler(3), parse_field("x1 d2 - 2/3 x1^2 d1"), parse_field("x3 d3"), parse_field("d2")]
    hand = SubspaceSpec(hand_basis, TruncationWindow(3, -1, 1, "strict"))
    yield "non-weight", mixed, span(2, -1, 2), None
    yield "hand-picked", L_basis(2), hand, None
    yield "hand-picked-sl", sl_basis(3), hand, None
    yield "strict-codomain", L_basis(2), span(2, -1, 2), TruncationWindow(2, -1, 2, "strict")
    yield "strict-codomain-escape", L_basis(2), span(2, -1, 2), TruncationWindow(2, 0, 1, "strict")
    yield "project-codomain", L_basis(2), span(3, -1, 2), TruncationWindow(3, 0, 1, "project")
    yield "project-codomain-sl", sl_basis(2), span(3, -1, 2), TruncationWindow(2, -1, 2, "project")


@pytest.mark.parametrize("gens, search, codomain", [c[1:] for c in one_block_cases()],
                         ids=[c[0] for c in one_block_cases()])
def test_one_block_partition_matches_whole_solve(gens, search, codomain):
    rng = random.Random(1718)
    values = [g.bracket(random_field(rng, max_var=3, max_deg=2, terms=3)) for g in gens]
    blocks, _ = _weight_blocks(gens, search, codomain is None, values)
    assert blocks == {None: range(search.dim)}
    if codomain is None:
        assert settle(centralizer, gens, search) == settle(whole_centralizer, gens, search)
    for field in [random_field(rng, max_var=3, max_deg=2, terms=4) for _ in range(6)]:
        spec = DerivationSpec.from_ad(field, gens)
        graded = settle(solve_inner, spec, search, codomain)
        assert graded == settle(whole_solve_inner, spec, search, codomain)


def test_explicit_codomain_escape_names_the_same_term():
    spec = DerivationSpec.from_ad(parse_field("x1^2 d2"), L_basis(2))
    search, tight = span(2, -1, 2), TruncationWindow(2, 0, 1, "strict")
    got = settle(solve_inner, spec, search, tight)
    assert got[0] is ClosureViolation
    assert got == settle(whole_solve_inner, spec, search, tight)


# -- the skip rule -------------------------------------------------------------------


def block_kernels(actors, search):
    """{weight: kernel dimension} of every weight block, each solved alone."""
    blocks = {}
    for col, term in enumerate(search.terms()):
        blocks.setdefault(term_weight(*term), []).append(col)
    window = _derived_codomain(actors, search)
    out = {}
    for nu, cols in blocks.items():
        rows = _stacked_rows(actors, search, window, cols)
        out[nu] = len(solve_sparse(list(rows.values()), len(cols)).kernel_basis)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_skip_rule_keeps_every_block_with_a_kernel(n):
    search = span(n + 2, -1, 2)
    kept, _ = _weight_blocks(sl_basis(n), search, True)
    kernels = block_kernels(sl_basis(n), search)
    # the sl_n Cartan acts on block v by v_i - v_(i+1): only the blocks whose
    # weight is constant on variables 1..n survive
    constant = {nu for nu in kernels if len({dict(nu).get(v, 0) for v in range(1, n + 1)}) == 1}
    assert set(kept) == constant
    assert {nu for nu, dim in kernels.items() if dim} <= constant
    assert any(kernels[nu] for nu in constant)
    assert len(kept) < len(kernels)


def test_skip_rule_for_L_keeps_weights_zero_on_its_variables():
    n, search = 2, span(4, -1, 2)
    kept, _ = _weight_blocks(L_basis(n), search, True)
    kernels = block_kernels(L_basis(n), search)
    assert set(kept) == {nu for nu in kernels if all(v > n for v, _ in nu)}
    assert {nu for nu, dim in kernels.items() if dim} <= set(kept)


def test_landed_values_keep_their_blocks():
    # x1 d1 kills the block of weight e1 - e2 (x1 d2's), unless a value lands there
    gens = [parse_field("x1 d1"), parse_field("x2 d2")]
    search = span(2, 0, 0)
    target = term_weight(Monomial.var(1), 2)
    assert target not in _weight_blocks(gens, search, True)[0]
    spec = DerivationSpec(gens, [parse_field("x1 d2"), parse_field("-x1 d2")])
    assert target in _weight_blocks(gens, search, True, spec.values)[0]
    result = solve_inner(spec, search)
    assert result == whole_solve_inner(spec, search)
    assert result.field == parse_field("x1 d2")
    assert result.kernel == (parse_field("x1 d1"), parse_field("x2 d2"))
