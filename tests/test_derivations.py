"""Centralizers, closures, cohomology, inner reconstruction, scans."""

import json
import random
from fractions import Fraction

import pytest

from wittkit.derivations import (
    ClosureViolation,
    DerivationSpec,
    DerivationSpecError,
    ScanError,
    SubspaceSpec,
    ad_matrix,
    centralizer,
    h1_dimension,
    h1_report,
    solve_inner,
    stabilization_scan,
    submodule_closure,
    verify_bracket_identities,
)
from wittkit import linalg
from wittkit.cli import main
from wittkit.derivations import _action_columns, _derived_codomain, _stacked_rows, _term_key
from wittkit.fields import (
    L_basis,
    TruncationWindow,
    VectorField,
    WindowViolation,
    euler,
    format_term,
    sl_basis,
    truncate,
)
from wittkit.linalg import RationalMatrix, RowSpace, solve, solve_sparse
from wittkit.poly import Monomial, Polynomial, grlex_key
from wittkit.suites import random_field
from wittkit.textio import field_to_obj


def span(max_var, lo, hi, mode="strict"):
    return SubspaceSpec.span_window(TruncationWindow(max_var, lo, hi, mode))


def term(i, **kw):
    return VectorField.term(Monomial({int(k[1:]): v for k, v in kw.items()}), i)


# -- SubspaceSpec -------------------------------------------------------------


def test_window_span_coords_roundtrip():
    spec = span(2, -1, 1)
    w = term(1, x1=1) + VectorField.direction(2).scale(Fraction(2, 3))
    vec = spec.coords(w)
    assert spec.field_from_coords(vec) == w
    assert spec.is_full_window
    assert spec.dim == spec.window.dimension()


def test_subspace_rejects_out_of_window_basis():
    with pytest.raises(WindowViolation):
        SubspaceSpec([term(1, x5=1)], TruncationWindow(3, -1, 1, "strict"))


def test_subspace_rejects_dependent_basis():
    e = euler(2)
    with pytest.raises(ValueError):
        SubspaceSpec([e, e.scale(2)], TruncationWindow(2, 0, 0, "strict"))


def test_general_subspace_coords():
    spec = SubspaceSpec([euler(2), term(1, x2=1)], TruncationWindow(2, 0, 0, "strict"))
    w = euler(2).scale(3) - term(1, x2=1)
    assert spec.coords(w) == (3, -1)
    with pytest.raises(WindowViolation):
        spec.coords(term(2, x1=1))  # inside window, outside span
    assert not spec.contains(term(2, x1=1))


# -- ad_matrix ----------------------------------------------------------------


def test_ad_matrix_euler_annihilates_sl():
    dom = span(3, 0, 0)
    assert ad_matrix(euler(3), dom, dom).is_zero()


def test_ad_matrix_zero_field():
    dom = span(2, -1, 0)
    assert ad_matrix(VectorField.zero(), dom, dom).is_zero()


def test_ad_matrix_direction_domain_oracle():
    # oracle: [d1, x1 d2] = d2 and [d2, x1 d2] = 0
    dom = span(2, -1, -1)
    m = ad_matrix(term(2, x1=1), dom, dom)
    d1, d2 = dom.basis
    assert d1.bracket(term(2, x1=1)) == d2
    assert d2.bracket(term(2, x1=1)).is_zero()
    assert m.to_rows() == [[0, 0], [1, 0]]


def test_ad_matrix_escape_raises():
    dom = span(2, 1, 1)
    with pytest.raises(ClosureViolation):
        ad_matrix(VectorField.direction(1), dom, dom)  # lowers degree out of the window


# -- centralizer --------------------------------------------------------------


def test_centralizer_sl3_is_euler_line():
    basis = centralizer(sl_basis(3), span(3, -1, 3))
    assert len(basis) == 1
    c = basis[0]
    assert c == euler(3).scale(c.coeff(Monomial.var(1), 1))


def test_centralizer_sl3_wider_window_dim5():
    basis = centralizer(sl_basis(3), span(4, -1, 1))
    assert len(basis) == 5
    predicted = [
        euler(3),
        euler(3).mul_poly(Polynomial.variable(4)),
        VectorField.direction(4),
        term(4, x4=1),
        term(4, x4=2),
    ]
    amb = span(4, -1, 1)
    computed_space = RowSpace(amb.dim)
    both = RowSpace(amb.dim)
    for f in basis:
        computed_space.add(amb.coords(f))
        both.add(amb.coords(f))
    for f in predicted:
        both.add(amb.coords(f))
    assert computed_space.rank == both.rank == 5


def test_centralizer_L_trivial():
    assert centralizer(L_basis(2), span(2, -1, 3)) == []
    assert centralizer(L_basis(3), span(3, -1, 3)) == []


def test_centralizer_soundness():
    actors = sl_basis(3)
    for c in centralizer(actors, span(4, -1, 1)):
        assert all(s.bracket(c).is_zero() for s in actors)


def test_centralizer_rigidity_positive_degree():
    # direction constraints alone kill all positive-degree coefficients
    for n in (2, 3):
        assert centralizer(L_basis(n), span(n, 1, 3)) == []
        assert centralizer([VectorField.direction(i) for i in range(1, n + 1)], span(n, 1, 3)) == []


def test_centralizer_matches_general_subspace_path():
    # a rescaled basis of the same span must give the same centralizer span
    window = TruncationWindow(2, -1, 1, "strict")
    full = SubspaceSpec.span_window(window)
    scaled = SubspaceSpec([b.scale(Fraction(1, 2)) for b in full.basis], window)
    a = centralizer(sl_basis(2), full)
    b = centralizer(sl_basis(2), scaled)
    assert len(a) == len(b)
    space = RowSpace(full.dim)
    for f in a:
        space.add(full.coords(f))
    assert all(space.contains(full.coords(f)) for f in b)


# -- submodule_closure --------------------------------------------------------


def test_closure_dimensions():
    assert len(submodule_closure(VectorField.direction(1), 3, span(3, -1, -1))) == 3
    assert len(submodule_closure(euler(2), 2, span(2, 0, 0))) == 1
    assert len(submodule_closure(term(1, x1=1), 2, span(2, 0, 0))) == 4


def test_closure_is_invariant_subspace():
    amb = span(2, 0, 0)
    basis = submodule_closure(term(1, x1=1), 2, amb)
    space = RowSpace(amb.dim)
    for f in basis:
        space.add(amb.coords(f))
    for g in sl_basis(2):
        for f in basis:
            assert space.contains(amb.coords(g.bracket(f)))


def test_closure_strict_escape():
    # generators in 3 variables push the orbit out of a 2-variable window
    amb = span(2, 0, 0)
    with pytest.raises(ClosureViolation):
        submodule_closure(term(1, x1=1), 3, amb)


def test_closure_requires_membership():
    with pytest.raises(WindowViolation):
        submodule_closure(term(1, x5=1), 2, span(2, 0, 0))


# -- h1 -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [-1, 0, 1])
def test_h1_vanishes_on_grid(n, k):
    for m in (n, n + 1):
        assert h1_dimension(n, span(m, k, k)) == 0


def test_h1_trivial_module():
    triv = SubspaceSpec([euler(2)], TruncationWindow(2, 0, 0, "strict"))
    assert h1_dimension(2, triv) == 0


def test_h1_report_invariants():
    report = h1_report(2, span(3, 0, 0), include_bases=True)
    assert report.z1 >= report.b1 >= 0
    assert report.h1 == 0
    space = RowSpace(len(sl_basis(2)) * report.module_dim)
    for vec in report.cocycle_basis:
        space.add(vec)
    assert space.rank == report.z1
    assert all(space.contains(vec) for vec in report.coboundary_vectors)


@pytest.mark.parametrize(
    "n, module",
    [
        (2, span(2, 0, 0)),
        (2, span(3, 1, 1)),
        (3, span(3, 0, 0)),
        (2, SubspaceSpec([euler(2)], TruncationWindow(2, 0, 0, "strict"))),
    ],
    ids=["sl2-deg0", "sl2-deg1-x3", "sl3-deg0", "sl2-euler-line"],
)
def test_h1_bases_satisfy_cocycle_identity(n, module):
    # oracle: the generic bracket, and the generator expansion by the dense solve
    gens = sl_basis(n)
    M = module.dim
    report = h1_report(n, module, include_bases=True)
    deg0 = span(n, 0, 0)   # a full window: coordinates are read off, not solved for
    cols = [deg0.coords(g) for g in gens]
    gen_matrix = RationalMatrix.from_rows([[col[t] for col in cols] for t in range(deg0.dim)])
    pairs = [(p, q) for p in range(len(gens)) for q in range(p + 1, len(gens))]
    lams = {(p, q): solve(gen_matrix, deg0.coords(gens[p].bracket(gens[q]))).particular for p, q in pairs}

    def is_cocycle(vec):
        c = [module.field_from_coords(vec[k * M : (k + 1) * M]) for k in range(len(gens))]
        for p, q in pairs:
            lhs = VectorField.zero()
            for lam, ck in zip(lams[(p, q)], c):
                lhs = lhs + ck.scale(lam)
            if lhs != gens[p].bracket(c[q]) - gens[q].bracket(c[p]):
                return False
        return True

    assert len(report.cocycle_basis) == report.z1
    assert len(report.coboundary_vectors) == M
    assert all(is_cocycle(vec) for vec in report.cocycle_basis)
    assert all(is_cocycle(vec) for vec in report.coboundary_vectors)
    space = RowSpace(len(gens) * M)
    for vec in report.cocycle_basis:
        space.add(vec)
    assert space.rank == report.z1
    assert all(space.contains(vec) for vec in report.coboundary_vectors)
    boundaries = RowSpace(len(gens) * M)
    for vec in report.coboundary_vectors:
        boundaries.add(vec)
    assert boundaries.rank == report.b1
    assert report.h1 == 0


def test_h1_requires_module_closure():
    bad = SubspaceSpec([term(2, x1=1)], TruncationWindow(2, 0, 0, "strict"))
    with pytest.raises(ClosureViolation):
        h1_dimension(2, bad)


# -- DerivationSpec -----------------------------------------------------------


def test_derivation_spec_from_ad_valid():
    w = term(2, x1=2) + VectorField.direction(1).scale(Fraction(1, 3))
    spec = DerivationSpec.from_ad(w, L_basis(2))
    assert spec.skipped_pairs == ()
    assert spec.values[0] == L_basis(2)[0].bracket(w)


def test_derivation_spec_rejects_cocycle_violation():
    gens = sl_basis(2)
    values = [VectorField.zero(), VectorField.zero(), term(2, x1=2)]
    with pytest.raises(DerivationSpecError):
        DerivationSpec(gens, values)


def test_derivation_spec_rejects_mismatched_lengths():
    with pytest.raises(DerivationSpecError):
        DerivationSpec(sl_basis(2), [VectorField.zero()])


def test_derivation_spec_rejects_dependent_generators():
    with pytest.raises(DerivationSpecError):
        DerivationSpec([euler(2), euler(2).scale(2)], [VectorField.zero()] * 2)


def test_derivation_spec_skips_unexpandable_pairs():
    # the bracket of these two escapes their span, so the pair is skipped
    gens = [VectorField.direction(1), term(1, x1=2)]
    spec = DerivationSpec(gens, [VectorField.zero(), VectorField.zero()])
    assert spec.skipped_pairs == ((0, 1),)


# Golden cases, recorded while validation still solved densely.  [x1 d2, x2 d1]
# = x1 d1 - x2 d2 stays in these generators' terms but leaves their span;
# [x1 d2, d1] = -d2 leaves their terms.
SKIP_GENS = [term(2, x1=1), term(1, x2=1), euler(2), VectorField.direction(1)]


def test_derivation_spec_skips_pairs_of_both_kinds():
    spec = DerivationSpec.from_ad(term(2, x1=2), SKIP_GENS)
    assert spec.skipped_pairs == ((0, 1), (0, 3))


def test_derivation_spec_golden_messages():
    zero = VectorField.zero()
    with pytest.raises(DerivationSpecError) as info:
        DerivationSpec([term(2, x1=1), term(1, x2=1), term(2, x1=1).scale(2)], [zero] * 3)
    assert str(info.value) == "generators are linearly dependent"
    # each failure comes after a skipped pair (1, 2): one whose bracket leaves
    # the span, and one whose bracket leaves the terms ([d1, x1 d2] = d2)
    for gens, values in (
        (SKIP_GENS[:3], [zero, zero, term(1, x1=1)]),
        ([VectorField.direction(1), term(2, x1=1), term(1, x1=1)], [term(2, x2=1), zero, zero]),
    ):
        with pytest.raises(DerivationSpecError) as info:
            DerivationSpec(gens, values)
        assert str(info.value) == "cocycle identity fails on generator pair (1, 3)"


# -- solve_inner --------------------------------------------------------------


def test_solve_inner_round_trip_random():
    rng = random.Random(20250810)
    search = span(3, -1, 2)
    gens = L_basis(3)
    for _ in range(30):
        w = random_field(rng, max_var=3, max_deg=2, terms=4)
        result = solve_inner(DerivationSpec.from_ad(w, gens), search)
        assert result.kind == "unique"
        assert result.field == w


def test_solve_inner_sl_kernel_is_euler_line():
    search = span(3, -1, 2)
    w = term(2, x1=2)
    result = solve_inner(DerivationSpec.from_ad(w, sl_basis(3)), search)
    assert result.kind == "underdetermined"
    assert len(result.kernel) == 1
    k = result.kernel[0]
    assert k == euler(3).scale(k.coeff(Monomial.var(1), 1))
    # the particular solution still satisfies every generator equation
    for g in sl_basis(3):
        assert g.bracket(result.field) == g.bracket(w)


def test_solve_inner_kernel_equals_centralizer():
    # ambiguity law: the solution kernel is exactly the centralizer of the
    # generator set inside the search space, basis for basis
    search = span(3, -1, 2)
    w = term(2, x1=2)
    result = solve_inner(DerivationSpec.from_ad(w, sl_basis(3)), search)
    assert list(result.kernel) == centralizer(sl_basis(3), search)


def test_solve_inner_zero_derivation():
    gens = L_basis(3)
    result = solve_inner(DerivationSpec(gens, [VectorField.zero()] * len(gens)), span(3, -1, 2))
    assert result.kind == "unique" and result.field.is_zero()


def test_solve_inner_euler_recovered():
    result = solve_inner(DerivationSpec.from_ad(euler(2), L_basis(2)), span(2, -1, 2))
    assert result.kind == "unique" and result.field == euler(2)


def test_solve_inner_inconsistency_certificate():
    # the image of ad on the diagonal field never contains the diagonal itself
    gen = term(1, x1=1)
    spec = DerivationSpec([gen], [gen])
    result = solve_inner(spec, span(2, 0, 0))
    assert result.kind == "inconsistent"
    assert result.field is None
    assert result.certificate is not None
    assert result.certificate.generator_index == 0


def obstructed_specs():
    # d1 and d2 lie below the search window: values no search element reaches
    yield DerivationSpec.from_ad(
        VectorField.direction(1) + VectorField.direction(2).scale(3) + term(2, x1=2), L_basis(2)
    ), span(3, 0, 2)
    # the pair's bracket leaves the generator span, so any values validate;
    # these fail in two separate parts of the system (at x1^3 d2 and x1^3 x2 d1)
    gens = [VectorField.direction(1), term(2, x1=2)]
    w = term(2, x1=1, x2=1) + term(1, x1=1, x2=2)
    yield DerivationSpec(gens, [gens[0].bracket(w), VectorField.zero()]), span(2, -1, 2)


@pytest.mark.parametrize("spec, search", list(obstructed_specs()), ids=["unreachable", "two-blocks"])
def test_solve_inner_certificate_is_first_unsolvable_prefix(spec, search):
    # oracle: the dense solve on prefixes of the equations in (generator, term) order
    result = solve_inner(spec, search)
    assert result.kind == "inconsistent"
    cert = result.certificate

    images = [[g.bracket(b) for b in search.basis] for g in spec.generators]
    labels = {(a, (m, i)) for a, row in enumerate(images) for f in row for m, i, _ in f.terms()}
    labels |= {(a, (m, i)) for a, v in enumerate(spec.values) for m, i, _ in v.terms()}
    labels = sorted(labels, key=lambda lab: (lab[0], lab[1][0].length(), lab[1][1], grlex_key(lab[1][0])))
    matrix = [[images[a][t].coeff(m, i) for t in range(search.dim)] for a, (m, i) in labels]
    rhs = [spec.values[a].coeff(m, i) for a, (m, i) in labels]

    def consistent(keep):
        m = RationalMatrix.from_rows([matrix[i] for i in keep]) if keep else RationalMatrix.zero(0, search.dim)
        return solve(m, [rhs[i] for i in keep]).kind != "inconsistent"

    k = labels.index((cert.generator_index, (cert.mono, cert.direction)))
    assert not consistent(range(k + 1))
    assert consistent(range(k))
    # a second obstruction remains without the certificate's equation
    assert not consistent([i for i in range(len(labels)) if i != k])


def test_solve_inner_value_outside_codomain_raises():
    spec = DerivationSpec([VectorField.direction(1)], [term(1, x5=1)])
    with pytest.raises(WindowViolation):
        solve_inner(spec, span(2, -1, 1))


def test_solve_inner_respects_explicit_codomain():
    w = term(2, x1=2)
    spec = DerivationSpec.from_ad(w, L_basis(2))
    tight = TruncationWindow(2, 0, 0, "strict")
    with pytest.raises(WindowViolation):
        solve_inner(spec, span(2, -1, 2), codomain=tight)


def test_solve_inner_general_search_subspace():
    # searching only the Euler line finds the Euler field
    line = SubspaceSpec([euler(2)], TruncationWindow(2, 0, 0, "strict"))
    spec = DerivationSpec.from_ad(euler(2), L_basis(2))
    result = solve_inner(spec, line)
    assert result.kind == "unique" and result.field == euler(2)


def stacked_system(gens, search, values=()):
    """The rows and rhs of [g, w] = value, assembled and ordered as solve_inner does."""
    rows = _stacked_rows(gens, search, _derived_codomain(gens, search), range(search.dim))
    rhs = {}
    for a, value in enumerate(values):
        for m, i, c in value.terms():
            rhs[(a, (m, i))] = c
            rows.setdefault((a, (m, i)), {})
    labels = sorted(rows, key=lambda lab: (lab[0], _term_key(lab[1])))
    return [rows[lab] for lab in labels], [rhs.get(lab, 0) for lab in labels]


def stacked_cases():
    rng = random.Random(430)
    for gens, search in ((sl_basis(3), span(4, -1, 2)), (L_basis(2), span(3, -1, 2))):
        rows, zero = stacked_system(gens, search)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(search.dim)]
        image = [sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows]
        noise = [rng.choice((0, 0, 0, rng.randint(-2, 2))) for _ in rows]
        for rhs in (zero, image, noise):
            yield rows, search.dim, rhs
    for spec, search in obstructed_specs():
        rows, rhs = stacked_system(spec.generators, search, spec.values)
        yield rows, search.dim, rhs


@pytest.mark.parametrize("rows, ncols, rhs", list(stacked_cases()), ids=[
    "sl3-zero", "sl3-image", "sl3-noise", "L2-zero", "L2-image", "L2-noise", "unreachable", "two-blocks"])
def test_solve_sparse_matches_dense_solve_on_stacked_systems(rows, ncols, rhs):
    # oracle: the one-big-matrix solve on the densified system
    dense = RationalMatrix.from_rows([[row.get(c, 0) for c in range(ncols)] for row in rows])
    assert solve_sparse(rows, ncols, rhs) == solve(dense, rhs)


# -- structure-constant assembly against the generic bracket -----------------


def oracle_stacked_rows(gens, search, window):
    """The stacked rows built from VectorField.bracket; for a strict window,
    ("escape", mono, direction) of the first term that leaves it, scanning
    basis elements, then generators, then each bracket's terms in order."""
    rows = {}
    for col, base in enumerate(search.basis):
        for a, g in enumerate(gens):
            for mono, direction, coeff in g.bracket(base).terms():
                if window.contains_term(mono, direction):
                    rows.setdefault((a, (mono, direction)), {})[col] = coeff
                elif window.mode == "strict":
                    return "escape", mono, direction
    return rows


def oracle_action_columns(g, module):
    """The module action built from VectorField.bracket, coordinates taken by
    index (full windows) or by the dense solve; ("escape", mono, direction)
    or ("outside", image) name the first image leaving window or span."""
    images = [g.bracket(b) for b in module.basis]
    if module.window.mode == "project":
        images = [truncate(im, module.window) for im in images]
    index = {t: k for k, t in enumerate(module.terms())}
    for im in images:
        for mono, direction, _ in im.terms():
            if (mono, direction) not in index:
                return "escape", mono, direction
    if module.is_full_window:
        return [{index[(m, i)]: c for m, i, c in im.terms()} for im in images]
    basis = RationalMatrix.from_rows(
        [[b.coeff(m, i) for b in module.basis] for m, i in module.terms()]
    )
    cols = []
    for im in images:
        outcome = solve(basis, [im.coeff(m, i) for m, i in module.terms()])
        if outcome.kind == "inconsistent":
            return "outside", im
        cols.append({r: v for r, v in enumerate(outcome.particular) if v})
    return cols


def escape_or_result(fn, *args):
    try:
        return fn(*args)
    except ClosureViolation as exc:
        if exc.mono is None:
            return "outside", str(exc)
        assert format_term(exc.mono, exc.direction) in str(exc)
        return "escape", exc.mono, exc.direction


HAND_PICKED = SubspaceSpec(
    [euler(3), term(1, x2=1) + term(2, x1=2).scale(Fraction(-2, 3)), term(3, x1=1, x3=1),
     VectorField.direction(2).scale(5)],
    TruncationWindow(3, -1, 1, "strict"),
)


def stacked_row_cases():
    rng = random.Random(1018)
    random_gens = [random_field(rng, max_var=3, max_deg=1, terms=3) for _ in range(3)]
    for name, gens, search in (
        ("sl3", sl_basis(3), span(4, -1, 2)),
        ("sl4", sl_basis(4), span(5, -1, 2)),
        ("sl5", sl_basis(5), span(6, -1, 2)),
        ("L2", L_basis(2), span(3, -1, 2)),
        ("L3", L_basis(3), span(4, -1, 2)),
        ("random", random_gens, span(3, -1, 1)),
        ("hand-picked", L_basis(3) + random_gens, HAND_PICKED),
    ):
        derived = _derived_codomain(gens, search)
        yield f"{name}-derived", gens, search, derived
        top = search.window.degree_max
        for mode in ("strict", "project"):
            small = TruncationWindow(search.window.max_var - 1, -1, top - 1, mode)
            yield f"{name}-small-{mode}", gens, search, small
        yield f"{name}-low-degree", gens, search, TruncationWindow(derived.max_var, -1, top - 1, "strict")


@pytest.mark.parametrize("gens, search, window", [c[1:] for c in stacked_row_cases()],
                         ids=[c[0] for c in stacked_row_cases()])
def test_stacked_rows_match_generic_bracket(gens, search, window):
    got = escape_or_result(_stacked_rows, gens, search, window, range(search.dim))
    assert got == oracle_stacked_rows(gens, search, window)
    if window.mode == "strict" and window != _derived_codomain(gens, search):
        assert got[0] == "escape"   # the small strict windows do cut brackets


def action_cases():
    sl2_span = SubspaceSpec(sl_basis(2), TruncationWindow(2, 0, 0, "strict"))
    not_closed = SubspaceSpec([euler(2), term(1, x2=1)], TruncationWindow(2, 0, 0, "strict"))
    rng = random.Random(1019)
    for name, gens, module in (
        ("sl2-deg1", sl_basis(2), span(3, 1, 1)),
        ("sl3-deg0", sl_basis(3), span(3, 0, 0)),
        ("sl3-escape", sl_basis(3), span(2, 0, 0)),
        ("sl3-project", sl_basis(3), span(2, 0, 0, "project")),
        ("sl2-hand-picked", sl_basis(2), sl2_span),
        ("sl2-not-closed", sl_basis(2), not_closed),
        ("random", [random_field(rng, max_var=2, max_deg=1) for _ in range(4)], span(2, -1, 1, "project")),
    ):
        for k, g in enumerate(gens):
            yield f"{name}-{k}", g, module


@pytest.mark.parametrize("g, module", [c[1:] for c in action_cases()],
                         ids=[c[0] for c in action_cases()])
def test_action_columns_match_generic_bracket(g, module):
    got = escape_or_result(_action_columns, g, module)
    want = oracle_action_columns(g, module)
    if want[0] == "outside":
        assert got == ("outside", f"module action escapes the module: "
                                  f"field is outside the span of the basis: {want[1]!r}")
    else:
        assert got == want


def test_public_results_hold_fractions():
    def fractions_only(vectors):
        return all(type(v) is Fraction for vec in vectors for v in vec)

    def field_fractions(fields):
        return all(type(c) is Fraction for f in fields for _, _, c in f.terms())

    report = h1_report(2, span(3, 0, 0), include_bases=True)
    assert report.cocycle_basis and report.coboundary_vectors
    assert fractions_only(report.cocycle_basis) and fractions_only(report.coboundary_vectors)
    search = span(4, -1, 1)
    basis = centralizer(sl_basis(3), search)
    assert basis and field_fractions(basis)
    rows = _stacked_rows(sl_basis(3), search, _derived_codomain(sl_basis(3), search), range(search.dim))
    rows = list(rows.values())
    outcome = solve_sparse(rows, search.dim)
    assert outcome.kernel_basis and fractions_only(outcome.kernel_basis)
    assert fractions_only([outcome.particular])
    result = solve_inner(DerivationSpec.from_ad(euler(3), sl_basis(3)), search)
    assert result.kind == "underdetermined"
    assert field_fractions([result.field, *result.kernel])
    adj = ad_matrix(term(1, x1=1), span(2, 0, 0), span(2, 0, 0))
    assert fractions_only([adj.entries])
    assert fractions_only([search.coords(euler(3)), HAND_PICKED.coords(euler(3))])


def test_hand_picked_coords_golden():
    # recorded while hand-picked bases were still solved densely
    w = euler(3).scale(3) + term(3, x1=1, x3=1) - VectorField.direction(2)
    assert HAND_PICKED.coords(w) == (3, 0, 1, Fraction(-1, 5))
    with pytest.raises(ClosureViolation) as info:
        HAND_PICKED.coords(term(2, x1=1))
    assert str(info.value) == (
        "field is outside the span of the basis: VectorField<(Polynomial('x1')) d2>"
    )
    with pytest.raises(ClosureViolation) as info:
        SubspaceSpec([], TruncationWindow(2, 0, 0, "strict")).coords(term(1, x1=1))
    assert str(info.value) == "field is outside the (zero) span: VectorField<(Polynomial('x1')) d1>"


# -- verify_bracket_identities ------------------------------------------------


def test_identities_random():
    rng = random.Random(77)
    for _ in range(60):
        w = random_field(rng)
        i = rng.randint(1, 4)
        j = 1 + (i % 4)
        assert verify_bracket_identities(w, i, j)


def test_identities_golden_component():
    # for w = x2 d1 the di-component of [w, x2 d1] is zero, not -x2
    w = term(1, x2=1)
    assert verify_bracket_identities(w, 1, 2)
    lhs = w.bracket(term(1, x2=1))
    assert lhs.component(1).is_zero()


def test_identities_rejects_equal_indices():
    with pytest.raises(ValueError):
        verify_bracket_identities(VectorField.zero(), 2, 2)


# -- stabilization scans ------------------------------------------------------


def test_scan_round_trip_stabilizes():
    w = term(2, x1=2) + term(1, x2=1).scale(2) - term(1, x1=1).scale(Fraction(1, 3))
    report = stabilization_scan("solve-inner", [2, 3, 4], from_field=w, generators="L")
    assert report.all_stabilized
    assert report.limit == w
    assert all(n == 2 for n in report.first_stable_n.values())


def test_scan_sl_normalization_pins_diagonal():
    # with special-linear generators the solution is only defined up to the
    # grading line; the scan pins the x1 d1 coefficient to zero
    w = term(1, x1=1) + term(2, x1=2).scale(2)
    report = stabilization_scan(
        "solve-inner", [2, 3, 4], from_field=w, generators="sl", max_var_offset=0
    )
    t_sq = (Monomial({1: 2}), 2)
    t_x1 = (Monomial.var(1), 1)
    t_x2 = (Monomial.var(2), 2)
    t_x3 = (Monomial.var(3), 3)
    t_x4 = (Monomial.var(4), 4)
    assert report.trajectories[t_sq] == (2, 2, 2)
    assert t_x1 not in report.trajectories  # pinned to zero everywhere
    assert report.trajectories[t_x2] == (-1, -1, -1)
    assert report.trajectories[t_x3] == (0, -1, -1)
    assert report.trajectories[t_x4] == (0, 0, -1)
    assert report.stabilized[t_sq] and report.stabilized[t_x3]
    assert not report.stabilized[t_x4]  # appears only at the last scan point
    assert not report.all_stabilized and report.limit is None


def test_scan_centralizer_dims():
    report = stabilization_scan("centralizer", [3, 4, 5], generators="sl",
                                max_var_offset=0, degree_max=3)
    assert report.dims == (1, 1, 1)
    assert report.all_stabilized  # normalized representative is zero throughout


def test_scan_rejects_bad_ranges():
    with pytest.raises(ValueError):
        stabilization_scan("centralizer", [])
    with pytest.raises(ValueError):
        stabilization_scan("centralizer", [3, 3])
    with pytest.raises(ValueError):
        stabilization_scan("warp", [2, 3])
    with pytest.raises(ValueError):
        stabilization_scan("solve-inner", [2, 3])  # missing from_field


def test_scan_propagates_failures_with_n():
    # the reference field does not fit any scanned window, so n=2 must fail
    w = term(1, x1=5)
    with pytest.raises(ScanError) as err:
        stabilization_scan("solve-inner", [2, 3], from_field=w, generators="L", degree_max=2)
    assert err.value.n == 2


# -- no dense solving on production paths -------------------------------------


@pytest.fixture
def no_dense_solving(monkeypatch):
    """Make the dense oracle functions raise, so that any production path
    still reaching them fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense solving on a production path")

    for name in ("rank", "solve", "solve_many", "kernel", "rref"):
        monkeypatch.setattr(linalg, name, refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["centralizer", "--n", "3", "--max-var", "3", "--deg-max", "2"],
        ["h1", "--n", "2", "--k", "1"],
        ["solve-inner", "--n", "2", "--from-ad", "d1 + x1^2 d2"],
        ["solve-inner", "--gens", "sl", "--n", "3", "--from-ad", "x1 d1 + x2 d2 + x3 d3",
         "--deg-min", "0", "--deg-max", "1"],
        ["solve-inner", "--n", "2", "--spec", "SPEC"],
        ["closure", "x1 d1", "--n", "2", "--deg-min", "0", "--deg-max", "1"],
        ["stabilize", "--task", "solve-inner", "--n-from", "2", "--n-to", "3", "--from-ad", "x1^2 d2"],
    ],
    ids=["centralizer", "h1", "solve-inner-L", "solve-inner-sl", "solve-inner-spec", "closure", "stabilize"],
)
def test_cli_paths_do_not_solve_densely(argv, no_dense_solving, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    w = term(1, x1=1, x2=1) + VectorField.direction(2)
    spec.write_text(json.dumps({
        "generators": [field_to_obj(g) for g in SKIP_GENS],
        "values": [field_to_obj(g.bracket(w)) for g in SKIP_GENS],
    }))
    assert main([str(spec) if a == "SPEC" else a for a in argv]) == 0
    capsys.readouterr()


def test_api_paths_do_not_solve_densely(no_dense_solving):
    # sl_2 acts trivially on the Euler line and equals its own derived algebra
    report = h1_report(2, SubspaceSpec([euler(2)], TruncationWindow(2, 0, 0, "strict")))
    assert (report.z1, report.b1) == (0, 0)
    assert DerivationSpec.from_ad(term(2, x1=2), L_basis(3)).skipped_pairs == ()
    assert HAND_PICKED.coords(euler(3)) == (1, 0, 0, 0)

