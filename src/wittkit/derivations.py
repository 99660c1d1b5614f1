"""Adjoint operators, centralizers, submodule closures, first cohomology of
truncated modules, and reconstruction of the inner element realizing a
derivation given on a generating set.

All computations reduce to exact rational linear algebra over the canonical
term basis of a truncation window.  Every bracket that enters a system (the
stacked rows, the module action, adjoint matrices, closure orbits) is
computed by ``fields.bracket_terms`` from the Witt algebra's integer
structure constants, as a term map with int coefficients wherever the
inputs are integral, and is read into sparse coordinates
``{basis position: coefficient}``; no system is assembled through the
generic ``VectorField.bracket``.  Every stacked system (centralizer, H^1
cocycles and coboundaries, inner reconstruction) is built as sparse
labelled rows and solved by ``linalg.solve_sparse``, which reduces the rows
one at a time into a sparse rref; since the reduced row echelon form is
unique, the answer is identical to the one-big-matrix computation, just
much cheaper, whatever the window or the generators.

The term x^a dj has torus weight a - e_j and brackets add weights, so when
every actor is a weight vector (all the standard families are) and the
search space is a full window, the centralizer and inner systems are
block-diagonal by column weight.  ``_weight_blocks`` splits them, and each
block is solved in its own ``RowSpace``: kernels merge by free column, and
the certificate is the least of the blocks' first unsolvable equations.  A
block on which a torus actor acts by a nonzero scalar has no kernel; with
the derived codomain it is never assembled, unless a prescribed value lands
in it.  Any other case (non-weight actors, a hand-picked basis, an explicit
codomain) is one block holding every column.  Coordinates over a
hand-picked basis and expansions over a generating set are read off
``linalg.SpanCoordinates``, a ``RowSpace`` too.  Results (kernel vectors,
particular solutions, H^1 bases) hold Fractions.

Strictness follows the ambient window's mode: with a ``strict`` window a
bracket or value that leaves the window raises ClosureViolation /
WindowViolation naming the offending term, while a ``project`` window drops
such terms (exploratory use only).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .fields import (
    L_basis,
    Term,
    TruncationWindow,
    VectorField,
    Weight,
    WindowViolation,
    bracket_terms,
    euler,
    exponent_terms,
    field_weights,
    format_term,
    sl_basis,
    term_weight,
    torus_coeffs,
)
from .linalg import RationalMatrix, RowSpace
from .poly import Monomial, Polynomial, Rational, grlex_key

TermMap = Mapping[Term, Rational]   # {(monomial, direction): coefficient}


class ClosureViolation(WindowViolation):
    """An action left the ambient space it was required to preserve."""


class DerivationSpecError(ValueError):
    """A DerivationSpec fails its construction invariants."""


def _term_key(term: Term) -> tuple:
    mono, direction = term
    return (mono.length(), direction, grlex_key(mono))


def _first_term(terms: Sequence[Term]) -> Term:
    """The term that ``VectorField.terms`` lists first: direction ascending,
    then descending graded-lex."""
    return min(terms, key=lambda t: (t[1], grlex_key(t[0])))


def _terms_of(w: VectorField) -> dict[Term, Fraction]:
    return {(mono, direction): coeff for mono, direction, coeff in w.terms()}


def _field_of(terms: TermMap) -> VectorField:
    return sum((VectorField.term(m, i, c) for (m, i), c in terms.items()), VectorField.zero())


def _inside(terms: TermMap, window: TruncationWindow) -> dict[Term, Rational]:
    """The terms that lie in the window (a ``project`` truncation)."""
    return {t: c for t, c in terms.items() if window.contains_term(*t)}


class SubspaceSpec:
    """A finite ordered basis of vector fields inside a truncation window.

    ``span_window`` builds the full window slice, whose basis is the
    canonical term basis; that case powers all the large computations and
    coordinates are read off directly.  A hand-picked basis is also
    accepted (it must be linearly independent and lie inside the window);
    coordinates are then read off ``linalg.SpanCoordinates`` over the
    window's term basis.
    """

    def __init__(self, basis: Sequence[VectorField], window: TruncationWindow):
        self.window = window
        self.basis = tuple(basis)
        for w in self.basis:
            for mono, direction, _ in w.terms():
                if not window.contains_term(mono, direction):
                    raise WindowViolation(
                        f"basis element term {format_term(mono, direction)} lies outside the window",
                        mono,
                        direction,
                    )
        self._terms = window.term_basis()
        self._index = index = {t: k for k, t in enumerate(self._terms)}
        self._full = False
        self._span = linalg.SpanCoordinates(
            [{index[t]: c for t, c in _terms_of(w).items()} for w in self.basis], len(index)
        )
        if not self._span.independent:
            raise ValueError("basis elements are linearly dependent")

    @staticmethod
    def span_window(window: TruncationWindow) -> SubspaceSpec:
        # the term basis lies in the window and is the full window by construction
        spec = SubspaceSpec.__new__(SubspaceSpec)
        spec.window = window
        spec._terms = window.term_basis()
        spec.basis = tuple(VectorField.term(mono, i) for mono, i in spec._terms)
        spec._index = {t: k for k, t in enumerate(spec._terms)}
        spec._full = True
        return spec

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_full_window(self) -> bool:
        return self._full

    def terms(self) -> list[Term]:
        return list(self._terms)

    def coords(self, w: VectorField) -> tuple[Fraction, ...]:
        """Coordinates of w in this basis; raises if w is not in the span."""
        [vec] = self.sparse_coords([_terms_of(w)])
        return tuple(Fraction(vec.get(r, 0)) for r in range(self.dim))

    def sparse_coords(self, images: Sequence[TermMap]) -> list[dict[int, Rational]]:
        """Coordinates {basis position: coefficient} of zero-free term maps,
        zeros dropped.  Raises WindowViolation naming the first term (in the
        order of ``VectorField.terms``) of the first image that leaves the
        window, then ClosureViolation for the first image outside the span."""
        index = self._index
        for image in images:
            outside = [t for t in image if t not in index]
            if outside:
                mono, direction = _first_term(outside)
                raise WindowViolation(
                    f"term {format_term(mono, direction)} lies outside the window",
                    mono,
                    direction,
                )
        if self._full:
            return [{index[t]: c for t, c in image.items()} for image in images]
        if not self.basis:
            for image in images:
                if image:
                    raise ClosureViolation(f"field is outside the (zero) span: {_field_of(image)!r}")
            return [{} for _ in images]
        out = []
        for image in images:
            vec = self._span.coords({index[t]: c for t, c in image.items()})
            if vec is None:
                raise ClosureViolation(f"field is outside the span of the basis: {_field_of(image)!r}")
            out.append(vec)
        return out

    def contains(self, w: VectorField) -> bool:
        try:
            self.coords(w)
        except WindowViolation:
            return False
        return True

    def field_from_coords(self, vec: Sequence[Fraction]) -> VectorField:
        if len(vec) != len(self.basis):
            raise ValueError(f"coordinate length {len(vec)} != dim {len(self.basis)}")
        return self._field({k: c for k, c in enumerate(vec) if c})

    def _field(self, coords: Mapping[int, Rational]) -> VectorField:
        """The combination of basis elements with sparse coordinates."""
        return sum((self.basis[k].scale(c) for k, c in sorted(coords.items())), VectorField.zero())

    def __repr__(self) -> str:
        kind = "window span" if self._full else f"{len(self.basis)}-dim subspace"
        return (
            f"SubspaceSpec({kind}, max_var={self.window.max_var}, "
            f"degrees {self.window.degree_min}..{self.window.degree_max})"
        )


# -- stacked action systems --------------------------------------------------


Label = tuple[int, Term]   # (generator index, codomain term) naming one equation


def _label_key(label: Label) -> tuple:
    return (label[0], _term_key(label[1]))


def _weight_blocks(
    actors: Sequence[VectorField],
    search: SubspaceSpec,
    derived: bool,
    values: Sequence[VectorField] = (),
) -> tuple[dict, Callable[[int, Term], Weight | None]]:
    """The search columns in blocks that no stacked row mixes, each in global
    column order, and the key naming the block of a row label.

    The blocks are the column weights when the codomain is the derived one
    (no image escapes it), the search space is a full window and every actor
    is a weight vector, of weight w_a: the row (a, t) only touches columns
    of weight wt(t) - w_a.  A torus actor c acts on block v by the scalar
    <c, v>; a block where some <c, v> is nonzero has no kernel, and unless a
    value term of some generator a has weight v + w_a it contributes
    nothing, so it is left out.  Otherwise one block, keyed None, holds every
    column, so that a strict codomain names the first escaping term in
    global column order.
    """
    weights = [field_weights(g) for g in actors]
    if not (derived and search.is_full_window and all(len(w) == 1 for w in weights)):
        return {None: range(search.dim)}, lambda a, term: None
    minus = [[(v, -e) for v, e in w.pop()] for w in weights]

    def key(a: int, term: Term) -> Weight:
        return term_weight(*term, minus[a])

    blocks: dict[Weight, list[int]] = {}
    for col, term in enumerate(search._terms):
        blocks.setdefault(term_weight(*term), []).append(col)
    torus = [c for c in map(torus_coeffs, actors) if c]
    landed = {key(a, (m, i)) for a, v in enumerate(values) for m, i, _ in v.terms()}
    kept = {
        nu: cols for nu, cols in blocks.items()
        if nu in landed or not any(sum(c.get(v, 0) * e for v, e in nu) for c in torus)
    }
    return kept, key


def _stacked_rows(
    gens: Sequence[VectorField],
    search: SubspaceSpec,
    codomain_window: TruncationWindow,
    cols: Sequence[int],
) -> dict[Label, dict[int, Rational]]:
    """Sparse rows of w -> ([g_1, w], ..., [g_k, w]) over the search basis
    positions ``cols``, taken in order, keyed by label; each row maps
    positions in ``cols`` to coefficients."""
    rows: dict[Label, dict[int, Rational]] = {}
    contains = codomain_window.contains_term
    gen_terms = [exponent_terms(g) for g in gens]
    for local, col in enumerate(cols):
        base_terms = exponent_terms(search.basis[col])
        for a, g in enumerate(gen_terms):
            outside = []
            for term, coeff in bracket_terms(g, base_terms).items():
                if contains(*term):
                    rows.setdefault((a, term), {})[local] = coeff
                else:
                    outside.append(term)
            if outside and codomain_window.mode == "strict":
                mono, direction = _first_term(outside)
                raise ClosureViolation(
                    f"bracket image term {format_term(mono, direction)} escapes "
                    f"the codomain window (max_var={codomain_window.max_var}, "
                    f"degrees {codomain_window.degree_min}..{codomain_window.degree_max})",
                    mono,
                    direction,
                )
    return rows


def _solve_stacked(
    gens: Sequence[VectorField],
    values: Sequence[VectorField],
    search: SubspaceSpec,
    codomain: TruncationWindow | None = None,
) -> tuple[tuple[VectorField, ...], VectorField, Label | None]:
    """Solve [g_a, w] = values[a] for w in span(search) (see ``solve_inner``)
    block by block: the canonical kernel, the canonical particular solution,
    and the label of the first unsolvable equation in (generator, term)
    order, or None."""
    window = codomain or _derived_codomain(gens, search)
    blocks, key = _weight_blocks(gens, search, codomain is None, values)
    systems = {nu: _stacked_rows(gens, search, window, cols) for nu, cols in blocks.items()}

    # right-hand side: coordinates of the prescribed values; a value no search
    # element reaches gets a row with no entries
    rhs: dict[Label, Fraction] = {}
    for a, value in enumerate(values):
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
            label = (a, (mono, direction))
            rhs[label] = coeff
            systems.setdefault(key(*label), {}).setdefault(label, {})

    # the blocks share no column: kernels merge by free column (the last
    # nonzero entry of a canonical kernel vector), and the first unsolvable
    # equation is the least of the blocks' first ones
    kernel, x, bad = [], {}, None
    for nu, rows in systems.items():
        cols = blocks.get(nu, ())
        labels = sorted(rows, key=_label_key)
        outcome = linalg.solve_sparse(
            [rows[lab] for lab in labels], len(cols), [rhs.get(lab, 0) for lab in labels]
        )
        for vec in outcome.kernel_basis:
            coords = {cols[k]: v for k, v in enumerate(vec) if v}
            kernel.append((max(coords), coords))
        if outcome.kind == "inconsistent":
            first = labels[outcome.bad_row]
            bad = first if bad is None else min(bad, first, key=_label_key)
        else:
            x.update((c, v) for c, v in zip(cols, outcome.particular) if v)
    return tuple(search._field(coords) for _, coords in sorted(kernel)), search._field(x), bad


def ad_matrix(w: VectorField, domain: SubspaceSpec, codomain: SubspaceSpec) -> RationalMatrix:
    """Matrix of x -> [x, w] from domain coordinates to codomain coordinates."""
    w_terms = exponent_terms(w)
    images = [bracket_terms(exponent_terms(b), w_terms) for b in domain.basis]
    if codomain.window.mode == "project":
        images = [_inside(im, codomain.window) for im in images]
    try:
        cols = codomain.sparse_coords(images)
    except WindowViolation as exc:
        raise ClosureViolation(
            f"adjoint image escapes the codomain: {exc}", exc.mono, exc.direction
        ) from exc
    return RationalMatrix.from_rows([[col.get(t, 0) for col in cols] for t in range(codomain.dim)])


def _action_columns(g: VectorField, module: SubspaceSpec) -> list[dict[int, Rational]]:
    """The module action m -> [g, m]: per module basis element, the nonzero
    module coordinates of its image."""
    g_terms = exponent_terms(g)
    images = [bracket_terms(g_terms, exponent_terms(b)) for b in module.basis]
    if module.window.mode == "project":
        images = [_inside(im, module.window) for im in images]
    try:
        return module.sparse_coords(images)
    except WindowViolation as exc:
        raise ClosureViolation(
            f"module action escapes the module: {exc}", exc.mono, exc.direction
        ) from exc


def centralizer(actors: Sequence[VectorField], ambient: SubspaceSpec) -> list[VectorField]:
    """Canonical basis of {w in span(ambient) : [s, w] = 0 for all actors s}.

    The vanishing conditions are imposed in full: constraint rows live in the
    smallest window containing every bracket of an actor with an ambient
    basis element, so returned elements commute with the actors exactly even
    when the actors shift degrees out of the ambient window.
    """
    return list(_solve_stacked(actors, (), ambient)[0])


def submodule_closure(v: VectorField, n: int, ambient: SubspaceSpec) -> list[VectorField]:
    """Basis of the smallest subspace of the ambient containing v and closed
    under bracketing with the special-linear generators in n variables."""
    gens = [exponent_terms(g) for g in sl_basis(n)]
    space = RowSpace(ambient.dim)
    space.add(ambient.sparse_coords([_terms_of(v)])[0])
    # the frontier holds the exponent terms of the images that grew the span
    frontier = [exponent_terms(v)]
    while frontier:
        new_frontier = []
        for g in gens:
            for f in frontier:
                image = bracket_terms(g, f)
                if ambient.window.mode == "project":
                    image = _inside(image, ambient.window)
                if not image:
                    continue
                try:
                    vec = ambient.sparse_coords([image])[0]
                except WindowViolation as exc:
                    raise ClosureViolation(
                        f"orbit of {v!r} escapes the ambient: {exc}", exc.mono, exc.direction
                    ) from exc
                if space.add(vec):
                    new_frontier.append(exponent_terms(image))
        frontier = new_frontier
    return [ambient.field_from_coords(row) for row in space.basis()]


@dataclass(frozen=True)
class H1Report:
    """Cocycle/coboundary dimension count for one module.

    ``cocycle_basis`` (stacked coordinates of c(g_1), ..., c(g_k) per vector)
    and ``coboundary_vectors`` are populated only when requested; they feed
    the containment rank test coboundaries-inside-cocycles.
    """

    n: int
    module_dim: int
    z1: int
    b1: int
    cocycle_basis: tuple[tuple[Fraction, ...], ...] = ()
    coboundary_vectors: tuple[tuple[Fraction, ...], ...] = ()

    @property
    def h1(self) -> int:
        return self.z1 - self.b1


def h1_dimension(n: int, module: SubspaceSpec) -> int:
    """dim of (1-cocycles modulo 1-coboundaries) for the special-linear
    algebra in n variables acting on the module by bracket."""
    return h1_report(n, module).h1


def h1_report(n: int, module: SubspaceSpec, include_bases: bool = False) -> H1Report:
    if n < 2:
        raise ValueError(f"h1_dimension requires n >= 2, got {n}")
    gens = sl_basis(n)
    G = len(gens)
    M = module.dim
    if M == 0:
        return H1Report(n, 0, 0, 0)

    # module action g.m = [g, m]: acts[k][t] holds the coordinates of g_k.m_t
    acts = [_action_columns(g, module) for g in gens]

    # expand pairwise brackets over the generator basis (structure constants)
    gen_span = SubspaceSpec(gens, TruncationWindow(max_var=n, degree_min=0, degree_max=0, mode="strict"))
    pairs = [(p, q) for p in range(G) for q in range(p + 1, G)]
    gen_terms = [exponent_terms(g) for g in gens]
    lambdas = gen_span.sparse_coords([bracket_terms(gen_terms[p], gen_terms[q]) for p, q in pairs])

    # cocycle condition: c([a,b]) - a.c(b) + b.c(a) = 0, unknowns c(g_k) stacked
    z_rows: list[dict[int, Rational]] = []
    for (p, q), lam in zip(pairs, lambdas):
        block: list[dict[int, Rational]] = [{} for _ in range(M)]
        for k, c in lam.items():
            for r in range(M):
                block[r][k * M + r] = c
        for t in range(M):
            for r, v in acts[p][t].items():
                block[r][q * M + t] = block[r].get(q * M + t, 0) - v
            for r, v in acts[q][t].items():
                block[r][p * M + t] = block[r].get(p * M + t, 0) + v
        z_rows.extend(block)
    cocycles = linalg.solve_sparse(z_rows, G * M).kernel_basis

    # coboundaries: w -> (g_k -> [g_k, w]), row k*M + r holding coordinate r of g_k.w
    b_rows: list[dict[int, Rational]] = [{} for _ in range(G * M)]
    for k in range(G):
        for t in range(M):
            for r, v in acts[k][t].items():
                b_rows[k * M + r][t] = v
    b1 = M - len(linalg.solve_sparse(b_rows, M).kernel_basis)
    if not include_bases:
        return H1Report(n, M, len(cocycles), b1)
    boundaries = tuple(
        tuple(Fraction(act[t].get(r, 0)) for act in acts for r in range(M)) for t in range(M)
    )
    return H1Report(n, M, len(cocycles), b1, cocycles, boundaries)


@dataclass(frozen=True)
class InnerObstruction:
    """Unsatisfiable coordinate in an inner-element reconstruction: the first
    equation, ordered by generator and then by term, at which the equations
    so far have no solution."""

    generator_index: int
    mono: Monomial
    direction: int

    def describe(self) -> str:
        return (
            f"coordinate {format_term(self.mono, self.direction)} of the image of "
            f"generator #{self.generator_index + 1} cannot be matched"
        )


@dataclass(frozen=True)
class InnerSolveResult:
    """Outcome of solving [g, w] = d(g) over a search subspace.

    kind is 'unique', 'underdetermined' (field is the canonical particular
    solution, kernel spans the ambiguity - the centralizer of the generators
    in the search space) or 'inconsistent' (certificate names the first
    unsolvable equation, field None).
    """

    kind: str
    field: VectorField | None
    kernel: tuple[VectorField, ...]
    certificate: InnerObstruction | None = None


class DerivationSpec:
    """Values of a would-be derivation on an ordered generating set.

    Construction validates the cocycle identity d[a,b] = [d a, b] + [a, d b]
    for every generator pair whose bracket re-expands inside the generator
    span; pairs that leave the span are skipped and listed in
    ``skipped_pairs``.
    """

    def __init__(self, generators: Sequence[VectorField], values: Sequence[VectorField]):
        if len(generators) != len(values):
            raise DerivationSpecError(
                f"{len(generators)} generators but {len(values)} values"
            )
        if not generators:
            raise DerivationSpecError("empty generating set")
        self.generators = tuple(generators)
        self.values = tuple(values)
        self.skipped_pairs = self._validate()

    @staticmethod
    def from_ad(w: VectorField, generators: Sequence[VectorField]) -> DerivationSpec:
        """The restriction of the adjoint operator x -> [x, w] to the generators."""
        return DerivationSpec(generators, [g.bracket(w) for g in generators])

    def _validate(self) -> tuple[tuple[int, int], ...]:
        gens = self.generators
        gen_maps = [_terms_of(g) for g in gens]
        index = {t: k for k, t in enumerate(dict.fromkeys(t for m in gen_maps for t in m))}
        span = linalg.SpanCoordinates([{index[t]: c for t, c in m.items()} for m in gen_maps], len(index))
        if not span.independent:
            raise DerivationSpecError("generators are linearly dependent")

        gen_terms = [exponent_terms(g) for g in gens]
        value_terms = [exponent_terms(v) for v in self.values]
        value_maps = [_terms_of(v) for v in self.values]
        skipped = []
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                bracket_ab = bracket_terms(gen_terms[a], gen_terms[b])
                # no expansion when the bracket leaves the generators' terms or their span
                lam = None
                if all(t in index for t in bracket_ab):
                    lam = span.coords({index[t]: c for t, c in bracket_ab.items()})
                if lam is None:
                    skipped.append((a, b))
                    continue
                expected = _combine((c, value_maps[k]) for k, c in lam.items())
                actual = _combine([
                    (1, bracket_terms(value_terms[a], gen_terms[b])),
                    (1, bracket_terms(gen_terms[a], value_terms[b])),
                ])
                if expected != actual:
                    raise DerivationSpecError(
                        f"cocycle identity fails on generator pair ({a + 1}, {b + 1})"
                    )
        return tuple(skipped)


def _combine(scaled: Iterable[tuple[Rational, TermMap]]) -> dict[Term, Rational]:
    """The term map of sum c * terms, zeros dropped."""
    out: dict[Term, Rational] = {}
    for c, terms in scaled:
        for t, v in terms.items():
            out[t] = out.get(t, 0) + c * v
    return {t: v for t, v in out.items() if v}


def _derived_codomain(gens: Sequence[VectorField], search: SubspaceSpec) -> TruncationWindow:
    max_var = search.window.max_var
    deg_lo = 0
    deg_hi = 0
    for g in gens:
        max_var = max(max_var, g.max_index())
        comps = g.degree_components()
        if comps:
            deg_lo = min(deg_lo, min(comps))
            deg_hi = max(deg_hi, max(comps))
    return TruncationWindow(
        max_var=max_var,
        degree_min=max(-1, search.window.degree_min + deg_lo),
        degree_max=search.window.degree_max + deg_hi,
        mode="strict",
    )


def solve_inner(
    spec: DerivationSpec,
    search: SubspaceSpec,
    codomain: TruncationWindow | None = None,
) -> InnerSolveResult:
    """Solve [g, w] = d(g) for w in span(search), all generators at once.

    The codomain window (defaulting to the smallest window guaranteed to
    contain every bracket of a generator with a search basis element) hosts
    the equations; a strict codomain raises when an image or a value leaves
    it.  The kernel of the system is exactly the centralizer of the
    generators inside the search space.
    """
    kernel, field, bad = _solve_stacked(spec.generators, spec.values, search, codomain)
    if bad is not None:
        a, (mono, direction) = bad
        return InnerSolveResult("inconsistent", None, kernel, InnerObstruction(a, mono, direction))
    return InnerSolveResult("underdetermined" if kernel else "unique", field, kernel)


def verify_bracket_identities(w: VectorField, i: int, j: int) -> bool:
    """Check the three closed bracket formulas for [w, x_j di], its di-component,
    and [w, x_i di - x_j dj] against the generic bracket."""
    if i == j:
        raise ValueError("indices must differ")
    xi = VectorField.term(Monomial.var(i), i)
    xj_di = VectorField.term(Monomial.var(j), i)
    xj = VectorField.term(Monomial.var(j), j)
    x_i = Polynomial.variable(i)
    x_j = Polynomial.variable(j)

    lhs2 = w.bracket(xj_di)
    rhs2 = VectorField({i: w.component(j)})
    for l, f_l in w.components():
        rhs2 = rhs2 - VectorField({l: x_j * f_l.partial(i)})
    if lhs2 != rhs2:
        return False

    comp3 = w.component(j) - x_j * w.component(i).partial(i)
    if lhs2.component(i) != comp3:
        return False

    lhs4 = w.bracket(xi - xj)
    rhs4 = VectorField({i: w.component(i)}) - VectorField({j: w.component(j)})
    for l, f_l in w.components():
        rhs4 = rhs4 + VectorField({l: x_j * f_l.partial(j) - x_i * f_l.partial(i)})
    return lhs4 == rhs4


class ScanError(Exception):
    """A scanned task failed; carries the parameter value where it happened."""

    def __init__(self, n: int, message: str):
        super().__init__(f"at n={n}: {message}")
        self.n = n


@dataclass(frozen=True)
class StabilizationReport:
    """Coefficient trajectories of normalized per-n solutions.

    A coefficient counts as stabilized when its trajectory is constant over a
    suffix reaching the end of the range and containing at least the last two
    scan points.  ``limit`` is assembled from the final values when every
    tracked coefficient stabilized.  For the centralizer task ``dims`` tracks
    the per-n dimension; coefficient trajectories are recorded only when the
    dimension stays at most 1 across the whole range.
    """

    task: str
    n_values: tuple[int, ...]
    dims: tuple[int, ...]
    trajectories: dict[Term, tuple[Fraction, ...]]
    stabilized: dict[Term, bool]
    first_stable_n: dict[Term, int | None]
    limit: VectorField | None
    all_stabilized: bool


def stabilization_scan(
    task: str,
    n_values: Sequence[int],
    *,
    generators: str = "L",
    from_field: VectorField | None = None,
    degree_min: int = -1,
    degree_max: int = 2,
    max_var_offset: int = 1,
    mode: str = "strict",
) -> StabilizationReport:
    """Run a task for each n in ascending order, normalize each solution the
    same way (zero the x1 d1 coefficient by subtracting a multiple of the
    grading field whenever that field lies in the solution's ambiguity
    space), and report per-coefficient trajectories."""
    task = task.replace("_", "-")
    if task not in ("centralizer", "solve-inner"):
        raise ValueError(f"unknown scan task {task!r}")
    if generators not in ("sl", "L"):
        raise ValueError(f"unknown generator family {generators!r}")
    ns = list(n_values)
    if not ns:
        raise ValueError("empty n range")
    if any(b <= a for a, b in zip(ns, ns[1:])) or any(n < 1 for n in ns):
        raise ValueError("n range must be ascending positive integers")
    if task == "solve-inner" and from_field is None:
        raise ValueError("solve-inner scans need the reference field (from_field)")

    per_n_fields: list[VectorField | None] = []
    dims: list[int] = []
    for n in ns:
        if generators == "sl" and n < 2:
            raise ScanError(n, "sl generators need n >= 2")
        gens = sl_basis(n) if generators == "sl" else L_basis(n)
        window = TruncationWindow(
            max_var=n + max_var_offset,
            degree_min=degree_min,
            degree_max=degree_max,
            mode=mode,
        )
        space = SubspaceSpec.span_window(window)
        try:
            if task == "solve-inner":
                spec = DerivationSpec.from_ad(from_field, gens)
                result = solve_inner(spec, space)
                if result.kind == "inconsistent":
                    raise ScanError(
                        n, f"inner reconstruction inconsistent: {result.certificate.describe()}"
                    )
                dims.append(len(result.kernel))
                per_n_fields.append(_normalize(result.field, list(result.kernel), n, space))
            else:
                basis = centralizer(gens, space)
                dims.append(len(basis))
                if len(basis) > 1:
                    per_n_fields.append(None)
                else:
                    rep = basis[0] if basis else VectorField.zero()
                    per_n_fields.append(_normalize(rep, basis, n, space))
        except WindowViolation as exc:
            raise ScanError(n, str(exc)) from exc

    trackable = all(f is not None for f in per_n_fields)
    trajectories: dict[Term, tuple[Fraction, ...]] = {}
    stabilized: dict[Term, bool] = {}
    first_stable: dict[Term, int | None] = {}
    if trackable:
        term_universe = sorted(
            {(m, i) for f in per_n_fields for m, i, _ in f.terms()}, key=_term_key
        )
        for term in term_universe:
            mono, direction = term
            traj = tuple(f.coeff(mono, direction) for f in per_n_fields)
            idx = len(traj) - 1
            while idx > 0 and traj[idx - 1] == traj[idx]:
                idx -= 1
            trajectories[term] = traj
            first_stable[term] = ns[idx]
            stabilized[term] = len(ns) == 1 or idx <= len(ns) - 2

    all_stab = trackable and all(stabilized.values())
    limit = None
    if all_stab:
        limit = VectorField.zero()
        for term, traj in trajectories.items():
            if traj[-1]:
                limit = limit + VectorField.term(term[0], term[1], traj[-1])
    return StabilizationReport(
        task=task,
        n_values=tuple(ns),
        dims=tuple(dims),
        trajectories=trajectories,
        stabilized=stabilized,
        first_stable_n=first_stable,
        limit=limit,
        all_stabilized=all_stab,
    )


def _normalize(
    field: VectorField, ambiguity: list[VectorField], n: int, space: SubspaceSpec
) -> VectorField:
    """Zero the x1 d1 coefficient by an Euler-field shift when that shift
    stays within the solution's ambiguity space."""
    coeff = field.coeff(Monomial.var(1), 1)
    if not coeff:
        return field
    e = euler(n)
    try:
        *kernel, target = space.sparse_coords([_terms_of(w) for w in (*ambiguity, e)])
    except WindowViolation:
        return field
    rs = RowSpace(space.dim)
    for vec in kernel:
        rs.add(vec)
    if rs.contains(target):
        return field - e.scale(coeff)
    return field
