"""Polynomial vector fields with finitely many components and their Lie bracket.

A vector field is a finite sum  w = f_1 d1 + f_2 d2 + ...  where ``di``
denotes the partial-derivative direction d/dx_i and each f_i is an exact
rational polynomial.  Represented as  {direction index: Polynomial}  with
no zero components stored; the zero field is the empty map.

The bracket of u = sum_i h_i di and w = sum_j f_j dj is

    [u, w] = sum_{i,j} h_i (df_j/dx_i) dj  -  sum_{i,j} f_j (dh_i/dx_j) di,

which agrees with the commutator of the two derivations acting on
polynomials (see ``VectorField.apply_to``, the independent oracle).

On basis terms the bracket has integer structure constants,

    [x^a di, x^b dj] = b_i x^(a+b-e_i) dj  -  a_j x^(a+b-e_j) di,

and ``bracket_terms`` computes brackets term by term from this formula on
exponent maps, with int coefficients wherever the inputs are integral.  The
linear systems of ``derivations`` are assembled from it;
``VectorField.bracket`` stays the generic polynomial computation and is
the oracle it is tested against.

A term  m di  is graded by  deg = length(m) - 1, so directions d1, d2, ...
have degree -1 and the grading is a Lie grading: brackets add degrees.

Truncation windows give finite-dimensional slices (variables and
directions bounded by ``max_var``, degree within [degree_min, degree_max])
used by the linear-algebra layers.  ``strict`` windows refuse terms outside
the slice; ``project`` windows drop them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable, Iterator, Mapping

from .poly import (
    Monomial,
    Polynomial,
    Rational,
    format_monomial,
    grlex_key,
    monomial_from_pairs,
    monomials_of_length,
)

Term = tuple[Monomial, int]   # the basis term m d<direction>


def format_term(mono: Monomial, direction: int) -> str:
    """Grammar-form rendering of the basis term m d<i>, e.g. 'x1^2*x2 d3'."""
    if not mono.pairs:
        return f"d{direction}"
    return f"{format_monomial(mono)} d{direction}"


class WindowViolation(Exception):
    """A term fell outside a strict truncation window."""

    def __init__(self, message: str, mono: Monomial | None = None, direction: int | None = None):
        super().__init__(message)
        self.mono = mono
        self.direction = direction


class VectorField:
    """Finite map direction index -> nonzero Polynomial component."""

    __slots__ = ("_comp",)

    def __init__(self, components: Mapping[int, Polynomial] | Iterable[tuple[int, Polynomial]] = ()):
        items = components.items() if isinstance(components, Mapping) else components
        acc: dict[int, Polynomial] = {}
        for direction, f in items:
            if direction < 1:
                raise ValueError(f"direction index must be >= 1, got {direction}")
            if not isinstance(f, Polynomial):
                raise TypeError(f"component for d{direction} must be a Polynomial")
            if f.is_zero():
                continue
            if direction in acc:
                f = acc[direction] + f
                if f.is_zero():
                    del acc[direction]
                    continue
            acc[direction] = f
        self._comp = acc

    @staticmethod
    def zero() -> VectorField:
        return _ZERO_FIELD

    @staticmethod
    def term(mono: Monomial, direction: int, coeff: Rational = 1) -> VectorField:
        """The single-term field coeff * m d<direction>."""
        return VectorField({direction: Polynomial.term(mono, coeff)})

    @staticmethod
    def direction(index: int) -> VectorField:
        """The coordinate field d<index>."""
        return VectorField({index: Polynomial.one()})

    def is_zero(self) -> bool:
        return not self._comp

    def component(self, direction: int) -> Polynomial:
        return self._comp.get(direction, Polynomial.zero())

    def components(self) -> Iterator[tuple[int, Polynomial]]:
        """Components in ascending direction order."""
        for direction in sorted(self._comp):
            yield direction, self._comp[direction]

    def directions(self) -> tuple[int, ...]:
        return tuple(sorted(self._comp))

    def terms(self) -> Iterator[tuple[Monomial, int, Fraction]]:
        """All terms (monomial, direction, coeff) in canonical order."""
        for direction, f in self.components():
            for mono, coeff in f.terms():
                yield mono, direction, coeff

    def term_count(self) -> int:
        return sum(len(f) for f in self._comp.values())

    def coeff(self, mono: Monomial, direction: int) -> Fraction:
        return self.component(direction).coeff(mono)

    def max_variable(self) -> int:
        """Largest variable index in any coefficient (0 if none)."""
        return max((f.max_var() for f in self._comp.values()), default=0)

    def max_direction(self) -> int:
        return max(self._comp, default=0)

    def max_index(self) -> int:
        """Largest variable or direction index occurring."""
        return max(self.max_variable(), self.max_direction())

    def __add__(self, other: VectorField) -> VectorField:
        if not isinstance(other, VectorField):
            return NotImplemented
        acc = dict(self._comp)
        for direction, f in other._comp.items():
            g = acc.get(direction)
            s = f if g is None else g + f
            if s.is_zero():
                acc.pop(direction, None)
            else:
                acc[direction] = s
        return _wrap(acc)

    def __sub__(self, other: VectorField) -> VectorField:
        return self + (-other)

    def __neg__(self) -> VectorField:
        return _wrap({i: -f for i, f in self._comp.items()})

    def __mul__(self, c: Rational) -> VectorField:
        return self.scale(c)

    def __rmul__(self, c: Rational) -> VectorField:
        return self.scale(c)

    def scale(self, c: Rational) -> VectorField:
        c = Fraction(c)
        if not c:
            return _ZERO_FIELD
        return _wrap({i: f.scale(c) for i, f in self._comp.items()})

    def mul_poly(self, p: Polynomial) -> VectorField:
        """Multiply every component by the polynomial p."""
        if p.is_zero():
            return _ZERO_FIELD
        return VectorField({i: f * p for i, f in self._comp.items()})

    def apply_to(self, p: Polynomial) -> Polynomial:
        """Act as a derivation on a polynomial: sum_i f_i * dp/dx_i."""
        out = Polynomial.zero()
        for i, f in self._comp.items():
            dp = p.partial(i)
            if dp:
                out = out + f * dp
        return out

    def bracket(self, other: VectorField) -> VectorField:
        """The Lie bracket [self, other]."""
        acc: dict[int, Polynomial] = {}

        def add(direction: int, p: Polynomial) -> None:
            g = acc.get(direction)
            s = p if g is None else g + p
            if s.is_zero():
                acc.pop(direction, None)
            else:
                acc[direction] = s

        for i, h in self._comp.items():
            for j, f in other._comp.items():
                df = f.partial(i)
                if df:
                    add(j, h * df)
                dh = h.partial(j)
                if dh:
                    add(i, -(f * dh))
        return _wrap(acc)

    def degree_components(self) -> dict[int, HomogeneousField]:
        """Split into homogeneous pieces; summing them recovers the field."""
        buckets: dict[int, dict[int, list[tuple[Monomial, Fraction]]]] = {}
        for direction, f in self._comp.items():
            for mono, coeff in f.terms():
                deg = mono.length() - 1
                buckets.setdefault(deg, {}).setdefault(direction, []).append((mono, coeff))
        out: dict[int, HomogeneousField] = {}
        for deg in sorted(buckets):
            comp = {i: Polynomial(terms) for i, terms in buckets[deg].items()}
            out[deg] = HomogeneousField(VectorField(comp), deg)
        return out

    def is_homogeneous(self) -> bool:
        degs = {mono.length() - 1 for mono, _, _ in self.terms()}
        return len(degs) <= 1

    def degree(self) -> int | None:
        """Degree of a homogeneous field, None for zero or mixed fields."""
        degs = {mono.length() - 1 for mono, _, _ in self.terms()}
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorField) and self._comp == other._comp

    def __hash__(self) -> int:
        return hash(frozenset(self._comp.items()))

    def __repr__(self) -> str:
        body = " + ".join(f"({f!r:.40}) d{i}" for i, f in self.components()) or "0"
        return f"VectorField<{body}>"


def _wrap(comp: dict[int, Polynomial]) -> VectorField:
    w = VectorField.__new__(VectorField)
    w._comp = comp
    return w


_ZERO_FIELD = VectorField()


@dataclass(frozen=True)
class HomogeneousField:
    """A vector field all of whose terms m di satisfy length(m) - 1 == degree."""

    field: VectorField
    degree: int


def bracket(u: VectorField, w: VectorField) -> VectorField:
    return u.bracket(w)


def apply_field(w: VectorField, p: Polynomial) -> Polynomial:
    return w.apply_to(p)


ExponentTerms = list[tuple[dict[int, int], int, Rational]]


def exponent_terms(x: VectorField | Mapping[Term, Rational]) -> ExponentTerms:
    """(exponent map, direction, coefficient) per term of a field or of a
    term map {(monomial, direction): coefficient}; integral coefficients
    become ints."""
    items = x.terms() if isinstance(x, VectorField) else ((m, i, c) for (m, i), c in x.items())
    return [(dict(m.pairs), i, c.numerator if c.denominator == 1 else c) for m, i, c in items]


def bracket_terms(u: ExponentTerms, w: ExponentTerms) -> dict[Term, Rational]:
    """The bracket [u, w] of two fields given by ``exponent_terms``, as
    {(monomial, direction): coefficient} with zeros dropped, summed term by
    term from the structure constants
    [x^a di, x^b dj] = b_i x^(a+b-e_i) dj - a_j x^(a+b-e_j) di.

    Integral coefficients are ints, the others Fractions; the terms equal
    those of ``VectorField.bracket``.
    """
    acc: dict[tuple[tuple[tuple[int, int], ...], int], Rational] = {}
    for a, i, ca in u:
        for b, j, cb in w:
            bi = b.get(i)
            aj = a.get(j)
            if not (bi or aj):
                continue
            ab = a.copy()
            for v, e in b.items():
                ab[v] = ab.get(v, 0) + e
            c = ca * cb
            if bi:
                key = (_lowered(ab, i), j)
                acc[key] = acc.get(key, 0) + c * bi
            if aj:
                key = (_lowered(ab, j), i)
                acc[key] = acc.get(key, 0) - c * aj
    out: dict[Term, Rational] = {}
    for (pairs, direction), c in acc.items():
        if c:
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            out[(monomial_from_pairs(pairs), direction)] = c
    return out


Weight = tuple[tuple[int, int], ...]   # sorted nonzero (variable, entry) pairs


def term_weight(mono: Monomial, direction: int, shift: Iterable[tuple[int, int]] = ()) -> Weight:
    """The torus weight a - e_j of the term x^a dj, plus ``shift``.  The
    diagonal fields act by [x_i di, x^a dj] = (a_i - [i = j]) x^a dj, and
    brackets add weights."""
    w = dict(mono.pairs)
    w[direction] = w.get(direction, 0) - 1
    for v, e in shift:
        w[v] = w.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in w.items() if e))


def field_weights(w: VectorField) -> set[Weight]:
    """The weights of w's terms: one exactly when w is a weight vector."""
    return {term_weight(m, i) for m, i, _ in w.terms()}


def torus_coeffs(w: VectorField) -> dict[int, Rational] | None:
    """{i: c_i} when w = sum c_i x_i di lies in the torus, else None; w then
    acts on the terms of weight v by the scalar sum c_i v_i.  Integral
    coefficients become ints."""
    out = {}
    for m, i, c in w.terms():
        if m.pairs != ((i, 1),):
            return None
        out[i] = c.numerator if c.denominator == 1 else c
    return out


def _lowered(exps: dict[int, int], var: int) -> tuple[tuple[int, int], ...]:
    """Canonical pairs of x^exps / x_var (x_var divides x^exps)."""
    out = exps.copy()
    if out[var] == 1:
        del out[var]
    else:
        out[var] -= 1
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class TruncationWindow:
    """Finite slice: variables/directions <= max_var, degree in [degree_min, degree_max]."""

    max_var: int
    degree_min: int = -1
    degree_max: int = -1
    mode: str = "project"

    def __post_init__(self):
        if self.max_var < 1:
            raise ValueError(f"max_var must be >= 1, got {self.max_var}")
        if self.degree_min < -1:
            raise ValueError(f"degree_min must be >= -1, got {self.degree_min}")
        if self.degree_min > self.degree_max:
            raise ValueError(f"degree_min {self.degree_min} exceeds degree_max {self.degree_max}")
        if self.mode not in ("strict", "project"):
            raise ValueError(f"mode must be 'strict' or 'project', got {self.mode!r}")

    def contains_term(self, mono: Monomial, direction: int) -> bool:
        if direction > self.max_var or mono.max_var() > self.max_var:
            return False
        return self.degree_min <= mono.length() - 1 <= self.degree_max

    def contains_field(self, w: VectorField) -> bool:
        return all(self.contains_term(m, i) for m, i, _ in w.terms())

    def term_basis(self) -> list[tuple[Monomial, int]]:
        """Canonical ordered basis of the slice: by degree, then direction,
        then descending graded-lex monomial order."""
        out: list[tuple[Monomial, int]] = []
        for deg in range(self.degree_min, self.degree_max + 1):
            monos = sorted(monomials_of_length(deg + 1, self.max_var), key=grlex_key)
            for direction in range(1, self.max_var + 1):
                for mono in monos:
                    out.append((mono, direction))
        return out

    def dimension(self) -> int:
        per_degree = sum(
            _n_monomials(deg + 1, self.max_var) for deg in range(self.degree_min, self.degree_max + 1)
        )
        return per_degree * self.max_var


def _n_monomials(length: int, max_var: int) -> int:
    if length < 0:
        return 0
    return math.comb(length + max_var - 1, max_var - 1)


def truncate(w: VectorField, window: TruncationWindow) -> VectorField:
    """Restrict w to the window; in strict mode an out-of-window term raises."""
    kept: list[tuple[int, Polynomial]] = []
    for direction, f in w.components():
        terms = []
        for mono, coeff in f.terms():
            if window.contains_term(mono, direction):
                terms.append((mono, coeff))
            elif window.mode == "strict":
                raise WindowViolation(
                    f"term {format_term(mono, direction)} is outside the window "
                    f"(max_var={window.max_var}, degrees {window.degree_min}..{window.degree_max})",
                    mono,
                    direction,
                )
        if terms:
            kept.append((direction, Polynomial(terms)))
    return VectorField(kept)


# -- standard bases ----------------------------------------------------------
#
# Fixed, documented orders so every downstream matrix is reproducible:
#   sl_basis(n): x_i dj for i != j in ascending (i, j) order, then the
#                n-1 diagonal differences x_i di - x_{i+1} d{i+1}.
#   gl_basis(n): x_i dj for all i, j <= n in ascending (i, j) order.
#   L_basis(n):  d1, ..., dn followed by gl_basis(n).


def sl_basis(n: int) -> list[VectorField]:
    """Basis of the special-linear subalgebra in n variables (n^2 - 1 fields)."""
    if n < 2:
        raise ValueError(f"sl_basis requires n >= 2, got {n}")
    out = [
        VectorField.term(Monomial.var(i), j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    for i in range(1, n):
        out.append(
            VectorField.term(Monomial.var(i), i) - VectorField.term(Monomial.var(i + 1), i + 1)
        )
    return out


def gl_basis(n: int) -> list[VectorField]:
    """All x_i dj with i, j <= n (n^2 fields)."""
    if n < 1:
        raise ValueError(f"gl_basis requires n >= 1, got {n}")
    return [
        VectorField.term(Monomial.var(i), j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]


def L_basis(n: int) -> list[VectorField]:
    """d1..dn followed by gl_basis(n): constant directions plus linear fields."""
    if n < 1:
        raise ValueError(f"L_basis requires n >= 1, got {n}")
    return [VectorField.direction(i) for i in range(1, n + 1)] + gl_basis(n)


def euler(n: int) -> VectorField:
    """The grading field x1 d1 + ... + xn dn."""
    if n < 1:
        raise ValueError(f"euler requires n >= 1, got {n}")
    return VectorField({i: Polynomial.variable(i) for i in range(1, n + 1)})
