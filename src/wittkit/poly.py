"""Exact sparse multivariate polynomial arithmetic over the rationals.

Variables are indexed 1, 2, 3, ... with no upper bound and no global
registry; a polynomial's variable set is implicit in its terms.

  Monomial    -- sorted tuple of (variable index, exponent) pairs, all
                 exponents >= 1.  The empty tuple is the unit monomial.
  Polynomial  -- dict {Monomial: Fraction}, no zero coefficients stored.
                 The zero polynomial is the empty dict.

All values are immutable after construction and all operations are pure,
so they are safe to share across threads.

The canonical term order used for printing and hashing is graded
lexicographic: higher total degree first, ties broken by comparing
exponent vectors variable-by-variable in increasing index order with the
larger exponent on the earlier variable winning (x1 > x2 > ...).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from collections.abc import Iterable, Iterator, Mapping

Rational = Fraction | int


class Monomial:
    """A power product x_{i1}^{e1} * ... * x_{ik}^{ek} with 1-based indices."""

    __slots__ = ("_pairs",)

    def __init__(self, exponents: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        pairs = []
        for var, exp in sorted(items):
            if var < 1:
                raise ValueError(f"variable index must be >= 1, got {var}")
            if exp < 0:
                raise ValueError(f"exponent must be >= 0, got {exp} for x{var}")
            if exp == 0:
                continue
            if pairs and pairs[-1][0] == var:
                raise ValueError(f"duplicate variable index {var}")
            pairs.append((var, exp))
        self._pairs = tuple(pairs)

    @staticmethod
    def unit() -> Monomial:
        return _UNIT

    @staticmethod
    def var(index: int, exponent: int = 1) -> Monomial:
        return Monomial(((index, exponent),))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def length(self) -> int:
        """Total degree: the number of letters in the word."""
        return sum(e for _, e in self._pairs)

    def var_degree(self, index: int) -> int:
        """Exponent of x_index, zero when absent."""
        for var, exp in self._pairs:
            if var == index:
                return exp
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(var for var, _ in self._pairs)

    def max_var(self) -> int:
        """Largest variable index occurring, 0 for the unit monomial."""
        return self._pairs[-1][0] if self._pairs else 0

    def mul(self, other: Monomial) -> Monomial:
        exps = dict(self._pairs)
        for var, exp in other._pairs:
            exps[var] = exps.get(var, 0) + exp
        return Monomial(exps)

    def divide_var(self, index: int) -> tuple[int, Monomial]:
        """Return (e, m / x_index) where e = var_degree(index); e may be 0."""
        exps = dict(self._pairs)
        e = exps.get(index, 0)
        if e:
            if e == 1:
                del exps[index]
            else:
                exps[index] = e - 1
        return e, Monomial(exps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self)!r})"


_UNIT = Monomial()


def monomial_from_pairs(pairs: tuple[tuple[int, int], ...]) -> Monomial:
    """Trusted constructor: ``pairs`` must already be canonical (ascending
    variable indices >= 1, exponents >= 1); nothing is checked."""
    m = Monomial.__new__(Monomial)
    m._pairs = pairs
    return m


def grlex_key(m: Monomial) -> tuple:
    """Sort key under which ascending order is descending graded-lex order."""
    return (-m.length(), tuple((var, -exp) for var, exp in m.pairs))


def format_monomial(m: Monomial) -> str:
    """Render as e.g. 'x1^2*x3'; the unit monomial renders as '1'."""
    if not m.pairs:
        return "1"
    return "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in m.pairs)


def monomials_of_length(length: int, max_var: int) -> Iterator[Monomial]:
    """All monomials of exactly the given total degree in variables 1..max_var,
    in ascending lexicographic order of the variable multiset."""
    if length < 0 or max_var < 1:
        return
    for combo in combinations_with_replacement(range(1, max_var + 1), length):
        exps: dict[int, int] = {}
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        yield Monomial(exps)


class Polynomial:
    """Finite rational-coefficient combination of monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | Iterable[tuple[Monomial, Rational]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            c = acc.get(mono, _ZERO_FRAC) + Fraction(coeff)
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        self._terms = acc

    @staticmethod
    def zero() -> Polynomial:
        return _ZERO_POLY

    @staticmethod
    def one() -> Polynomial:
        return _ONE_POLY

    @staticmethod
    def constant(c: Rational) -> Polynomial:
        return Polynomial({Monomial.unit(): c})

    @staticmethod
    def variable(index: int) -> Polynomial:
        return Polynomial({Monomial.var(index): 1})

    @staticmethod
    def term(mono: Monomial, coeff: Rational = 1) -> Polynomial:
        return Polynomial({mono: coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, _ZERO_FRAC)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in canonical (descending graded-lex) order."""
        for mono in sorted(self._terms, key=grlex_key):
            yield mono, self._terms[mono]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = acc.get(mono, _ZERO_FRAC) + coeff
            if c:
                acc[mono] = c
            else:
                del acc[mono]
        return _wrap(acc)

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = acc.get(mono, _ZERO_FRAC) - coeff
            if c:
                acc[mono] = c
            else:
                del acc[mono]
        return _wrap(acc)

    def __neg__(self) -> Polynomial:
        return _wrap({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: Polynomial | Rational) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1.mul(m2)
                c = acc.get(mono, _ZERO_FRAC) + c1 * c2
                if c:
                    acc[mono] = c
                else:
                    del acc[mono]
        return _wrap(acc)

    def __rmul__(self, other: Rational) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Rational) -> Polynomial:
        c = Fraction(c)
        if not c:
            return _ZERO_POLY
        return _wrap({m: coeff * c for m, coeff in self._terms.items()})

    def partial(self, index: int) -> Polynomial:
        """Formal partial derivative with respect to x_index."""
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            e, reduced = mono.divide_var(index)
            if e:
                c = acc.get(reduced, _ZERO_FRAC) + coeff * e
                if c:
                    acc[reduced] = c
                else:
                    del acc[reduced]
        return _wrap(acc)

    def support_vars(self) -> frozenset[int]:
        """Set of variable indices occurring with nonzero exponent."""
        out: set[int] = set()
        for mono in self._terms:
            out.update(mono.support())
        return frozenset(out)

    def max_var(self) -> int:
        return max((m.max_var() for m in self._terms), default=0)

    def max_length(self) -> int:
        """Largest total degree among terms, -1 for the zero polynomial."""
        return max((m.length() for m in self._terms), default=-1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


def _wrap(terms: dict[Monomial, Fraction]) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    return p


_ZERO_FRAC = Fraction(0)
_ZERO_POLY = Polynomial()
_ONE_POLY = Polynomial({Monomial.unit(): 1})


def format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_polynomial(p: Polynomial) -> str:
    """Canonical rendering, terms in descending graded-lex order."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for mono, coeff in p.terms():
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if not mono.pairs:
            body = format_coeff(mag)
        elif mag == 1:
            body = format_monomial(mono)
        else:
            body = f"{format_coeff(mag)}*{format_monomial(mono)}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)
