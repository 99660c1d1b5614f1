"""Exact symbolic toolkit for Lie algebras of polynomial vector fields.

Core layers:

  poly         exact sparse polynomials over the rationals
  fields       vector fields, the Lie bracket (generic, and term by term
               from the integer structure constants), gradings,
               truncation windows, and the standard generator families
  linalg       exact rational linear algebra: one incremental sparse
               rref (``RowSpace``) that solves every system; the dense
               rref, rank, kernel and solve are readouts of it
  derivations  centralizers, submodule closures, first cohomology of
               truncated modules, inner-element reconstruction,
               stabilization scans
  textio       the field grammar, canonical printing, JSON serialization
  cli          the ``wittkit`` command-line driver
"""

from .derivations import (
    DerivationSpec,
    DerivationSpecError,
    H1Report,
    InnerObstruction,
    InnerSolveResult,
    ScanError,
    StabilizationReport,
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
from .fields import (
    HomogeneousField,
    L_basis,
    TruncationWindow,
    VectorField,
    WindowViolation,
    apply_field,
    bracket,
    euler,
    gl_basis,
    sl_basis,
    truncate,
)
from .linalg import RationalMatrix, RowSpace, SolveOutcome, active_engine
from .poly import Monomial, Polynomial
from .textio import ParseError, SchemaError, parse_field, parse_poly, print_field, print_poly

__version__ = "0.1.0"

__all__ = [
    "DerivationSpec",
    "DerivationSpecError",
    "H1Report",
    "HomogeneousField",
    "InnerObstruction",
    "InnerSolveResult",
    "L_basis",
    "Monomial",
    "ParseError",
    "Polynomial",
    "RationalMatrix",
    "RowSpace",
    "ScanError",
    "SchemaError",
    "SolveOutcome",
    "StabilizationReport",
    "SubspaceSpec",
    "TruncationWindow",
    "VectorField",
    "WindowViolation",
    "active_engine",
    "ad_matrix",
    "apply_field",
    "bracket",
    "centralizer",
    "euler",
    "gl_basis",
    "h1_dimension",
    "h1_report",
    "parse_field",
    "parse_poly",
    "print_field",
    "print_poly",
    "sl_basis",
    "solve_inner",
    "stabilization_scan",
    "submodule_closure",
    "truncate",
    "verify_bracket_identities",
]
