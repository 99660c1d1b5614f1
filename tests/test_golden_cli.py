"""Golden stdout for CLI paths the benchmark workloads do not exercise.

The stdout cases were recorded before the stacked systems moved to the
sparse block solver, the error cases before the systems were assembled
from the structure constants; any change to these bytes is a behaviour
change.
"""

import json

import pytest

from wittkit.cli import main
from wittkit.derivations import (
    ClosureViolation,
    DerivationSpec,
    SubspaceSpec,
    solve_inner,
    submodule_closure,
)
from wittkit.fields import TruncationWindow
from wittkit.poly import Monomial
from wittkit.textio import field_to_obj, parse_field

# generators that are not homogeneous: they mix degrees -1, 0 and 1
MIXED_GENS = ["d1 + x2 d1", "d2", "x1 d2 + x1^2 d2", "x2 d1", "x1 d1 - x2 d2 + x1*x2 d1"]


def write_ad_spec(path, w):
    """A derivation spec over MIXED_GENS holding the values g -> [g, w]."""
    gens = [parse_field(g) for g in MIXED_GENS]
    field = parse_field(w)
    doc = {
        "generators": [field_to_obj(g) for g in gens],
        "values": [field_to_obj(g.bracket(field)) for g in gens],
    }
    path.write_text(json.dumps(doc))
    return str(path)


INCONSISTENT_JSON = (
    '{"certificate": {"generator_index": 2, "term": "d1"}, "field": null, "kernel": '
    '[{"components": {"3": [{"coeff": "1", "monomial": {"3": 1}}]}}, '
    '{"components": {"3": [{"coeff": "1", "monomial": {"3": 2}}]}}, '
    '{"components": {"3": [{"coeff": "1", "monomial": {"3": 3}}]}}], "kind": "inconsistent"}\n'
)

CASES = [
    (
        ["solve-inner", "--gens", "L", "--n", "2", "--from-ad", "d1 + x1^2 d2", "--deg-min", "0"],
        3,
        "inconsistent: coordinate d1 of the image of generator #3 cannot be matched\n",
    ),
    (
        ["solve-inner", "--gens", "L", "--n", "2", "--from-ad", "d1 + x1^2 d2", "--deg-min", "0",
         "--format", "json"],
        3,
        INCONSISTENT_JSON,
    ),
    (
        ["solve-inner", "--gens", "L", "--n", "3", "--from-ad", "d2 + x3 d1 + x1*x2 d3",
         "--deg-min", "0"],
        3,
        "inconsistent: coordinate d1 of the image of generator #7 cannot be matched\n",
    ),
    (
        ["solve-inner", "--n", "2", "--spec", ("x1^2 d2 + x2 d1",), "--deg-max", "2"],
        0,
        "x2 d1 + x1^2 d2\nkernel dimension: 4\nkernel: d3\nkernel: x3 d3\n"
        "kernel: x3^2 d3\nkernel: x3^3 d3\n",
    ),
    (
        ["solve-inner", "--n", "2", "--spec", ("d2 + x1^2 d1 + x2^3 d2",),
         "--deg-min", "0", "--deg-max", "3"],
        3,
        "inconsistent: coordinate x1 d1 of the image of generator #2 cannot be matched\n",
    ),
    (
        ["centralizer", "--n", "2", "--mode", "project"],
        0,
        "dimension: 7\nd3\nx1 d1 + x2 d2\nx3 d3\nx1*x3 d1 + x2*x3 d2\nx3^2 d3\n"
        "x1*x3^2 d1 + x2*x3^2 d2\nx3^3 d3\n",
    ),
    (["h1", "--n", "2", "--k", "2"], 0, "0\n"),
]


@pytest.mark.parametrize("argv, code, expected", CASES, ids=[f"{c[0][0]}-{k}" for k, c in enumerate(CASES)])
def test_cli_golden_stdout(argv, code, expected, tmp_path, capsys):
    # a tuple in argv stands for a spec file holding ad(w) over MIXED_GENS
    argv = [write_ad_spec(tmp_path / "spec.json", a[0]) if isinstance(a, tuple) else a for a in argv]
    assert main(argv) == code
    assert capsys.readouterr().out == expected


# Strict-mode escapes: the error names the first term of the first image that
# leaves the window, in canonical order (direction ascending, then descending
# graded-lex), with generators iterated before the orbit frontier.
ERROR_CASES = [
    (
        ["closure", "x1 d1", "--n", "3", "--max-var", "2", "--deg-min", "0", "--deg-max", "0"],
        3,
        "",
        "error (window): orbit of VectorField<(Polynomial('x1')) d1> escapes the ambient: "
        "term x1 d3 lies outside the window\n",
    ),
    (
        ["closure", "x1 d1", "--n", "3", "--max-var", "2", "--deg-min", "0", "--deg-max", "0",
         "--format", "json"],
        3,
        '{"error": {"kind": "window", "message": "orbit of VectorField<(Polynomial(\'x1\')) d1> '
        'escapes the ambient: term x1 d3 lies outside the window"}}\n',
        "",
    ),
    (
        ["h1", "--n", "3", "--k", "0", "--max-var", "2"],
        3,
        "",
        "error (window): module action escapes the module: term x1 d3 lies outside the window\n",
    ),
]


@pytest.mark.parametrize("argv, code, out, err", ERROR_CASES,
                         ids=[f"{c[0][0]}-{k}" for k, c in enumerate(ERROR_CASES)])
def test_cli_golden_errors(argv, code, out, err, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_solve_inner_codomain_escape_names_first_canonical_term():
    # [x2^2 d1 + x1^2 d2, x1 d1] = x2^2 d1 - 2*x1^2 d2: both terms leave the
    # codomain, and the d1 term comes first although x1^2 is grlex-larger
    gens = [parse_field(g) for g in ("d1", "d2", "x2^2 d1 + x1^2 d2")]
    spec = DerivationSpec.from_ad(parse_field("x1 d2"), gens)
    search = SubspaceSpec.span_window(TruncationWindow(2, 0, 0, "strict"))
    with pytest.raises(ClosureViolation) as info:
        solve_inner(spec, search, TruncationWindow(2, -1, 0, "strict"))
    assert str(info.value) == (
        "bracket image term x2^2 d1 escapes the codomain window (max_var=2, degrees -1..0)"
    )
    assert (info.value.mono, info.value.direction) == (Monomial({2: 2}), 1)


def test_closure_orbit_escape_follows_generators_then_frontier():
    # the orbit leaves this hand-picked ambient in its second round, where
    # the frontier has several images and the scan order picks the culprit
    basis = [parse_field(t) for t in ("x1^2 d1", "x2 d1", "x1*x2 d1", "x1^2 d2", "x1 d2", "x2 d2")]
    ambient = SubspaceSpec(basis, TruncationWindow(2, 0, 1, "strict"))
    with pytest.raises(ClosureViolation) as info:
        submodule_closure(parse_field("x1^2 d1"), 2, ambient)
    assert str(info.value) == (
        "orbit of VectorField<(Polynomial('x1^2')) d1> escapes the ambient: field is outside "
        "the span of the basis: VectorField<(Polynomial('2*x1^2')) d1 + (Polynomial('-2*x1*x2')) d2>"
    )
    assert (info.value.mono, info.value.direction) == (None, None)
