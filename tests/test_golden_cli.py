"""Golden stdout for CLI paths the benchmark workloads do not exercise.

The stdout cases were recorded before the stacked systems moved to the
sparse block solver, the error cases before the systems were assembled
from the structure constants, the cases over SKIP_GENS before derivation
specs were validated without a dense solve, and the sl stabilize,
centralizer and solve-inner cases before centralizer and solve_inner were
solved per torus-weight block; any change to these bytes is a behaviour
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


# [x1 d2, x2 d1] = x1 d1 - x2 d2 stays in these generators' terms but leaves
# their span, [x1 d2, d1] = -d2 leaves their terms: both pairs are skipped
SKIP_GENS = ["x1 d2", "x2 d1", "x1 d1 + x2 d2", "d1"]


def write_spec(path, gens, values):
    """A derivation spec file over ``gens``; ``values`` is a list of fields,
    or one field w standing for the values g -> [g, w]."""
    gens = [parse_field(g) for g in gens]
    if isinstance(values, str):
        field = parse_field(values)
        values = [g.bracket(field) for g in gens]
    else:
        values = [parse_field(v) for v in values]
    doc = {
        "generators": [field_to_obj(g) for g in gens],
        "values": [field_to_obj(v) for v in values],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def spec_argv(argv, tmp_path):
    """argv with each tuple (gens, values) replaced by a spec file's path."""
    return [write_spec(tmp_path / "spec.json", *a) if isinstance(a, tuple) else a for a in argv]


INCONSISTENT_JSON = (
    '{"certificate": {"generator_index": 2, "term": "d1"}, "field": null, "kernel": '
    '[{"components": {"3": [{"coeff": "1", "monomial": {"3": 1}}]}}, '
    '{"components": {"3": [{"coeff": "1", "monomial": {"3": 2}}]}}, '
    '{"components": {"3": [{"coeff": "1", "monomial": {"3": 3}}]}}], "kind": "inconsistent"}\n'
)

# sl_3 over (5, -1, 2): the extra variables x4, x5 leave many weight blocks
# with a kernel
SL3_CENTRALIZER_JSON = (
    '{"basis": [{"components": {"4": [{"coeff": "1", "monomial": {}}]}}, '
    '{"components": {"5": [{"coeff": "1", "monomial": {}}]}}, {"components": {"1": [{"coeff": "1", '
    '"monomial": {"1": 1}}], "2": [{"coeff": "1", "monomial": {"2": 1}}], "3": [{"coeff": "1", '
    '"monomial": {"3": 1}}]}}, {"components": {"4": [{"coeff": "1", "monomial": {"4": 1}}]}}, '
    '{"components": {"4": [{"coeff": "1", "monomial": {"5": 1}}]}}, '
    '{"components": {"5": [{"coeff": "1", "monomial": {"4": 1}}]}}, '
    '{"components": {"5": [{"coeff": "1", "monomial": {"5": 1}}]}}, '
    '{"components": {"1": [{"coeff": "1", "monomial": {"1": 1, "4": 1}}], "2": [{"coeff": "1", '
    '"monomial": {"2": 1, "4": 1}}], "3": [{"coeff": "1", "monomial": {"3": 1, "4": 1}}]}}, '
    '{"components": {"1": [{"coeff": "1", "monomial": {"1": 1, "5": 1}}], "2": [{"coeff": "1", '
    '"monomial": {"2": 1, "5": 1}}], "3": [{"coeff": "1", "monomial": {"3": 1, "5": 1}}]}}, '
    '{"components": {"4": [{"coeff": "1", "monomial": {"4": 2}}]}}, '
    '{"components": {"4": [{"coeff": "1", "monomial": {"4": 1, "5": 1}}]}}, '
    '{"components": {"4": [{"coeff": "1", "monomial": {"5": 2}}]}}, '
    '{"components": {"5": [{"coeff": "1", "monomial": {"4": 2}}]}}, '
    '{"components": {"5": [{"coeff": "1", "monomial": {"4": 1, "5": 1}}]}}, '
    '{"components": {"5": [{"coeff": "1", "monomial": {"5": 2}}]}}, '
    '{"components": {"1": [{"coeff": "1", "monomial": {"1": 1, "4": 2}}], "2": [{"coeff": "1", '
    '"monomial": {"2": 1, "4": 2}}], "3": [{"coeff": "1", "monomial": {"3": 1, "4": 2}}]}}, '
    '{"components": {"1": [{"coeff": "1", "monomial": {"1": 1, "4": 1, "5": 1}}], '
    '"2": [{"coeff": "1", "monomial": {"2": 1, "4": 1, "5": 1}}], "3": [{"coeff": "1", '
    '"monomial": {"3": 1, "4": 1, "5": 1}}]}}, {"components": {"1": [{"coeff": "1", '
    '"monomial": {"1": 1, "5": 2}}], "2": [{"coeff": "1", "monomial": {"2": 1, "5": 2}}], '
    '"3": [{"coeff": "1", "monomial": {"3": 1, "5": 2}}]}}, {"components": {"4": [{"coeff": "1", '
    '"monomial": {"4": 3}}]}}, {"components": {"4": [{"coeff": "1", "monomial": {"4": 2, '
    '"5": 1}}]}}, {"components": {"4": [{"coeff": "1", "monomial": {"4": 1, "5": 2}}]}}, '
    '{"components": {"4": [{"coeff": "1", "monomial": {"5": 3}}]}}, '
    '{"components": {"5": [{"coeff": "1", "monomial": {"4": 3}}]}}, '
    '{"components": {"5": [{"coeff": "1", "monomial": {"4": 2, "5": 1}}]}}, '
    '{"components": {"5": [{"coeff": "1", "monomial": {"4": 1, "5": 2}}]}}, '
    '{"components": {"5": [{"coeff": "1", "monomial": {"5": 3}}]}}], "dimension": 26}\n'
)

SL2_INNER_JSON = (
    '{"certificate": null, "field": {"components": {"1": [{"coeff": "1", "monomial": {"2": 1}}], '
    '"2": [{"coeff": "1", "monomial": {"1": 2}}]}}, '
    '"kernel": [{"components": {"3": [{"coeff": "1", "monomial": {}}]}}, '
    '{"components": {"1": [{"coeff": "1", "monomial": {"1": 1}}], "2": [{"coeff": "1", '
    '"monomial": {"2": 1}}]}}, {"components": {"3": [{"coeff": "1", "monomial": {"3": 1}}]}}, '
    '{"components": {"1": [{"coeff": "1", "monomial": {"1": 1, "3": 1}}], "2": [{"coeff": "1", '
    '"monomial": {"2": 1, "3": 1}}]}}, {"components": {"3": [{"coeff": "1", '
    '"monomial": {"3": 2}}]}}, {"components": {"1": [{"coeff": "1", "monomial": {"1": 1, '
    '"3": 2}}], "2": [{"coeff": "1", "monomial": {"2": 1, "3": 2}}]}}, '
    '{"components": {"3": [{"coeff": "1", "monomial": {"3": 3}}]}}], "kind": "underdetermined"}\n'
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
        ["solve-inner", "--n", "2", "--spec", (MIXED_GENS, "x1^2 d2 + x2 d1"), "--deg-max", "2"],
        0,
        "x2 d1 + x1^2 d2\nkernel dimension: 4\nkernel: d3\nkernel: x3 d3\n"
        "kernel: x3^2 d3\nkernel: x3^3 d3\n",
    ),
    (
        ["solve-inner", "--n", "2", "--spec", (MIXED_GENS, "d2 + x1^2 d1 + x2^3 d2"),
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
    (
        ["solve-inner", "--n", "2", "--spec", (SKIP_GENS, "x1*x2 d1 + d2")],
        0,
        "x1*x2 d1 + d2\nkernel dimension: 4\nkernel: d3\nkernel: x3 d3\nkernel: x3^2 d3\n"
        "kernel: x3^3 d3\n",
    ),
    (
        ["solve-inner", "--n", "2", "--spec", (SKIP_GENS, "x1*x2 d1 + d2"), "--format", "json"],
        0,
        '{"certificate": null, "field": {"components": {"1": [{"coeff": "1", "monomial": '
        '{"1": 1, "2": 1}}], "2": [{"coeff": "1", "monomial": {}}]}}, "kernel": '
        '[{"components": {"3": [{"coeff": "1", "monomial": {}}]}}, '
        '{"components": {"3": [{"coeff": "1", "monomial": {"3": 1}}]}}, '
        '{"components": {"3": [{"coeff": "1", "monomial": {"3": 2}}]}}, '
        '{"components": {"3": [{"coeff": "1", "monomial": {"3": 3}}]}}], '
        '"kind": "underdetermined"}\n',
    ),
    (
        ["stabilize", "--task", "centralizer", "--gens", "sl", "--n-from", "2", "--n-to", "4"],
        0,
        "n: 2, 3, 4\ndims: 7, 7, 7\nall stabilized: no\n",
    ),
    (
        ["stabilize", "--task", "centralizer", "--gens", "sl", "--n-from", "2", "--n-to", "4",
         "--format", "json"],
        0,
        '{"all_stabilized": false, "dims": [7, 7, 7], "first_stable_n": {}, "limit": null, '
        '"n_values": [2, 3, 4], "stabilized": {}, "task": "centralizer", "trajectories": {}}\n',
    ),
    (
        ["centralizer", "--gens", "sl", "--n", "3", "--max-var", "5", "--format", "json"],
        0,
        SL3_CENTRALIZER_JSON,
    ),
    (
        ["solve-inner", "--gens", "sl", "--n", "2", "--from-ad", "x1^2 d2 + x2 d1"],
        0,
        "x2 d1 + x1^2 d2\nkernel dimension: 7\nkernel: d3\nkernel: x1 d1 + x2 d2\nkernel: x3 d3\n"
        "kernel: x1*x3 d1 + x2*x3 d2\nkernel: x3^2 d3\nkernel: x1*x3^2 d1 + x2*x3^2 d2\nkernel: x3^3 d3\n",
    ),
    (
        ["solve-inner", "--gens", "sl", "--n", "2", "--from-ad", "x1^2 d2 + x2 d1", "--format", "json"],
        0,
        SL2_INNER_JSON,
    ),
    (
        ["solve-inner", "--gens", "L", "--n", "3", "--max-var", "4", "--deg-min", "0",
         "--from-ad", "d2 + x4 d1 + x1*x2 d3 + x4^2 d4"],
        3,
        "inconsistent: coordinate d1 of the image of generator #7 cannot be matched\n",
    ),
]


@pytest.mark.parametrize("argv, code, expected", CASES, ids=[f"{c[0][0]}-{k}" for k, c in enumerate(CASES)])
def test_cli_golden_stdout(argv, code, expected, tmp_path, capsys):
    assert main(spec_argv(argv, tmp_path)) == code
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
    (
        ["solve-inner", "--n", "2", "--spec", (["x1 d2", "x2 d1", "2 x1 d2"], ["0", "0", "0"])],
        3,
        "",
        "error (derivation-spec): generators are linearly dependent\n",
    ),
    (
        # pair (1, 2) is skipped, its bracket leaving the span, then (1, 3) fails
        ["solve-inner", "--n", "2", "--spec", (SKIP_GENS[:3], ["0", "0", "x1 d1"])],
        3,
        "",
        "error (derivation-spec): cocycle identity fails on generator pair (1, 3)\n",
    ),
]


@pytest.mark.parametrize("argv, code, out, err", ERROR_CASES,
                         ids=[f"{c[0][0]}-{k}" for k, c in enumerate(ERROR_CASES)])
def test_cli_golden_errors(argv, code, out, err, tmp_path, capsys):
    assert main(spec_argv(argv, tmp_path)) == code
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
