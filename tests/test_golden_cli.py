"""Golden stdout for CLI paths the benchmark workloads do not exercise.

Each expected output was recorded before the stacked systems moved to the
sparse block solver; any change to these bytes is a behaviour change.
"""

import json

import pytest

from wittkit.cli import main
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
