"""Command-line driver: subcommands, formats, exit codes, determinism."""

import json

import pytest

from wittkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_text(capsys):
    code, out, _ = run(capsys, "bracket", "d1", "x1 d2")
    assert code == 0 and out.strip() == "d2"


def test_bracket_json(capsys):
    code, out, _ = run(capsys, "bracket", "x1 d2", "x2 d1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "components": {
            "1": [{"coeff": "1", "monomial": {"1": 1}}],
            "2": [{"coeff": "-1", "monomial": {"2": 1}}],
        }
    }


def test_apply(capsys):
    code, out, _ = run(capsys, "apply", "x1 d1 + x2 d2", "x1*x2")
    assert code == 0 and out.strip() == "2*x1*x2"


def test_centralizer(capsys):
    code, out, _ = run(capsys, "centralizer", "--n", "3", "--max-var", "3", "--deg-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dimension: 1"
    assert lines[1] == "x1 d1 + x2 d2 + x3 d3"


def test_centralizer_L_gens(capsys):
    code, out, _ = run(capsys, "centralizer", "--n", "2", "--gens", "L",
                       "--max-var", "2", "--deg-max", "3")
    assert code == 0 and out.strip() == "dimension: 0"


def test_h1(capsys):
    code, out, _ = run(capsys, "h1", "--n", "2", "--k", "-1", "--max-var", "2")
    assert code == 0 and out.strip() == "0"


def test_solve_inner_round_trip(capsys):
    code, out, _ = run(capsys, "solve-inner", "--gens", "L", "--n", "2",
                       "--from-ad", "x1^2 d2", "--deg-max", "2")
    assert code == 0
    assert out.strip().splitlines()[0] == "x1^2 d2"


def test_solve_inner_spec_file(tmp_path, capsys):
    # the adjoint of x1 d2 on the default L generators, written out by hand
    from wittkit.derivations import DerivationSpec
    from wittkit.fields import L_basis
    from wittkit.textio import field_to_obj, parse_field

    w = parse_field("x1 d2")
    spec = DerivationSpec.from_ad(w, L_basis(2))
    doc = {"values": [field_to_obj(v) for v in spec.values]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve-inner", "--gens", "L", "--n", "2",
                       "--spec", str(path), "--max-var", "2", "--deg-max", "2")
    assert code == 0
    assert out.strip().splitlines()[0] == "x1 d2"


def test_solve_inner_inconsistent_exit_code(tmp_path, capsys):
    from wittkit.textio import field_to_obj, parse_field

    doc = {
        "generators": [field_to_obj(parse_field("x1 d1"))],
        "values": [field_to_obj(parse_field("x1 d1"))],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve-inner", "--gens", "L", "--n", "2",
                       "--spec", str(path), "--max-var", "2",
                       "--deg-min", "0", "--deg-max", "0")
    assert code == 3
    assert "inconsistent" in out


def test_closure(capsys):
    code, out, _ = run(capsys, "closure", "d1", "--n", "3",
                       "--max-var", "3", "--deg-min", "-1", "--deg-max", "-1")
    assert code == 0
    assert out.strip().splitlines()[0] == "dimension: 3"


def test_stabilize(capsys):
    code, out, _ = run(capsys, "stabilize", "--task", "solve-inner",
                       "--n-from", "2", "--n-to", "4", "--from-ad", "x1^2 d2")
    assert code == 0
    assert "all stabilized: yes" in out
    assert "limit: x1^2 d2" in out


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "closure", "--seed", "11")
    assert code == 0
    assert "all 4 checks passed" in out


def test_verify_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "poly", "--seed", "3")
    code2, out2, _ = run(capsys, "verify", "--suite", "poly", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "bracket", "x1 +", "d1")
    assert code == 2
    assert "expected" in err


def test_parse_error_json_object(capsys):
    code, out, _ = run(capsys, "bracket", "x1 +", "d1", "--format", "json")
    assert code == 2
    obj = json.loads(out)
    assert obj["error"]["kind"] == "parse"
    assert obj["error"]["line"] == 1


def test_window_violation_exit_code(capsys):
    # adjoint values of a degree-4 field break out of the degree -1..2 windows
    code, out, err = run(capsys, "stabilize", "--task", "solve-inner",
                         "--n-from", "2", "--n-to", "3", "--from-ad", "x1^5 d1")
    assert code == 3


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve-inner", "--n", "2"])  # neither --from-ad nor --spec
    assert err.value.code == 2


def test_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"values": [{"components": {"1": [{"monomial": {}, "coeff": "1/0"}]}}]}')
    code, out, _ = run(capsys, "solve-inner", "--gens", "L", "--n", "2",
                       "--spec", str(path), "--format", "json")
    assert code == 3
    obj = json.loads(out)
    assert obj["error"]["kind"] == "schema"
    assert "coeff" in obj["error"]["path"]


def test_verify_failure_exits_1_with_counterexample(capsys, monkeypatch):
    from wittkit.suites import CheckResult
    import wittkit.suites as suites_mod

    def broken(rng):
        yield CheckResult("stub.good", True)
        yield CheckResult("stub.bad", False, "x1 d2; x2 d1")
        yield CheckResult("stub.unreached", True)

    monkeypatch.setitem(suites_mod.SUITES, "poly", broken)
    code, out, _ = run(capsys, "verify", "--suite", "poly")
    assert code == 1
    assert "FAIL stub.bad" in out
    assert "x1 d2; x2 d1" in out
    assert "stub.unreached" not in out


def test_suite_names_match_the_suites():
    from wittkit import cli, suites

    assert cli.SUITE_NAMES == tuple(suites.SUITES)


def test_cli_import_leaves_suites_unloaded():
    # only ``verify`` needs the suites; a fresh interpreter shows what import loads
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wittkit

    env = {**os.environ, "PYTHONPATH": str(Path(wittkit.__file__).parents[1])}
    code = "import sys, wittkit.cli; print('wittkit.suites' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
