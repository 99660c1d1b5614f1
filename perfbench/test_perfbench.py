"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run_first(workload: str, seed: int = run.DEFAULT_SEED, count: int = 1):
    _, cli, ops = run.setup(workload, seed)
    return [(op, *run.run_op(cli.main, op.argv)[:2]) for op in ops[:count]]


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_golden_and_invariants_accept_the_real_output():
    golden = run.load_golden()
    for op, rc, out in _run_first("closure") + _run_first("centralizer"):
        assert run.check_op(op, rc, out, golden) is None


def test_tampered_stdout_fails_the_golden_digest():
    golden = run.load_golden()
    [(op, rc, out)] = _run_first("closure")
    assert run.argv_key(op.argv) in golden
    assert run.check_op(op, rc, out + " ", golden) is not None
    assert run.check_op(op, rc, out, golden) is None


def test_wrong_invariant_fails_without_a_golden_digest():
    [(op, rc, out)] = _run_first("closure")
    assert run.check_op(op, rc, out.replace("dimension: 30", "dimension: 31"), {}) is not None
    assert run.check_op(op, 3, out, {}) is not None
    [(h1, rc, out)] = _run_first("cohomology")
    assert run.check_op(h1, rc, "1\n", {}) is not None
    [(sl3, rc, out)] = _run_first("centralizer")
    lines = out.splitlines()
    assert run.check_op(sl3, rc, "\n".join(lines[:-1]) + "\n", {}) is not None   # a basis element dropped
    outside = "\n".join([lines[0], "x1^2 d1", *lines[2:]]) + "\n"
    assert run.check_op(sl3, rc, outside, {}) is not None


def test_non_default_seed_runs_with_invariant_checks_only():
    golden = run.load_golden()
    ops = workloads.build("inner", 7)
    unrecorded = [op for op in ops if run.argv_key(op.argv) not in golden]
    assert len(unrecorded) >= len(ops) // 2
    for op, rc, out in _run_first("inner", seed=7, count=3):
        assert run.check_op(op, rc, out, golden) is None


def test_wrappers_are_restored_and_counters_repeat():
    _, cli, ops = run.setup("closure", run.DEFAULT_SEED)
    poly = sys.modules["wittkit.poly"]
    linalg = sys.modules["wittkit.linalg"]
    before = (poly.Polynomial.__dict__["__mul__"], linalg.RationalMatrix.__dict__["from_rows"],
              cli.centralizer, linalg.kernel, sys.modules["wittkit._elim_py"].eliminate)
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert poly.Polynomial.__dict__["__mul__"] is not before[0]
            assert cli.centralizer is not before[2]
            run.run_pass(cli, ops[:1], tracer)
        finally:
            tracer.restore()
        counts.append(spans.counts(tracer.metrics()))
    after = (poly.Polynomial.__dict__["__mul__"], linalg.RationalMatrix.__dict__["from_rows"],
             cli.centralizer, linalg.kernel, sys.modules["wittkit._elim_py"].eliminate)
    assert all(x is y for x, y in zip(before, after))
    assert counts[0] == counts[1] and counts[0]["linalg.eliminate_calls"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_mixed_engines(tmp_path):
    def write(name: str, engine: str) -> Path:
        d = tmp_path / name
        d.mkdir()
        meta = {"workload": "closure", "engine": engine, "python": "3.11.7", "commit": None, "machine": "x"}
        result = {"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        (d / "r.json").write_text(json.dumps({"meta": meta, "result": result}))
        return d

    pure, compiled = write("a", "pure"), write("b", "compiled")
    compare = [sys.executable, str(HERE / "compare.py")]
    assert subprocess.run([*compare, str(pure), str(compiled)], capture_output=True).returncode == 2
    assert subprocess.run([*compare, str(pure), str(pure)], capture_output=True).returncode == 0
