"""wittkit benchmark: runs a workload's list of CLI invocations in-process.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

One client, one process, one thread, closed loop: each op is
``wittkit.cli.main(argv)`` with stdout captured, started when the previous
op returned.  A pass runs every op of the workload once; passes repeat until
``--seconds`` have gone by.  wittkit is imported afresh before every pass,
so that no pass finds state an earlier one left behind (each real CLI call
is a new process); that import, with the generation of the inputs, is the
set-up time.

Every op is checked outside the timed region: a nonzero exit code, an
invariant violation (``workloads.py``), or a stdout whose digest differs from
the one recorded in ``golden.json`` counts it as failed.  ``golden.json``
maps each argv to the sha256 of its stdout at the default seed; argvs it
does not hold (the random fields of ``inner`` at other seeds) are checked by
their invariants only.

Times of passes and ops are the slowest of a run's passes: ``wall_s`` is the
slowest pass, ``largest_op_s`` the slowest run of the named op, and
``op_p50_ms`` the median over ops of each op's slowest run.  The benchmark
shares its machine, whose load from elsewhere slows it by a third or more
for stretches of seconds to minutes.  Nearly every run meets such a stretch,
and the time under that load is much the same each time, while the fast
stretches come and go.  In three sets of ten runs per workload the slowest
pass varied least, both between runs and between sets; the median, the mean
and the fastest pass each jumped with the stretches a run happened to hit.
``setup_s`` is the median of every set-up in the run.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced passes (``spans.py``), which
alternate with untraced ones to give the tracing overhead.  Each run also
writes its result with metadata (engine, Python version, commit, seed) to
``perfbench/out/``, and a traced run its spans beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
WARM_SETUPS = 10

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


def argv_key(argv) -> str:
    return json.dumps(list(argv))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def setup(workload: str, seed: int):
    """Import wittkit afresh and build the op list; return (seconds, cli, ops)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "wittkit"]:
        del sys.modules[name]
    t0 = time.perf_counter()
    cli = importlib.import_module("wittkit.cli")
    ops = workloads.build(workload, seed)
    return time.perf_counter() - t0, cli, ops


def run_op(main, argv) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:   # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:   # a crash is a failed op, not a failed benchmark
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    if rc:
        out.write(err.getvalue())
    return rc, out.getvalue(), dt


def run_pass(cli, ops, tracer: spans.Tracer | None = None) -> dict:
    main = cli.main if tracer is None else tracer.wrap(cli.main, spans.ROOT)
    results = []
    t0 = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k
        results.append(run_op(main, op.argv))
    return {"wall": time.perf_counter() - t0, "results": results}


def check_op(op, rc: int, out: str, golden: dict) -> str | None:
    """What is wrong with one op's outcome, or None."""
    if rc != 0:
        return f"exit code {rc}: {out.strip()[-200:]}"
    expected = golden.get(argv_key(op.argv))
    if expected is not None and digest(out) != expected:
        return "stdout differs from the golden digest"
    try:
        return op.check(out)
    except Exception as exc:   # unparsable output is a failed op
        return f"invariant check raised {type(exc).__name__}: {exc}"


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())["digests"] if GOLDEN.is_file() else {}


def commit() -> str | None:
    """The checked-out commit, when the benchmark runs inside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    from wittkit import linalg

    h = hashlib.sha256()
    for path in sorted((SRC / "wittkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "engine": linalg.active_engine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit(),
        "src_sha256": h.hexdigest(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
    }


def run_traced_pass(cli, ops) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    try:
        rec = run_pass(cli, ops, tracer)
    finally:
        tracer.restore()
    rec["layers"] = tracer.metrics()
    rec["artifact"] = tracer.artifact([list(op.argv) for op in ops])
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    golden = load_golden()
    setups = [setup(workload, seed)[0] for _ in range(WARM_SETUPS)]
    plain, traced, failures = [], [], []
    begin = time.perf_counter()
    while not plain or time.perf_counter() - begin < seconds:
        for tracing in (False, True) if trace else (False,):
            dt, cli, ops = setup(workload, seed)
            setups.append(dt)
            gc.collect()
            rec = run_traced_pass(cli, ops) if tracing else run_pass(cli, ops)
            (traced if tracing else plain).append(rec)
            for op, (rc, out, _) in zip(ops, rec["results"]):
                problem = check_op(op, rc, out, golden)
                if problem:
                    failures.append(f"{' '.join(op.argv)}: {problem}")

    per_op = list(zip(*[[dt for _, _, dt in rec["results"]] for rec in plain]))
    counts = [spans.counts(rec["layers"]) for rec in traced]
    if trace:
        metrics = {name: statistics.median(rec["layers"][name] for rec in traced) for name in traced[0]["layers"]}
        metrics.update(counts[-1])
        metrics["textio.out_bytes"] = sum(len(out.encode()) for _, out, _ in traced[-1]["results"])
        metrics["trace.wall_s"] = statistics.median(rec["wall"] for rec in traced)
        metrics["trace_overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(rec["wall"] for rec in plain)
    else:
        largest = [op.argv for op in ops].index(workloads.LARGEST_OP[workload])
        metrics = {
            "wall_s": max(rec["wall"] for rec in plain),
            "largest_op_s": max(per_op[largest]),
            "op_p50_ms": 1000 * statistics.median(max(times) for times in per_op),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
    return {
        "attempted": sum(len(rec["results"]) for rec in plain + traced),
        "failed": len(failures),
        "failures": failures,
        "counters_repeat": all(c == counts[0] for c in counts),
        "passes": [{"wall_s": rec["wall"], "op_s": list(times)} for rec, times in zip(plain, zip(*per_op))],
        "setups_s": setups,
        "metrics": metrics,
        "artifact": traced[-1]["artifact"] if traced else None,
    }


def record_golden() -> None:
    """Write the stdout digest of every op at the default seed."""
    digests = {}
    for workload in workloads.WORKLOADS:
        _, cli, ops = setup(workload, DEFAULT_SEED)
        for op in ops:
            rc, out, _ = run_op(cli.main, op.argv)
            problem = check_op(op, rc, out, {})
            if problem:
                sys.exit(f"refusing to record: {' '.join(op.argv)}: {problem}")
            digests[argv_key(op.argv)] = digest(out)
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "commit": commit(), "digests": digests}, indent=1) + "\n")


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    print(f"{'workload':<12} {'metric':<28} {'value':>14}  unit")
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload:<12} failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows = dict(result["metrics"])
        rows["fail_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        for name, m in rows.items():
            print(f"{workload:<12} {name:<28} {m['value']:>14.6g}  {m['unit']}")
        status |= not result["correct"]
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="record the stdout digests of the default seed (only at a commit known to be right)")
    args = parser.parse_args()

    if not (SRC / "wittkit" / "__init__.py").is_file():
        print(f"error: no wittkit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    origin = importlib.util.find_spec("wittkit").origin
    if not Path(origin).resolve().is_relative_to(SRC.resolve()):
        print(f"error: wittkit resolves to {origin}, not to {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": res["failed"] == 0 and res["counters_repeat"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    record = {"meta": meta, "result": result, "failures": res["failures"],
              "counters_repeat": res["counters_repeat"], "passes": res["passes"], "setups_s": res["setups_s"]}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if res["artifact"] is not None:
        with gzip.open(f"{stem}-spans.json.gz", "wt") as fh:
            json.dump(res["artifact"], fh)
    for line in res["failures"][:20]:
        print(f"FAILED {line}")
    print(f"meta {json.dumps(meta)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
