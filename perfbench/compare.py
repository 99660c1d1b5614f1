"""Summarize or compare result sets written by ``run.py``.

    python3 perfbench/compare.py perfbench/out               # one set: summary JSON
    python3 perfbench/compare.py BASE_DIR NEW_DIR            # two sets: one row per metric

A result set is a directory of ``run.py`` result files (or a list of files).
Sets are compared only when every result in both was made with the same
elimination engine and the same Python version; otherwise the comparison is
refused with exit code 2, because either one moves every timing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    files: list[Path] = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def platforms(records: list[dict]) -> set[tuple[str, str]]:
    return {(r["meta"]["engine"], r["meta"]["python"]) for r in records}


def summarize(records: list[dict]) -> dict:
    """Per workload and metric: median, quartiles and run count."""
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    ops: dict[str, list[int]] = {}
    for r in records:
        w = r["meta"]["workload"]
        for name, m in r["result"]["metrics"].items():
            values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        counts = ops.setdefault(w, [0, 0])
        counts[0] += r["result"]["attempted"]
        counts[1] += r["result"]["failed"]
    out: dict = {}
    for w, metrics in values.items():
        row = out.setdefault(w, {"fail_ratio": ops[w][1] / ops[w][0]})
        for name, v in metrics.items():
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            row[name] = {"median": statistics.median(v), "q1": q[0], "q3": q[2],
                         "runs": len(v), "unit": units[name]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="directory or result file of the first set")
    parser.add_argument("new", nargs="?", help="directory or result file of the second set")
    args = parser.parse_args()
    base = load([args.base])
    new = load([args.new]) if args.new else []
    seen = platforms(base) | platforms(new)
    if not base or len(seen) != 1:
        print(f"refusing to compare: results mix (engine, python) = {sorted(seen)}", file=sys.stderr)
        return 2
    engine, python = seen.pop()
    if not new:
        summary = {
            "engine": engine,
            "python": python,
            "commits": sorted({str(r["meta"]["commit"]) for r in base}),
            "machine": sorted({r["meta"]["machine"] for r in base}),
            "workloads": summarize(base),
        }
        print(json.dumps(summary, indent=1))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = summarize(base), summarize(new)
    print(f"{'workload':<12} {'metric':<28} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for w in sorted(a.keys() & b.keys()):
        for name in sorted(a[w].keys() & b[w].keys() - {"fail_ratio"}):
            m0, m1 = a[w][name]["median"], b[w][name]["median"]
            change = (m1 - m0) / m0 if m0 else 0.0
            spec_m = declared.get(name, {})
            verdict = ""
            if "bound" in spec_m:
                worse = change if spec_m["better"] == "lower" else -change
                spread = (a[w][name]["q3"] - a[w][name]["q1"]) / m0 if m0 else 0.0
                verdict = ("unresolved" if spread > spec_m["bound"]
                           else "worse beyond bound" if worse > spec_m["bound"] else "within bound")
            print(f"{w:<12} {name:<28} {m0:>12.6g} {m1:>12.6g} {change:>+8.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
