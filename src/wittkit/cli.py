"""Command-line driver.

Every computation is exposed as a subcommand with reproducible flags; all
randomness is seeded (default seed printed by ``verify``).  Output is either
canonical grammar text or JSON (--format json), and identical invocations
produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 computation
error (window violation, closure violation, inconsistent derivation spec).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from . import textio
from .derivations import (
    DerivationSpec,
    DerivationSpecError,
    ScanError,
    SubspaceSpec,
    centralizer,
    h1_dimension,
    solve_inner,
    stabilization_scan,
    submodule_closure,
)
from .fields import L_basis, TruncationWindow, WindowViolation, format_term, sl_basis
from .textio import ParseError, SchemaError, parse_field, parse_poly, print_field, print_poly

DEFAULT_SEED = 20250401

# the names of ``suites.SUITES``, so that only ``verify`` imports the suites
SUITE_NAMES = (
    "poly", "bracket", "identities", "linalg", "centralizer", "h1", "solve-inner", "closure",
    "stabilize", "textio",
)


class _UsageError(Exception):
    pass


def _window_from_args(args, n: int | None = None) -> TruncationWindow:
    """CLI windows default to (max_var = n + 1, degrees -1..2) when omitted."""
    max_var = args.max_var
    if max_var is None:
        if n is None:
            raise _UsageError("--max-var is required here")
        max_var = n + 1
    return TruncationWindow(
        max_var=max_var,
        degree_min=args.deg_min,
        degree_max=args.deg_max,
        mode=args.mode,
    )


def _family(name: str, n: int):
    return sl_basis(n) if name == "sl" else L_basis(n)


def _emit(args, text_form: str, json_obj: Any) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        print(text_form)


def _cmd_bracket(args) -> int:
    u = parse_field(args.left)
    w = parse_field(args.right)
    b = u.bracket(w)
    _emit(args, print_field(b), textio.to_obj(b))
    return 0


def _cmd_apply(args) -> int:
    w = parse_field(args.field)
    p = parse_poly(args.poly)
    out = w.apply_to(p)
    _emit(args, print_poly(out), textio.to_obj(out))
    return 0


def _cmd_centralizer(args) -> int:
    window = _window_from_args(args, args.n)
    ambient = SubspaceSpec.span_window(window)
    basis = centralizer(_family(args.gens, args.n), ambient)
    obj = {"dimension": len(basis), "basis": [textio.to_obj(b) for b in basis]}
    text = "\n".join([f"dimension: {len(basis)}"] + [print_field(b) for b in basis])
    _emit(args, text, obj)
    return 0


def _cmd_h1(args) -> int:
    max_var = args.max_var if args.max_var is not None else args.n + 1
    module = SubspaceSpec.span_window(
        TruncationWindow(max_var=max_var, degree_min=args.k, degree_max=args.k, mode=args.mode)
    )
    dim = h1_dimension(args.n, module)
    _emit(args, str(dim), {"h1": dim, "n": args.n, "k": args.k, "max_var": max_var})
    return 0


def _cmd_solve_inner(args) -> int:
    gens = _family(args.gens, args.n)
    if args.from_ad is None and args.spec is None:
        raise _UsageError("solve-inner needs --from-ad EXPR or --spec FILE")
    if args.from_ad is not None:
        spec = DerivationSpec.from_ad(parse_field(args.from_ad), gens)
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        spec = _derivation_spec_from_obj(doc, gens)
    search = SubspaceSpec.span_window(_window_from_args(args, args.n))
    result = solve_inner(spec, search)
    obj = textio.inner_result_to_obj(result)
    if result.kind == "inconsistent":
        text = f"inconsistent: {result.certificate.describe()}"
        _emit(args, text, obj)
        return 3
    lines = [print_field(result.field)]
    if result.kernel:
        lines.append(f"kernel dimension: {len(result.kernel)}")
        lines.extend(f"kernel: {print_field(k)}" for k in result.kernel)
    _emit(args, "\n".join(lines), obj)
    return 0


def _derivation_spec_from_obj(doc: Any, default_gens) -> DerivationSpec:
    if not isinstance(doc, dict) or "values" not in doc:
        raise SchemaError("derivation spec needs a 'values' list", "$")
    gens = default_gens
    if "generators" in doc:
        raw = doc["generators"]
        if not isinstance(raw, list):
            raise SchemaError("'generators' must be a list of fields", "$.generators")
        gens = [textio.field_from_obj(g, f"$.generators[{i}]") for i, g in enumerate(raw)]
    raw_values = doc["values"]
    if not isinstance(raw_values, list):
        raise SchemaError("'values' must be a list of fields", "$.values")
    values = [textio.field_from_obj(v, f"$.values[{i}]") for i, v in enumerate(raw_values)]
    return DerivationSpec(gens, values)


def _cmd_closure(args) -> int:
    v = parse_field(args.field)
    window = _window_from_args(args, args.n)
    ambient = SubspaceSpec.span_window(window)
    basis = submodule_closure(v, args.n, ambient)
    obj = {"dimension": len(basis), "basis": [textio.to_obj(b) for b in basis]}
    text = "\n".join([f"dimension: {len(basis)}"] + [print_field(b) for b in basis])
    _emit(args, text, obj)
    return 0


def _cmd_stabilize(args) -> int:
    from_field = parse_field(args.from_ad) if args.from_ad else None
    report = stabilization_scan(
        args.task,
        list(range(args.n_from, args.n_to + 1)),
        generators=args.gens,
        from_field=from_field,
        degree_min=args.deg_min,
        degree_max=args.deg_max,
        max_var_offset=args.max_var_offset,
        mode=args.mode,
    )
    obj = textio.report_to_obj(report)
    lines = [
        f"n: {', '.join(str(n) for n in report.n_values)}",
        f"dims: {', '.join(str(d) for d in report.dims)}",
        f"all stabilized: {'yes' if report.all_stabilized else 'no'}",
    ]
    if report.limit is not None:
        lines.append(f"limit: {print_field(report.limit)}")
    for term, traj in report.trajectories.items():
        flag = "stable" if report.stabilized[term] else "unstable"
        values = ", ".join(textio._rat_str(v) for v in traj)
        lines.append(f"{format_term(term[0], term[1])}: [{values}] {flag} from n={report.first_stable_n[term]}")
    _emit(args, "\n".join(lines), obj)
    return 0


def _cmd_verify(args) -> int:
    from . import suites

    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    results = suites.run_suites(names, args.seed)
    shown = []
    failed = None
    for r in results:
        shown.append(r)
        if not r.ok:
            failed = r
            break
    if args.format == "json":
        obj = {
            "seed": args.seed,
            "checks": [{"item": r.item, "ok": r.ok, "detail": r.detail} for r in shown],
            "passed": failed is None,
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"seed: {args.seed}")
        for r in shown:
            if r.ok:
                print(f"ok {r.item}")
            else:
                print(f"FAIL {r.item}" + (f" counterexample: {r.detail}" if r.detail else ""))
        if failed is None:
            print(f"all {len(results)} checks passed")
    return 0 if failed is None else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later
    ones (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="wittkit",
        description="Exact toolkit for Lie algebras of polynomial vector fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--max-var", type=int, default=None,
                        help="variable/direction bound (default: n + 1)")
    window.add_argument("--deg-min", type=int, default=-1)
    window.add_argument("--deg-max", type=int, default=2)
    window.add_argument("--mode", choices=("strict", "project"), default="strict")

    p = sub.add_parser("bracket", parents=[common], help="Lie bracket of two fields")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("apply", parents=[common], help="apply a field to a polynomial as a derivation")
    p.add_argument("field")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("centralizer", parents=[common, window],
                       help="centralizer of a standard generator family in a window")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", choices=("sl", "L"), default="sl")
    p.set_defaults(func=_cmd_centralizer)

    p = sub.add_parser("h1", parents=[common],
                       help="first cohomology dimension of a degree slice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="module degree")
    p.add_argument("--max-var", type=int, default=None)
    p.add_argument("--mode", choices=("strict", "project"), default="strict")
    p.set_defaults(func=_cmd_h1)

    p = sub.add_parser("solve-inner", parents=[common, window],
                       help="reconstruct the inner element realizing a derivation")
    p.add_argument("--gens", choices=("sl", "L"), default="L")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from-ad", metavar="EXPR", default=None,
                   help="build the derivation as the adjoint of this field")
    p.add_argument("--spec", metavar="FILE", default=None,
                   help="JSON file with a derivation spec ('values', optional 'generators')")
    p.set_defaults(func=_cmd_solve_inner)

    p = sub.add_parser("closure", parents=[common, window],
                       help="smallest invariant subspace containing a field")
    p.add_argument("field")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("verify", parents=[common], help="run the seeded property suites")
    p.add_argument("--suite", default="all", choices=("all", *SUITE_NAMES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stabilize", parents=[common, window],
                       help="scan a task over growing n and report stabilization")
    p.add_argument("--task", required=True, choices=("centralizer", "solve-inner"))
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--gens", choices=("sl", "L"), default="L")
    p.add_argument("--from-ad", metavar="EXPR", default=None)
    p.add_argument("--max-var-offset", type=int, default=1)
    p.set_defaults(func=_cmd_stabilize)

    return parser


def _error_obj(kind: str, exc: Exception) -> dict:
    obj = {"error": {"kind": kind, "message": str(exc)}}
    if isinstance(exc, ParseError):
        obj["error"]["line"] = exc.line
        obj["error"]["col"] = exc.col
        obj["error"]["expected"] = list(exc.expected)
    if isinstance(exc, SchemaError):
        obj["error"]["path"] = exc.path
    return obj


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")

    def report(kind: str, exc: Exception, code: int) -> int:
        if fmt == "json":
            print(json.dumps(_error_obj(kind, exc), sort_keys=True))
        else:
            print(f"error ({kind}): {exc}", file=sys.stderr)
        return code

    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))  # exits with code 2
        return 2
    except ParseError as exc:
        return report("parse", exc, 2)
    except SchemaError as exc:
        return report("schema", exc, 3)
    except DerivationSpecError as exc:
        return report("derivation-spec", exc, 3)
    except WindowViolation as exc:
        return report("window", exc, 3)
    except ScanError as exc:
        return report("scan", exc, 3)
    except (ValueError, OSError) as exc:
        return report("computation", exc, 3)


if __name__ == "__main__":
    sys.exit(main())
