"""Spans recorded from outside wittkit, by wrapping the public functions of
each module for the length of one traced pass.

A span has a name, a start and an end (``perf_counter_ns``), a parent span
and the id of the CLI op it belongs to.  A span's self time is its duration
minus the time its child spans cover.  Each span name belongs to one layer
(``poly``, ``fields``, ``derivations``, ``linalg``, ``engine``, ``textio``,
``cli``); ``trace`` spans hold the tracer's own counting, so that it shows
in no layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Any, Callable

# (module, attribute path, span name).  A module-level function is replaced
# in every wittkit module that imported it by name, so that calls from
# ``cli`` and calls between functions of one module are both seen.
TARGETS = (
    ("wittkit.poly", "Polynomial.__mul__", "poly.mul"),
    ("wittkit.poly", "Polynomial.partial", "poly.partial"),
    ("wittkit.fields", "VectorField.bracket", "fields.bracket"),
    ("wittkit.fields", "TruncationWindow.term_basis", "fields.term_basis"),
    ("wittkit.derivations", "SubspaceSpec.__init__", "derivations.subspace"),
    ("wittkit.derivations", "SubspaceSpec.span_window", "derivations.subspace"),
    ("wittkit.derivations", "DerivationSpec.__init__", "derivations.spec"),
    ("wittkit.derivations", "centralizer", "derivations.centralizer"),
    ("wittkit.derivations", "submodule_closure", "derivations.closure"),
    ("wittkit.derivations", "h1_dimension", "derivations.h1"),
    ("wittkit.derivations", "h1_report", "derivations.h1"),
    ("wittkit.derivations", "solve_inner", "derivations.solve_inner"),
    ("wittkit.derivations", "stabilization_scan", "derivations.stabilize"),
    ("wittkit.linalg", "RationalMatrix.from_rows", "linalg.from_rows"),
    ("wittkit.linalg", "rank", "linalg.rank"),
    ("wittkit.linalg", "kernel", "linalg.kernel"),
    ("wittkit.linalg", "solve", "linalg.solve"),
    ("wittkit.linalg", "solve_many", "linalg.solve_many"),
    ("wittkit.linalg", "rref", "linalg.rref"),
    ("wittkit.linalg", "RowSpace.add", "linalg.rowspace_add"),
    ("wittkit._elim_py", "eliminate", "engine.eliminate"),
    ("wittkit._elim", "eliminate", "engine.eliminate_compiled"),   # only when built
    ("wittkit.textio", "parse_field", "textio.parse"),
    ("wittkit.textio", "parse_poly", "textio.parse"),
    ("wittkit.textio", "print_field", "textio.print"),
    ("wittkit.textio", "print_poly", "textio.print"),
    ("wittkit.textio", "to_obj", "textio.to_obj"),
    ("wittkit.textio", "inner_result_to_obj", "textio.to_obj"),
    ("wittkit.textio", "report_to_obj", "textio.to_obj"),
)

ROOT = "cli.main"
SOLVE = ("linalg.rank", "linalg.kernel", "linalg.solve", "linalg.solve_many", "linalg.rref")
ELIMINATE = ("engine.eliminate", "engine.eliminate_compiled")


def counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that count work (every name not ending in ``_s``/``.s``);
    they must repeat exactly from one traced pass to the next."""
    return {k: v for k, v in metrics.items() if not k.endswith(("_s", ".s"))}


class Tracer:
    """Records spans while installed; ``restore`` puts every original back."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, after: Callable[[Any, tuple], None] | None = None) -> Callable:
        """``fn`` recording one span per call; ``after(result, args)`` runs in
        a ``trace.count`` span once the call's span is closed."""
        nid = self._name_id(name)
        count_id = self._name_id("trace.count")
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack)
        now = time.perf_counter_ns
        tracer = self

        def open_span(sid: int) -> int:
            i = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(i)
            starts.append(now())
            return i

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = now()
                stack.pop()
            if after is not None:
                j = open_span(count_id)
                after(result, args)
                ends[j] = now()
                stack.pop()
            return result

        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target of the wittkit modules imported now."""
        for module_name, path, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                if module_name == "wittkit._elim":
                    continue
                raise RuntimeError(f"{module_name} is not imported")
            after = self._after(name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._patch(owner, attr, staticmethod(self.wrap(raw.__func__, name, after)))
                else:
                    self._patch(owner, attr, self.wrap(raw, name, after))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(original, name, after)
            if name == "engine.eliminate_compiled":
                wrapped = self._count_overflow(wrapped)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "wittkit" and mod is not None:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _after(self, name: str) -> Callable[[Any, tuple], None] | None:
        counters = self.counters
        if name == "linalg.from_rows":
            def count_cells(m, args) -> None:
                counters["linalg.cells"] += m.rows * m.cols
                counters["linalg.nnz"] += sum(map(bool, m.entries))
                counters["linalg.max_cols"] = max(counters["linalg.max_cols"], m.cols)
            return count_cells
        if name in ELIMINATE:
            def count_rows(pivots, args) -> None:
                counters["linalg.eliminate_rows"] += len(args[0])
            return count_rows
        return None

    def _count_overflow(self, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except OverflowError:
                counters["linalg.overflow_fallbacks"] += 1
                raise
        return wrapper

    # -- reading -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded, in seconds and counts."""
        n = len(self.start)
        names = [self.names[i] for i in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        layer_self: Counter = Counter()
        self_by_name: Counter = Counter()
        calls: Counter = Counter(names)
        for i in range(n):
            s = dur[i] - child[i]
            layer_self[names[i].split(".")[0]] += s
            self_by_name[names[i]] += s

        def inside(group: tuple[str, ...]) -> list[bool]:
            """Whether each span is a group span or lies inside one."""
            flags = [False] * n
            for i in range(n):
                p = self.parent[i]
                flags[i] = names[i] in group or (p >= 0 and flags[p])
            return flags

        def outer_s(group: tuple[str, ...]) -> float:
            """Time in group spans that have no ancestor in the group."""
            flags = inside(group)
            return sum(dur[i] for i in range(n) if names[i] in group
                       and not (self.parent[i] >= 0 and flags[self.parent[i]])) / 1e9

        in_solve = inside(SOLVE)
        solve_calls = sum(1 for i in range(n) if names[i] in SOLVE
                          and not (self.parent[i] >= 0 and in_solve[self.parent[i]]))
        eliminate_in_solve = sum(dur[i] for i in range(n) if names[i] in ELIMINATE and in_solve[i]) / 1e9
        solve_s = outer_s(SOLVE)
        c = self.counters
        out = {
            "poly.mul_calls": calls["poly.mul"],
            "poly.partial_calls": calls["poly.partial"],
            "poly.s": layer_self["poly"] / 1e9,
            "fields.bracket_calls": calls["fields.bracket"],
            "fields.bracket_s": outer_s(("fields.bracket",)),
            "fields.bracket_self_s": self_by_name["fields.bracket"] / 1e9,
            "fields.term_basis_s": outer_s(("fields.term_basis",)),
            "fields.self_s": layer_self["fields"] / 1e9,
            "derivations.self_s": layer_self["derivations"] / 1e9,
            "derivations.subspace_s": outer_s(("derivations.subspace",)),
            "linalg.matrices": calls["linalg.from_rows"],
            "linalg.cells": c["linalg.cells"],
            "linalg.nnz_ratio": c["linalg.nnz"] / c["linalg.cells"] if c["linalg.cells"] else 0.0,
            "linalg.max_cols": c["linalg.max_cols"],
            "linalg.from_rows_s": outer_s(("linalg.from_rows",)),
            "linalg.solve_calls": solve_calls,
            "linalg.solve_s": solve_s,
            "linalg.scale_readout_s": solve_s - eliminate_in_solve,
            "linalg.rowspace_add_calls": calls["linalg.rowspace_add"],
            "linalg.rowspace_add_s": outer_s(("linalg.rowspace_add",)),
            "linalg.self_s": layer_self["linalg"] / 1e9,
            "linalg.eliminate_calls": calls["engine.eliminate"] + calls["engine.eliminate_compiled"],
            "linalg.eliminate_rows": c["linalg.eliminate_rows"],
            "linalg.eliminate_s": layer_self["engine"] / 1e9,
            "linalg.overflow_fallbacks": c["linalg.overflow_fallbacks"],
            "textio.s": layer_self["textio"] / 1e9,
            "cli.self_s": layer_self["cli"] / 1e9,
        }
        return out

    def artifact(self, argvs: list[list[str]]) -> dict:
        """Every span, for writing out beside the result."""
        return {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [list(s) for s in zip(self.name, self.start, self.end, self.parent, self.op)],
            "ops": argvs,
            "counters": dict(self.counters),
        }


