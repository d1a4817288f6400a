"""Span tracer that wraps the module bindings callers look up.

The library is not instrumented.  Instead, entering a ``Tracer`` context
replaces the names that each module of ``mrdeadlock`` looks up at call time
(for example ``mrdeadlock.sim.solve_qp``) with timing wrappers, and leaving
it puts the original functions back.  A function bound in several modules gets
one wrapper per binding, all recording under the same span name.

Every call records a span (name, start, end, parent span, run id).  Spans
are kept in memory, up to ``MAX_SPANS`` (a parent id may then name a span
that was not kept), and written out by ``write_spans``.
Aggregates are kept for every call, also past the span cap: call count,
total time and self time (duration minus the time covered by child spans),
keyed by (span name, result class, tag).  The result class comes from an
optional classifier of the return value (for example the working-set size
of a QP solution); the tag is set by the caller (for example the ring size
of the scenario being run).
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

# (module, attribute, span name): every binding through which one layer
# calls another during simulation, audit and census.
BINDINGS = (
    ("mrdeadlock.sim", "run_scenario", "sim.run_scenario"),
    ("mrdeadlock.sim", "integrate_step", "sim.integrate_step"),
    ("mrdeadlock.sim", "export_log", "sim.export_log"),
    ("mrdeadlock.sim", "load_log", "sim.load_log"),
    ("mrdeadlock.sim", "audit_log", "sim.audit_log"),
    ("mrdeadlock.sim", "assemble_qp", "cbf.assemble_qp"),
    ("mrdeadlock.sim", "safety_index_signed", "cbf.safety_index_signed"),
    ("mrdeadlock.sim", "min_pair_distance", "cbf.min_pair_distance"),
    ("mrdeadlock.sim", "pd_control", "core.pd_control"),
    ("mrdeadlock.sim", "system_deadlock", "deadlock.system_deadlock"),
    ("mrdeadlock.sim", "solve_qp", "qp.solve_qp"),
    ("mrdeadlock.sim", "verify_kkt", "qp.verify_kkt"),
    ("mrdeadlock.sim", "supervisor_step", "resolution.supervisor_step"),
    ("mrdeadlock.resolution", "assemble_qp", "cbf.assemble_qp"),
    ("mrdeadlock.resolution", "safety_index_signed", "cbf.safety_index_signed"),
    ("mrdeadlock.resolution", "pd_control", "core.pd_control"),
    ("mrdeadlock.resolution", "system_deadlock", "deadlock.system_deadlock"),
    ("mrdeadlock.resolution", "solve_qp", "qp.solve_qp"),
    ("mrdeadlock.cbf", "decentralized_rows", "cbf.decentralized_rows"),
    ("mrdeadlock.cbf", "pd_control", "core.pd_control"),
    ("mrdeadlock.deadlock", "assemble_qp", "cbf.assemble_qp"),
    ("mrdeadlock.deadlock", "safety_index_signed", "cbf.safety_index_signed"),
    ("mrdeadlock.deadlock", "pd_control", "core.pd_control"),
    ("mrdeadlock.deadlock", "solve_qp", "qp.solve_qp"),
    ("mrdeadlock.graphenum", "census_table", "graphenum.census_table"),
    ("mrdeadlock.graphenum", "enumerate_connected", "graphenum.enumerate_connected"),
    ("mrdeadlock.graphenum", "embed_graph", "graphenum.embed_graph"),
    ("mrdeadlock.graphenum", "minimize", "graphenum.minimize"),
)


MAX_SPANS = 250_000
_RAISED = object()


def _working_set(sol) -> str:
    if sol.status != "optimal":
        return "infeasible"
    return f"ws{sum(1 for mu in sol.mu_star if mu > 0.0)}"


# Result classifiers: the per-layer ratios are counted from return values.
CLASSIFIERS = {
    "qp.solve_qp": _working_set,
    "deadlock.system_deadlock": lambda verdict: "true" if verdict else "false",
    "graphenum.embed_graph": lambda res: "feasible" if res.feasible else "infeasible",
    "resolution.supervisor_step": lambda out: f"phase{int(out[2]['phase'])}",
}


class Tracer:
    """In-memory spans and per-(name, class, tag) aggregates of wrapped calls."""

    def __init__(self):
        self.run_id = 0
        self.tag: object = None              # set by the caller around each call it makes
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per recorded span, in the order the spans end
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_run = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        # (name, class, tag) -> [calls, total seconds, self seconds]
        self.agg: dict[tuple[str, str, object], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[int] = []          # span ids of the open calls
        self._child: list[float] = []        # child time accumulated per open call
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        """Wrap every binding in BINDINGS; the originals come back on exit."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, func, span: str):
        name_id = self._name_ids.setdefault(span, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span)
        classify = CLASSIFIERS.get(span)
        stack, child, agg = self._stack, self._child, self.agg
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            child.append(0.0)
            result = _RAISED
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                self._record(span_id, name_id, parent, start, end)
                if result is _RAISED:
                    cls = "raised"
                else:
                    cls = classify(result) if classify else ""
                entry = agg[(span, cls, self.tag)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - inner

        traced.__wrapped__ = func
        return traced

    def _record(self, span_id: int, name_id: int, parent: int, start: float, end: float) -> None:
        if len(self.span_start) >= MAX_SPANS:
            self.spans_dropped += 1
            return
        self.span_id.append(span_id)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_run.append(self.run_id)
        self.span_start.append(start)
        self.span_end.append(end)

    # -- queries ----------------------------------------------------------

    def stat(self, name: str, field: str, cls: str | None = None, where=None) -> float:
        """Sum of "calls", "total" or "self" over the aggregates of one span name.

        ``cls`` selects one result class; ``where`` is a predicate on the tag.
        """
        index = ("calls", "total", "self").index(field)
        return sum(
            v[index] for (n, c, t), v in self.agg.items()
            if n == name and (cls is None or c == cls) and (where is None or where(t))
        )

    def call_counts(self) -> dict[tuple[str, str, object], int]:
        """Exact work counts, for comparing two executions of the same inputs."""
        return {key: v[0] for key, v in self.agg.items()}

    def write_spans(self, path) -> int:
        """Write the recorded spans as CSV, times relative to the first span; returns the row count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,span,parent,name,start_s,end_s\n")
            origin = min(self.span_start, default=0.0)
            for k in range(len(self.span_start)):
                fh.write(
                    f"{self.span_run[k]},{self.span_id[k]},{self.span_parent[k]},{self.names[self.span_name[k]]},"
                    f"{self.span_start[k] - origin:.9f},{self.span_end[k] - origin:.9f}\n"
                )
        return len(self.span_start)
