"""Spans and counters around floodmit's public functions, for the traced run.

Each hook replaces a public function at the module attribute its caller
looks it up by, so ``solve_pipeline`` and the analysis commands reach the
wrapper without any change to the program.  Spans live in memory (name,
start, end, parent span, pass and operation) and are written out when the
run ends.  Counters come from the functions' own return values.  The
originals are put back when ``installed()`` exits.  No private ``_``
function is wrapped, so ``solve_exact`` is one span: splitting it into
assignment and shortest-path time needs a clock inside the program.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable

from floodmit import analysis, pipeline
from floodmit.solver import SOLVED, SolveStatus

#: (module, attribute, span name)
HOOKS = (
    (pipeline, "prune_all", "prune"),
    (pipeline, "compute_sp_tables", "reductions.sp_tables"),
    (pipeline, "standard_reductions", "reductions"),
    (pipeline, "greedy_initial", "heuristic"),
    (pipeline, "solve_exact", "solver"),
    (pipeline, "expand_solution", "prune.lift"),
    (analysis, "solve_pipeline", "pipeline"),
    (analysis, "shortest_paths", "net.shortest_paths"),
)

NO_PLAN = (SolveStatus.BUDGET_DISCONNECTED.value, SolveStatus.INFEASIBLE.value)


def _counters(name: str, result: Any) -> dict[str, Any]:
    """What a span records about its call's result."""
    if name == "prune":
        return {"arcs_removed": result.stats.original["arcs"]
                - result.stats.final["arcs"]}
    if name == "reductions":
        return {"masked_pairs": len(result[1])}
    if name == "heuristic":
        return {"feasible": result.feasible}
    if name == "solver":
        return {"status": result.status.value,
                "nodes": result.stats.get("nodes_explored", 0),
                "incumbent_updates": result.stats.get("incumbent_updates", 0)}
    if name == "pipeline":
        raw, greedy = result.raw_solution, result.greedy
        if greedy is not None and greedy.feasible and raw.status in SOLVED \
                and raw.objective:
            return {"greedy_excess": (greedy.objective - raw.objective)
                    / raw.objective}
        return {}
    if name == "net.shortest_paths":
        return {"labels": len(result)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.passes = 0
        self._open: list[int] = []
        self._op: str | None = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._open[-1] if self._open else None,
                    "pass": self.passes, "op": self._op}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            span.update(_counters(name, result))
            return result
        return traced

    @contextmanager
    def operation(self, label: str):
        """Group the spans of one operation (a town solve, a sweep, an ewtt run)."""
        self._op = label
        try:
            yield
        finally:
            self._op = None

    @contextmanager
    def installed(self):
        """Hook every public function in HOOKS for one traced pass."""
        self.passes += 1
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _ in HOOKS]
        for module, attr, name in HOOKS:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, duration: Callable[[dict[str, Any]], float],
                  ingest_s: float, arcs_loaded: int, overhead_s: float,
                  untraced_pass_s: float) -> dict[str, float]:
    """Per-layer metrics, per traced pass.  A layer that never ran reads 0.

    ``duration`` gives a span's duration on the scale of ``untraced_pass_s``.
    """
    spans = tracer.spans
    passes = max(tracer.passes, 1)

    def of(*names: str, op: str | None = None) -> list[dict[str, Any]]:
        return [s for s in spans if s["name"] in names
                and (op is None or s["op"] == op)]

    def busy(*names: str, op: str | None = None) -> float:
        return sum(duration(s) for s in of(*names, op=op)) / passes

    def total(key: str, *names: str) -> float:
        return sum(s.get(key, 0) for s in of(*names)) / passes

    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + duration(s)
    pipeline_self = sum(duration(s) - children.get(i, 0.0)
                        for i, s in enumerate(spans) if s["name"] == "pipeline")
    greedy = of("heuristic")
    excess = [s["greedy_excess"] for s in of("pipeline") if "greedy_excess" in s]
    solver_s = busy("solver")
    nodes = total("nodes", "solver")
    sp_s = busy("net.shortest_paths")
    labels = total("labels", "net.shortest_paths")
    return {
        "ingest.busy_s": ingest_s,
        "ingest.arcs_per_s": arcs_loaded / ingest_s,
        "prune.busy_s": busy("prune"),
        "prune.arcs_removed": total("arcs_removed", "prune"),
        "prune.lift_s": busy("prune.lift"),
        "reductions.busy_s": busy("reductions.sp_tables", "reductions"),
        "reductions.masked_pairs": total("masked_pairs", "reductions"),
        "heuristic.busy_s": busy("heuristic"),
        "heuristic.warm_start_share": (sum(s["feasible"] for s in greedy)
                                       / len(greedy)) if greedy else 0.0,
        "heuristic.excess": sum(excess) / len(excess) if excess else 0.0,
        "solver.busy_s": solver_s,
        "solver.nodes": nodes,
        "solver.incumbent_updates": total("incumbent_updates", "solver"),
        "solver.ms_per_node": 1000.0 * solver_s / nodes if nodes else 0.0,
        "solver.busy_s.g14": busy("solver", op="g14"),
        "solver.busy_s.g18": busy("solver", op="g18"),
        "solver.busy_s.g20": busy("solver", op="g20"),
        "solver.no_plan_s": sum(duration(s) for s in of("solver")
                                if s.get("status") in NO_PLAN) / passes,
        "pipeline.calls": len(of("pipeline")) / passes,
        "pipeline.self_s": pipeline_self / passes,
        "analysis.rebuild_s": busy("prune", "reductions.sp_tables",
                                   "reductions", "heuristic", op="sweep"),
        "net.sp_calls": len(of("net.shortest_paths")) / passes,
        "net.sp_s": sp_s,
        "net.labels_per_s": labels / sp_s if sp_s else 0.0,
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / untraced_pass_s,
    }
