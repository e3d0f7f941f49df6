"""Workload definitions, seeded inputs, timed passes and answer checks.

A workload is a fixed set of towns from ``floodmit.synth`` plus the library
calls one CLI command makes on them.  The ``--seed`` of a run renames every
node and arc of every town and shuffles the file's records before the town is
written as a network JSON file; seed 0 keeps the generator's ids.  The new
ids keep the old ids' sort order.  floodmit breaks every tie by id, so a
renamed town takes the same search path, and its answers map back through
the renaming to the answers recorded in ``reference.json``, byte for byte.
A renaming that reorders ids would change the search: the sweep's
disconnection proof walks units in id order, and one such renaming of the
demo town took 1.8 s on one seed and 8.8 s on another, which would turn the
seed into the main source of run-to-run spread.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from floodmit import analysis, synth
from floodmit.ingest import InstanceSpec, ProblemInstance, instance_from_file
from floodmit.pipeline import solve_pipeline
from floodmit.solver import SOLVED, SolveOptions, SolveStatus, validate_solution

#: per-operation solver time limit; far above today's slowest solve (g14
#: tight, ~13 s) so that a regression shows up as a failure, not a hang
TIME_LIMIT_S = 60.0
OBJECTIVE_TOL = 1e-6
SWEEP_FRACTIONS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 1.0)

#: town name -> generator call; g-towns are grid_network_file(n, n, seed,
#: n_facilities=3), "demo" is the README town
TOWNS: dict[str, Callable[[], dict[str, Any]]] = {
    "g14": lambda: synth.grid_network_file(14, 14, 2, n_facilities=3),
    "g18": lambda: synth.grid_network_file(18, 18, 0, n_facilities=3),
    "g20": lambda: synth.grid_network_file(20, 20, 0, n_facilities=3),
    "demo": lambda: synth.demo_network_file(0),
    "t5": lambda: synth.grid_network_file(5, 5, 5, n_facilities=2),
    "t6": lambda: synth.grid_network_file(6, 6, 0, n_facilities=2),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "solve", "sweep" or "ewtt"
    towns: tuple[str, ...]
    alpha: float


WORKLOADS = {w.name: w for w in (
    Workload("solve-tight", "solve", ("g14", "g18", "g20"), 0.15),
    Workload("solve-loose", "solve", ("g14", "g18", "g20"), 3.0),
    Workload("sweep-demo", "sweep", ("demo",), 0.15),
    Workload("ewtt-g18", "ewtt", ("g18",), 0.15),
)}

#: tiny towns of every kind, for ``run.py --smoke``
SMOKE_WORKLOADS = {w.name: w for w in (
    Workload("smoke-solve", "solve", ("t5", "t6"), 0.15),
    Workload("smoke-sweep", "sweep", ("t6",), 0.15),
    Workload("smoke-ewtt", "ewtt", ("t6",), 0.15),
)}


# -- seeded inputs ------------------------------------------------------------


@dataclass
class Labels:
    """Maps renamed node and arc ids back to the generator's ids."""

    back: dict[str, str] = field(default_factory=dict)

    def arc(self, aid: str) -> str:
        # two-way roads load as a file arc plus a reverse arc "<id>__r"
        base, suffix = (aid[:-3], "__r") if aid.endswith("__r") else (aid, "")
        return self.back.get(base, base) + suffix

    def arcs(self, aids) -> tuple[str, ...]:
        return tuple(self.arc(a) for a in aids)


def _renaming(ids: list[str], prefix: str, rng: random.Random) -> dict[str, str]:
    """Fixed-width ids with random gaps, in the same sort order as ``ids``."""
    out: dict[str, str] = {}
    number = 0
    for old in sorted(ids):
        number += rng.randint(1, 999)
        out[old] = f"{prefix}{number:08d}"
    return out


def relabel(data: dict[str, Any], seed: int) -> tuple[dict[str, Any], Labels]:
    """The same town under seeded ids and record order."""
    if seed == 0:
        return data, Labels()
    rng = random.Random(seed)
    node_new = _renaming([n["id"] for n in data["nodes"]], "v", rng)
    arc_new = _renaming([a["id"] for a in data["arcs"]], "r", rng)
    nodes = [dict(n, id=node_new[n["id"]]) for n in data["nodes"]]
    arcs = [dict(a, id=arc_new[a["id"]], **{"from": node_new[a["from"]],
                                            "to": node_new[a["to"]]})
            for a in data["arcs"]]
    rng.shuffle(nodes)
    rng.shuffle(arcs)
    out = dict(data, nodes=nodes, arcs=arcs,
               facilities=sorted(node_new[f] for f in data["facilities"]))
    back = {new: old for old, new in (*node_new.items(), *arc_new.items())}
    return out, Labels(back)


def write_inputs(workload: Workload, seed: int, directory: Path
                 ) -> tuple[dict[str, Path], dict[str, Labels]]:
    """Write the workload's towns as network files; the program reads only these."""
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    labels: dict[str, Labels] = {}
    for town in workload.towns:
        data, labels[town] = relabel(TOWNS[town](), seed)
        paths[town] = directory / f"{town}.json"
        paths[town].write_text(json.dumps(data, sort_keys=True) + "\n")
    return paths, labels


def load_instances(workload: Workload,
                   paths: dict[str, Path]) -> dict[str, ProblemInstance]:
    spec = InstanceSpec(alpha=workload.alpha)
    return {town: instance_from_file(path, spec) for town, path in paths.items()}


# -- one timed pass -----------------------------------------------------------


@dataclass
class Op:
    """One operation: a town solve, a sweep fraction or an ewtt run."""

    label: str
    failure: str | None = None


@dataclass
class Pass:
    start: float                # perf_counter at the start of the timed region
    end: float
    ops: list[Op]
    answers: dict[str, Any]     # in reference.json form, ids mapped back

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_pass(workload: Workload, instances: dict[str, ProblemInstance],
             reference: dict[str, Any] | None, labels: dict[str, Labels],
             tracer=None) -> Pass:
    """Time one pass over the workload's operations, then check every answer.

    Only the library calls sit inside the timed region; checks run after.
    """
    options = SolveOptions(time_limit_s=TIME_LIMIT_S)
    op_scope = tracer.operation if tracer is not None else (lambda _label: nullcontext())
    if workload.kind == "solve":
        solve = tracer.wrap("pipeline", solve_pipeline) if tracer else solve_pipeline
        results: dict[str, Any] = {}
        start = time.perf_counter()
        for town, inst in instances.items():
            with op_scope(town):
                try:
                    results[town] = solve(inst, options=options)
                except Exception as exc:  # a crash is a failed operation
                    results[town] = exc
        when = (start, time.perf_counter())
        return _check_solves(instances, results, reference, labels, when)

    (town, inst), = instances.items()
    if workload.kind == "sweep":
        calls: list[tuple[ProblemInstance, Any]] = []
        with _recording_pipeline(calls):
            start = time.perf_counter()
            with op_scope("sweep"):
                try:
                    rows: Any = analysis.budget_sweep(inst, SWEEP_FRACTIONS,
                                                      options=options)
                except Exception as exc:
                    rows = exc
            when = (start, time.perf_counter())
        return _check_sweep(rows, calls, reference, labels[town], when)

    start = time.perf_counter()
    with op_scope("ewtt"):
        try:
            ranked: Any = analysis.ewtt_ranking(inst)
            critical = analysis.connectivity_critical(inst, [r.arc for r in ranked])
        except Exception as exc:
            ranked, critical = exc, ()
    when = (start, time.perf_counter())
    return _check_ewtt(ranked, critical, reference, labels[town], when)


@contextmanager
def _recording_pipeline(calls: list):
    """Keep (instance, result) of each pipeline call a sweep makes.

    ``budget_sweep`` returns rows without routes; the recorded solutions are
    what ``validate_solution`` checks.  The cost is one list append per call.
    """
    inner = analysis.solve_pipeline

    def recorded(instance, *args, **kwargs):
        result = inner(instance, *args, **kwargs)
        calls.append((instance, result))
        return result

    analysis.solve_pipeline = recorded
    try:
        yield
    finally:
        analysis.solve_pipeline = inner


# -- answer checks ------------------------------------------------------------


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= OBJECTIVE_TOL


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_solves(instances, results, reference, labels: dict[str, Labels],
                  when: tuple[float, float]) -> Pass:
    ops: list[Op] = []
    answers: dict[str, Any] = {}
    for town, inst in instances.items():
        op = Op(town)
        ops.append(op)
        res = results[town]
        if isinstance(res, Exception):
            op.failure = f"raised {res!r}"
            continue
        sol = res.solution
        answers[town] = got = {"status": sol.status.value,
                               "objective": sol.objective,
                               "upgrades": list(labels[town].arcs(sol.upgrades))}
        report = validate_solution(inst, sol)
        if sol.status is not SolveStatus.OPTIMAL:
            op.failure = f"status {sol.status.value}"
        elif not report.ok:
            op.failure = f"invalid plan: {report}"
        elif reference is not None:
            want = reference[town]
            if not _close(got["objective"], want["objective"]):
                op.failure = (f"objective {got['objective']!r} != reference "
                              f"{want['objective']!r}")
            elif got["upgrades"] != want["upgrades"]:
                op.failure = f"upgrades {got['upgrades']} != reference {want['upgrades']}"
    return Pass(*when, ops, answers)


def _check_sweep(rows, calls, reference, labels: Labels,
                 when: tuple[float, float]) -> Pass:
    ops = [Op(f"f={f:g}") for f in SWEEP_FRACTIONS]
    if isinstance(rows, Exception):
        for op in ops:
            op.failure = f"sweep raised {rows!r}"
        return Pass(*when, ops, {})
    answers = {
        "rows": [{"fraction": r.fraction, "status": r.status.value,
                  "objective": r.objective} for r in rows],
        "csv_sha256": _sha(analysis.sweep_csv(
            [dataclasses.replace(r, upgrades=labels.arcs(r.upgrades))
             for r in rows])),
    }
    # the first pipeline call is the full-budget floor, then one per fraction
    solved = calls[1:]
    if len(rows) != len(ops) or len(solved) != len(rows):
        for op in ops:
            op.failure = f"sweep returned {len(rows)} rows from {len(calls)} solves"
        return Pass(*when, ops, answers)
    last: float | None = None
    for i, (op, row, (inst, result)) in enumerate(zip(ops, rows, solved)):
        report = validate_solution(inst, result.solution) \
            if row.status in SOLVED else None
        if row.status is SolveStatus.TIME_LIMIT:
            op.failure = "status TimeLimit"
        elif report is not None and not report.ok:
            op.failure = f"invalid plan: {report}"
        elif row.objective is not None and last is not None \
                and row.objective > last + OBJECTIVE_TOL:
            op.failure = f"objective {row.objective!r} rose above {last!r}"
        elif reference is not None:
            want = reference["rows"][i]
            if row.status.value != want["status"] or \
                    not _close(row.objective, want["objective"]):
                op.failure = (f"{row.status.value} {row.objective!r} != reference "
                              f"{want['status']} {want['objective']!r}")
        if row.objective is not None:
            last = row.objective
    if reference is not None and answers["csv_sha256"] != reference["csv_sha256"]:
        for op in ops:
            op.failure = op.failure or "sweep CSV sha256 differs from reference"
    return Pass(*when, ops, answers)


def _check_ewtt(ranked, critical, reference, labels: Labels,
                when: tuple[float, float]) -> Pass:
    op = Op("ewtt")
    if isinstance(ranked, Exception):
        op.failure = f"raised {ranked!r}"
        return Pass(*when, [op], {})
    answers = {
        "critical": list(labels.arcs(critical)),
        "csv_sha256": _sha(analysis.ewtt_csv(
            [dataclasses.replace(r, arc=labels.arc(r.arc),
                                 segment=labels.arc(r.segment))
             for r in ranked])),
    }
    if reference is not None:
        if answers["csv_sha256"] != reference["csv_sha256"]:
            op.failure = "ewtt CSV sha256 differs from reference"
        elif answers["critical"] != reference["critical"]:
            op.failure = (f"connectivity-critical {answers['critical']} "
                          f"!= reference {reference['critical']}")
    return Pass(*when, [op], answers)
