"""Greedy construction heuristic: a library heuristic for
``SolveOptions.warm_start``.

The solve pipeline does not run it: the exact search finds the same plans
without it, mostly by rounding at the root.

Each origin carries two ranked facility lists: where it could go if every
vulnerable road were repaired (``full``), and where it can go today on
never-flooded roads only (``flooded``).  Both lists, and the routes, are
read off the per-facility tables of ``compute_sp_tables`` (one reverse
search per facility and arc filter), so the heuristic runs no shortest-path
search of its own.  Origins choose in order of population, largest first.
An origin takes the nearest flooded-passable facility with room; failing
that it falls back to its full list and buys the vulnerable roads along that
route (each road paid for once).  The result may overshoot the budget or
strand an origin — then it is only a diagnostic, never a warm start.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from .ingest import ProblemInstance, capacity_fits, cents, upgrade_cost_cents
from .net import canonical_shortest_path
from .reductions import SpTables, compute_sp_tables


@dataclass(frozen=True)
class DistanceVectors:
    """Ranked (minutes, facility) preferences for one origin.

    ``full`` covers every facility, assuming all vulnerable roads are fixed;
    unreachable ones appear with infinite minutes.  ``flooded`` keeps only
    facilities reachable without any repair.  Both sort by (minutes, id).
    """

    origin: str
    full: tuple[tuple[float, str], ...]
    flooded: tuple[tuple[float, str], ...]


def build_distance_vectors(instance: ProblemInstance, origin: str,
                           tables: SpTables | None = None) -> DistanceVectors:
    tables = tables or compute_sp_tables(instance)
    if origin not in tables.worst_served:
        raise KeyError(f"{origin!r} is not an origin")
    full = tuple(sorted((times.get(origin, math.inf), d)
                        for d, times in tables.upgraded.items()))
    flooded = tuple(sorted((dist, d) for d, times in tables.flooded.items()
                           if (dist := times.get(origin)) is not None))
    return DistanceVectors(origin=origin, full=full, flooded=flooded)


@dataclass
class GreedySolution:
    feasible: bool
    objective: float
    spent: float
    upgrades: tuple[str, ...]
    assignment: dict[str, str]
    paths: dict[str, tuple[str, ...]]
    unassigned: tuple[str, ...] = ()
    residual: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": "Feasible" if self.feasible else "Infeasible",
            "heuristic": True,
            "objective": self.objective,
            "bound": None,
            "gap": None,
            "upgrades": list(self.upgrades),
            "assignment": dict(sorted(self.assignment.items())),
            "paths": {k: list(v) for k, v in sorted(self.paths.items())},
            "stats": {"spent": self.spent,
                      "unassigned": list(self.unassigned)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def greedy_initial(instance: ProblemInstance,
                   tables: SpTables | None = None) -> GreedySolution:
    """Populous-first greedy assignment with on-demand road purchases."""
    tables = tables or compute_sp_tables(instance)
    net = instance.network
    residual = {d.id: d.capacity for d in net.destinations()}
    order = sorted(net.origins(), key=lambda o: (-o.residents, o.id))
    bought: set[str] = set()
    assignment: dict[str, str] = {}
    paths: dict[str, tuple[str, ...]] = {}
    unassigned: list[str] = []
    objective = 0.0

    for origin in order:
        vectors = build_distance_vectors(instance, origin.id, tables)
        placed = False
        for minutes, dest in vectors.flooded:
            if not capacity_fits(origin.residents, residual[dest]):
                continue
            found = canonical_shortest_path(
                net, origin.id, dest, net.vulnerable_ids,
                dist_to_target=tables.flooded[dest])
            if found is None:  # pragma: no cover - table said reachable
                continue
            residual[dest] -= origin.residents
            assignment[origin.id] = dest
            paths[origin.id] = found[1]
            objective += origin.weight * found[0]
            placed = True
            break
        if not placed:
            for minutes, dest in vectors.full:
                if not math.isfinite(minutes):
                    break  # sorted: everything after is unreachable too
                if not capacity_fits(origin.residents, residual[dest]):
                    continue
                found = canonical_shortest_path(
                    net, origin.id, dest, dist_to_target=tables.upgraded[dest])
                if found is None:  # pragma: no cover
                    continue
                residual[dest] -= origin.residents
                assignment[origin.id] = dest
                paths[origin.id] = found[1]
                objective += origin.weight * found[0]
                bought.update(a for a in found[1] if net.arcs[a].vulnerable)
                placed = True
                break
        if not placed:
            unassigned.append(origin.id)

    spent_cents = upgrade_cost_cents(net, bought,
                                     instance.spec.segment_coupling)
    feasible = not unassigned and spent_cents <= cents(instance.budget)
    return GreedySolution(
        feasible=feasible, objective=objective, spent=spent_cents / 100.0,
        upgrades=tuple(sorted(bought)), assignment=assignment, paths=paths,
        unassigned=tuple(unassigned), residual=residual)
