"""Greedy construction heuristic: a library heuristic for
``SolveOptions.warm_start``.

The solve pipeline does not run it: the exact search finds the same plans
without it, mostly by rounding at the root.

Each origin carries two ranked facility lists: where it could go if every
vulnerable road were repaired (``full``), and where it can go today on
never-flooded roads only (``flooded``).  Both lists, and the routes, are
read off the per-facility tables of ``compute_sp_tables`` (one reverse
search per facility per closed set), so the heuristic runs no shortest-path
search of its own.  Origins choose in order of population, largest first.
An origin takes the nearest flooded-passable facility with room; failing
that it falls back to its full list and buys the vulnerable roads along that
route (each road paid for once).  The result may overshoot the budget or
strand an origin — then it is only a diagnostic, never a warm start.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
        # flood-free roads first, then all roads, buying the vulnerable ones
        for ranked, closed, times in (
                (vectors.flooded, net.vulnerable_ids, tables.flooded),
                (vectors.full, frozenset(), tables.upgraded)):
            dest = next((d for minutes, d in ranked if math.isfinite(minutes)
                         and capacity_fits(origin.residents, residual[d])),
                        None)
            if dest is not None:
                break
        else:
            unassigned.append(origin.id)
            continue
        minutes, path = canonical_shortest_path(
            net, origin.id, dest, closed, dist_to_target=times[dest])
        residual[dest] -= origin.residents
        assignment[origin.id] = dest
        paths[origin.id] = path
        objective += origin.weight * minutes
        bought.update(a for a in path if net.arcs[a].vulnerable)

    spent_cents = upgrade_cost_cents(net, bought,
                                     instance.spec.segment_coupling)
    feasible = not unassigned and spent_cents <= cents(instance.budget)
    return GreedySolution(
        feasible=feasible, objective=objective, spent=spent_cents / 100.0,
        upgrades=tuple(sorted(bought)), assignment=assignment, paths=paths,
        unassigned=tuple(unassigned))
