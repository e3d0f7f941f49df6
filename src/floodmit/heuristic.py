"""Greedy construction heuristic: a library heuristic for
``SolveOptions.warm_start``.

The solve pipeline does not run it: the exact search finds the same plans
without it, mostly by rounding at the root.

Each origin ranks the facilities it reaches
(``GraphIndex.facility_ranking``) twice: today, on never-flooded roads
only, and with every vulnerable road repaired.  Both rankings, and the
routes (``GraphIndex.canonical_walk``), are read off the numbered
per-facility tables of ``compute_sp_tables`` (one reverse search per
facility per closed set), so the heuristic runs no shortest-path search
of its own.  Origins choose in order of population, largest first.  An
origin takes the nearest flooded-passable facility with room; failing
that it falls back to the repaired ranking and buys the vulnerable roads
along that route (each road paid for once).  The result, in ids, may
overshoot the budget or strand an origin — then it is only a diagnostic,
never a warm start.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ingest import ProblemInstance, capacity_fits, cents, upgrade_cost_cents
from .reductions import compute_sp_tables


@dataclass
class GreedySolution:
    feasible: bool
    objective: float
    spent: float
    upgrades: tuple[str, ...]
    assignment: dict[str, str]
    paths: dict[str, tuple[str, ...]]
    unassigned: tuple[str, ...] = ()


def greedy_initial(instance: ProblemInstance) -> GreedySolution:
    """Populous-first greedy assignment with on-demand road purchases."""
    tables = compute_sp_tables(instance)
    net = instance.network
    g = net.index()
    residual = dict(zip(g.dests, (d.capacity for d in net.destinations())))
    order = sorted(net.origins(), key=lambda o: (-o.residents, o.id))
    flooded = g.arcs_of(net.vulnerable_ids)
    bought: set[str] = set()
    assignment: dict[str, str] = {}
    paths: dict[str, tuple[str, ...]] = {}
    unassigned: list[str] = []
    objective = 0.0

    for origin in order:
        k = g.node_no[origin.id]
        # flood-free roads first, then all roads, buying the vulnerable ones
        for closed, times in ((flooded, tables.flooded),
                              (frozenset(), tables.upgraded)):
            nearest = next((pair for pair in g.facility_ranking(times, k)
                            if capacity_fits(origin.residents,
                                             residual[pair[1]])), None)
            if nearest is not None:
                break
        else:
            unassigned.append(origin.id)
            continue
        minutes, dest = nearest
        walk = g.canonical_walk(k, dest, closed, times[dest])[0]
        path = tuple(g.arc_ids[a] for a in walk)
        residual[dest] -= origin.residents
        assignment[origin.id] = g.node_ids[dest]
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
