"""Exact optimization: which vulnerable roads to upgrade, and who goes where.

The solver enumerates upgrade decisions in a best-first branch-and-bound:

* branch on purchase units (one vulnerable arc, or one two-way segment when
  segment costs are coupled), picking at each node the unit with the largest
  rider weight × unit cost on the relaxed shortest paths, ties by id;
* bound a node by solving the capacitated assignment exactly under relaxed
  distances — every undecided unit that still fits the remaining budget is
  treated as purchased — so the bound stays tight when capacities bind;
* close a node by rounding when the undecided units its relaxed routes ride
  fit the remaining budget together: buying them attains the bound;
* kill a node whose remaining budget is below a dual-ascent bound on the
  spend still needed to connect every origin (`_connection_bound`);
* probe once, when the root stays open, with the node that bans every
  undecided unit: its routes ride none, so it closes by rounding whenever
  its assignment exists;
* when no plan is found, tell `Infeasible` from `BudgetDisconnected` by a
  depth-first walk over the units that opens its nodes as the search does
  and tests each with the same connection bound.

The capacitated assignment is a generalized assignment problem.  When every
origin's nearest facility has room, that is its answer; otherwise an
iterative depth-first search solves it exactly.  It starts from one
assignment's cost as its cutoff: a B&B child's parent's assignment,
re-priced on the child's lists, or where there is no parent, a
priced-regret assignment improved by shift and swap moves
(`_regret_assignment`).  It is pruned by two lower bounds: everyone at
their nearest facility, and a Lagrangian bound whose capacity prices come
from coordinate ascent (`_capacity_prices`).

Every origin rides a shortest path, so the root's distances come from one
reverse search per facility, and each origin's facility ranking
(`GraphIndex.facility_ranking`) and route (`GraphIndex.canonical_walk`,
the one route walk) are read off those tables.  A child shuts every arc
its parent does, so it starts from its parent's solve: it repairs the
parent's tables over the arcs it newly shuts, keeps the routes that stay
canonical, and starts its assignment search from the parent's
assignment; an include child that shuts no more arcs reuses the parent's
relaxation whole.  Every node follows one table rule: it holds one
nearest-facility table (`GraphIndex.nearest_times`, which a child repairs
with `GraphIndex.close_nearest`) while that table is uncontested and its
owners' assignment fits, and otherwise one table per facility, as its
subtree does.  Like every search, these take the roads a plan leaves shut
as one set of closed arc numbers on the network's index: the vulnerable
arcs minus the arcs bought.  Masks and valid inequalities never reach the
search: they only tighten the 0-1 model.
`brute_force_oracle` independently enumerates every affordable upgrade set
and every capacity-feasible assignment (a mask optional: origin id ->
arc ids, added to that origin's closed set), walking each route of its
plan over one reverse search — slower, but nothing to get wrong — and is
what the solver is tested against.  Both work in node and arc numbers and
give ids only in what they return.
`build_model`/`export_lp` emit the equivalent 0-1 program, masks and cuts
included, for external solvers (one rule turns a forced route into a
constant in every row), and `gap_to_rnfmp` embeds a generalized assignment
problem as a zero-budget instance.
"""
from __future__ import annotations

import copy
import heapq
import itertools
import json
import math
import re
import time
from array import array
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import AbstractSet, Any, Iterable, Mapping, NamedTuple, Sequence

from .ingest import (CAPACITY_TOL, InstanceSpec, ProblemInstance,
                     PurchaseUnit, capacity_fits, cents, purchase_units,
                     upgrade_cost_cents)
from .net import (DIST_TOL, GraphIndex, Network, NodeKind, RoadArc,
                  RoadNode)
from .reductions import Cuts, FixedUpgrades


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    BUDGET_DISCONNECTED = "BudgetDisconnected"
    TIME_LIMIT = "TimeLimit"


#: statuses that carry a usable plan
SOLVED = (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


class ModelError(ValueError):
    """Contradictory masks/fixings or malformed model input."""


class OracleScaleError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class SolveOptions:
    time_limit_s: float = 300.0
    gap_tol: float = 0.0
    warm_start: Any = None               # anything Solution-shaped

    def __post_init__(self) -> None:
        if not self.time_limit_s > 0:  # NaN is no deadline either
            raise ModelError("time_limit_s must be positive")
        if not self.gap_tol >= 0:
            raise ModelError("gap_tol must be nonnegative")


@dataclass
class Solution:
    status: SolveStatus
    objective: float | None = None
    best_bound: float | None = None
    gap: float | None = None
    upgrades: tuple[str, ...] = ()
    assignment: dict[str, str] = field(default_factory=dict)
    paths: dict[str, tuple[str, ...]] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)

    def exit_code(self) -> int:
        if self.status in SOLVED:
            return 0
        if self.status is SolveStatus.TIME_LIMIT:
            return 3
        return 2

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready data; the ``wall_time*`` stats stay in ``stats``."""
        stats = {k: v for k, v in self.stats.items()
                 if not k.startswith("wall_time")}
        return {
            "status": self.status.value,
            "objective": self.objective,
            "bound": self.best_bound,
            "gap": self.gap,
            "upgrades": list(self.upgrades),
            "assignment": dict(sorted(self.assignment.items())),
            "paths": {k: list(v) for k, v in sorted(self.paths.items())},
            "stats": stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


# -- exact capacitated assignment ------------------------------------------

#: (origin, residents, weight, [(minutes, facility), ...] nearest first),
#: origins and facilities as node numbers
_AssignmentItems = list[tuple[int, float, float, list[tuple[float, int]]]]

#: search nodes between two reads of the clock in `_assignment_exact`
_CLOCK_EVERY = 1024
#: coordinate-ascent sweeps `_capacity_prices` runs at most
_MAX_SWEEPS = 100
#: passes of shift and swap moves `_regret_assignment` makes at most
_MOVE_PASSES = 20


class _DeadlinePassed(Exception):
    """The solve's deadline passed inside an assignment search."""


def _capacity_prices(items: _AssignmentItems, capacities: Mapping[int, float],
                     ) -> tuple[dict[int, float], float]:
    """Prices on the capacity rows, and the Lagrangian value they prove.

    For prices λ_d ≥ 0, L(λ) = Σ_i min_d (w_i·t_id + λ_d·h_i) − Σ_d λ_d·c_d
    is at most the assignment optimum (Ross & Soland 1975).  Exact
    coordinate ascent: with the other prices held, L is concave and
    piecewise linear in λ_d, one break-point per origin (the price at which
    d stops being its cheapest option), so one sort of the break-points
    finds the best λ_d.  Sweeps over the facilities stop when no price
    moves, or once L exceeds the costliest assignment (then none fits).
    Returns ({facility: λ_d}, L(λ)).
    """
    options = [(h, [(w * minutes, dest) for minutes, dest in cands])
               for _, h, w, cands in items]
    worst = sum(opts[-1][0] for _, opts in options)
    prices = dict.fromkeys(capacities, 0.0)
    value = -math.inf
    for _ in range(_MAX_SWEEPS):
        moved = False
        for d, cap in capacities.items():
            if cap == math.inf:
                continue  # never binds, so its price stays 0
            breaks: list[tuple[float, float]] = []
            load = 0.0
            for h, opts in options:
                if h <= 0:
                    continue
                own = other = math.inf
                for cost, dest in opts:
                    if dest == d:
                        own = cost
                    elif cost + prices[dest] * h < other:
                        other = cost + prices[dest] * h
                if own < other:  # d is its cheapest option at λ_d = 0
                    breaks.append(((other - own) / h, h))
                    load += h
            price = 0.0
            if load > cap:
                breaks.sort()
                for edge, h in breaks:
                    if edge == math.inf:
                        break  # the rest have nowhere else to go
                    price = edge
                    load -= h
                    if load <= cap:
                        break
            if price != prices[d]:
                prices[d] = price
                moved = True
        value = sum(min(cost + prices[dest] * h for cost, dest in opts)
                    for h, opts in options)
        value -= sum(p * capacities[d] for d, p in prices.items() if p > 0)
        if not moved or value > worst:
            break
    return prices, value


def _regret_assignment(items: _AssignmentItems,
                       capacities: Mapping[int, float],
                       prices: Mapping[int, float],
                       ) -> tuple[float, dict[int, int]] | None:
    """A capacity-feasible assignment by priced regret, improved by moves.

    An item's priced cost at facility d is w·t_d + λ_d·h.  Items choose in
    order of regret, the gap between their two cheapest priced options
    (largest first, ties in item order), each taking its cheapest priced
    facility that still has room (MTHG; Martello & Toth, *Knapsack
    Problems*, 1990, ch. 7).  Then passes over the items in order apply
    shift moves (the item to a nearer facility with room) and swap moves
    (the item and one at a nearer facility trade places, if that lowers the
    cost and both fit), until a pass moves nothing or ``_MOVE_PASSES`` have
    run.  Returns the result as `_repriced` prices it, the exact search's
    own test of a leaf, or None if some item finds no room.
    """
    n = len(items)
    sizes = [h for _, h, _, _ in items]
    # per item: weighted minutes by facility, nearest first
    cost = [{dest: w * minutes for minutes, dest in cands}
            for _, _, w, cands in items]
    ranked: list[list[int]] = []   # per item: facilities, cheapest priced first
    regret: list[float] = []
    for h, row in zip(sizes, cost):
        priced = sorted((c + prices[d] * h, k, d)
                        for k, (d, c) in enumerate(row.items()))
        ranked.append([d for _, _, d in priced])
        regret.append(priced[1][0] - priced[0][0] if len(priced) > 1
                      else math.inf)
    room = dict(capacities)
    at = [-1] * n
    for i in sorted(range(n), key=lambda i: -regret[i]):
        dest = next((d for d in ranked[i] if capacity_fits(sizes[i], room[d])),
                    None)
        if dest is None:
            return None
        at[i] = dest
        room[dest] -= sizes[i]

    for _ in range(_MOVE_PASSES):
        moved = False
        for i in range(n):
            a, h = at[i], sizes[i]
            here = cost[i][a]
            for b, c in cost[i].items():
                if c >= here:
                    break  # nearest first: no facility left is nearer
                g = 0.0  # a shift, unless b is full: then a swap
                if not capacity_fits(h, room[b]):
                    j = next((j for j in range(n) if at[j] == b
                              and a in cost[j]
                              and here - c + cost[j][b] - cost[j][a] > 0
                              and capacity_fits(h, room[b] + sizes[j])
                              and capacity_fits(sizes[j], room[a] + h)), None)
                    if j is None:
                        continue
                    g = sizes[j]
                    at[j] = a
                room[a] += h - g
                room[b] -= h - g
                at[i] = b
                moved = True
                break
        if not moved:
            break

    return _repriced(items, capacities,
                     {items[i][0]: at[i] for i in range(n)})


def _fits_in_order(picks: Iterable[tuple[float, float, float, int]],
                   capacities: Mapping[int, float]) -> float | None:
    """The cost of an assignment given as (residents, weight, minutes,
    facility) per item, in item order: the weighted minutes summed front to
    back, as the exact search sums them; None if an item, taken in order,
    overfills its facility (`capacity_fits`)."""
    left = dict(capacities)
    value = 0.0
    for h, w, minutes, dest in picks:
        if not capacity_fits(h, left[dest]):
            return None
        left[dest] -= h
        value += w * minutes
    return value


def _repriced(items: _AssignmentItems, capacities: Mapping[int, float],
              assignment: Mapping[int, int],
              ) -> tuple[float, dict[int, int]] | None:
    """``assignment`` priced on ``items`` (`_fits_in_order`): (its cost, the
    assignment), or None if it sends an item to a facility off its list or
    overfills one."""
    at = [next((m for m, d in cands if d == assignment.get(origin)), None)
          for origin, _, _, cands in items]
    value = None if None in at else _fits_in_order(
        [(h, w, m, assignment[k]) for (k, h, w, _), m in zip(items, at)],
        capacities)
    return None if value is None else (
        value, {origin: assignment[origin] for origin, _, _, _ in items})


def _assignment_exact(items: _AssignmentItems, capacities: Mapping[int, float],
                      deadline: float = math.inf,
                      stats: dict[str, Any] | None = None,
                      hint: Mapping[int, int] | None = None,
                      ) -> tuple[float, dict[int, int]] | None:
    """Min-cost assignment of origins to destinations under capacities.

    Returns (weighted minutes, assignment) or None if capacities cannot host
    everyone.  If every origin's nearest facility fits, that is the answer;
    if the residents outnumber every bed together, there is none.
    Otherwise `_capacity_prices` prices the capacity rows, and one
    feasible assignment's cost, plus a relative slack of 1e-7, starts the
    search as its cutoff: ``hint``, an assignment such as a B&B parent's,
    re-priced on ``items`` (`_repriced`), or without a hint the one
    `_regret_assignment` builds.  A hint that sends an item off its list or
    overfills a facility gives no cutoff.  A depth-first search then
    assigns the items in order, each to its facilities nearest first, and
    bounds every child before entering it by the larger of two lower bounds
    on the rest: everyone at their nearest facility, capacities ignored,
    and the Lagrangian bound over the residual capacities.  A valid lower
    bound, or a cutoff above the optimum, only cuts leaves the search would
    reject anyway, so the answer is the first strictly best leaf in search
    order whatever the prices, the heuristic and the hint (if no leaf beats
    the cutoff, as float rounding could only cause at the edge of a
    capacity, the cutoff's own assignment is the answer).  The search keeps
    its own stack, so any number of origins fits; it reads the clock every
    ``_CLOCK_EVERY`` nodes and raises `_DeadlinePassed` once ``deadline``
    is past.  The nodes it enters are added to
    ``stats["assignment_nodes"]``, its seconds to
    ``stats["wall_time_assignment_s"]``.
    """
    n = len(items)
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        _, _, w, cands = items[i]
        if not cands:
            return None
        suffix[i] = suffix[i + 1] + w * cands[0][0]
    nodes = 1
    started = time.perf_counter()
    try:
        nearest = _fits_in_order(
            [(h, w, *cands[0]) for _, h, w, cands in items], capacities)
        if nearest is not None:
            return nearest, {origin: cands[0][1]
                             for origin, _, _, cands in items}
        if sum(h for _, h, _, _ in items) > sum(
                cap + CAPACITY_TOL for cap in capacities.values()):
            return None  # not enough room in total

        prices, _ = _capacity_prices(items, capacities)
        dests = list(capacities)
        index = {d: j for j, d in enumerate(dests)}
        # per item and facility: (weighted minutes, facility index, weighted
        # minutes plus the facility's price for the item's residents)
        table = [[(w * minutes, index[dest], w * minutes + prices[dest] * h)
                  for minutes, dest in cands] for _, h, w, cands in items]
        priced_cap = sum(p * capacities[d] for d, p in prices.items() if p > 0)
        lag = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            lag[i] = lag[i + 1] + min(row[2] for row in table[i])
        worst = sum(row[-1][0] for row in table)
        # rounding slack, far above float error and far below any real gap
        slack = 1e-9 * (1.0 + worst + lag[0] + priced_cap)
        shift = sum(p for p in prices.values() if p > 0) * CAPACITY_TOL + slack
        lag = [v - shift for v in lag]
        if lag[0] - priced_cap > worst:
            return None  # the bound exceeds every assignment's cost

        residual = [capacities[d] for d in dests]
        best_obj = math.inf
        best_assign: dict[int, int] | None = None
        cutoff = math.inf
        upper = (_regret_assignment(items, capacities, prices)
                 if hint is None else _repriced(items, capacities, hint))
        if upper is not None:
            best_obj, best_assign = upper
            cutoff = best_obj * (1.0 + 1e-7) + slack
        # the search stack: at each depth the item's candidate iterator, the
        # facility taken, weighted minutes so far, and those plus prices
        # paid minus Σ_d λ_d·c_d; the level's constants sit in ``level``
        level = [(items[i][1], suffix[i + 1], lag[i + 1]) for i in range(n)]
        its = [iter(row) for row in table]
        chosen = [0] * n
        partial = [0.0] * n
        priced = [-priced_cap] * n
        base, pbase = 0.0, -priced_cap
        h, suf, lagn = level[0]
        last = n - 1
        i = 0
        while i >= 0:
            descended = False
            for cost, d, pcost in its[i]:
                if h > residual[d] + CAPACITY_TOL:
                    continue  # capacity_fits, inlined
                p = base + cost
                if p + suf >= cutoff:
                    break  # candidates are sorted: the rest do no better
                q = pbase + pcost
                if q + lagn >= cutoff:
                    continue
                nodes += 1
                if not nodes % _CLOCK_EVERY and time.perf_counter() > deadline:
                    raise _DeadlinePassed
                chosen[i] = d
                if i == last:
                    best_obj = p
                    best_assign = {items[j][0]: dests[chosen[j]]
                                   for j in range(n)}
                    cutoff = best_obj - 1e-12
                    continue
                residual[d] -= h
                i += 1
                its[i] = iter(table[i])
                partial[i] = base = p
                priced[i] = pbase = q
                h, suf, lagn = level[i]
                descended = True
                break
            if not descended:  # depth i is done: back up
                i -= 1
                if i >= 0:
                    h, suf, lagn = level[i]
                    residual[chosen[i]] += h
                    base, pbase = partial[i], priced[i]
    finally:
        if stats is not None:
            stats["assignment_nodes"] = (stats.get("assignment_nodes", 0)
                                         + nodes)
            stats["wall_time_assignment_s"] = (
                stats.get("wall_time_assignment_s", 0.0)
                + time.perf_counter() - started)
    if best_assign is None:
        return None
    return best_obj, best_assign


def _candidate_lists(g: GraphIndex, closed: AbstractSet[int],
                     masks: Sequence[AbstractSet[int]],
                     ) -> list[list[tuple[float, int]]] | None:
    """Per-origin reachable (minutes, facility) lists, nearest first, in
    ``g.origins`` order; None if someone is cut off.

    One forward search per origin, because a mask (``masks[i]`` for origin
    ``g.origins[i]``) adds to each origin's closed set.
    """
    out: list[list[tuple[float, int]]] = []
    for k, mask in zip(g.origins, masks):
        dists = g.dijkstra((k,), closed | mask)[0]
        reach = sorted((dists[d], d) for d in g.dests if dists[d] < math.inf)
        if not reach:
            return None
        out.append(reach)
    return out


def _node_routes(g: GraphIndex, origins: Sequence[int], node: _Node,
                 tables: _Tables, parent: _Node | None = None,
                 fell: AbstractSet[int] = frozenset(),
                 stats: dict[str, Any] | None = None,
                 ) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """Each origin's canonical route to its facility in ``node.assignment``
    over the arcs not in ``node.closed``, read off ``tables`` (the node's
    tables and owners, keyed as in `_Delta`: the facility's own table, or
    the one nearest-facility table and its owners when the node holds
    them), in ``origins`` order, and the origins whose walk backed out of a
    dead end; all in numbers on ``g``.

    A child (``parent`` given, ``node.delta`` its tables' change from the
    parent's) keeps its parent's route for an origin that keeps its facility
    when no arc on the route newly closed, no node on it (the origin
    included) moved in the table it is walked on, no label in that table
    fell (``fell`` names those tables) and the parent's walk never backed
    out.  Closing arcs raises labels, or lowers them by less than DIST_TOL
    (``GraphIndex.close_arcs``), so at an unmoved node the same exit is
    still the first tight one and every exit before it still is not.  On a
    nearest-facility table the same holds for the one table, and an exit
    skipped there, into a node another facility owns, stays skipped: a
    per-facility label falls by less than DIST_TOL.  Every other origin is
    walked again.  Reused routes are added to ``stats["routes_reused"]``.
    """
    new = node.closed - parent.closed if parent is not None else frozenset()
    tables, owner = tables
    head = g.head
    paths: list[tuple[int, ...]] = []
    backed: set[int] = set()
    reused = 0
    for i, k in enumerate(origins):
        dest = node.assignment[k]
        key = dest if owner is None else _NEAREST
        if (parent is not None and parent.assignment[k] == dest
                and key not in fell and k not in parent.backed):
            route = parent.paths[i]
            moved = node.delta.moved.get(key, {})
            if k not in moved and all(a not in new and head[a] not in moved
                                      for a in route):
                paths.append(route)
                reused += 1
                continue
        found = g.canonical_walk(k, dest, node.closed, tables[key], owner)
        if found is None:  # pragma: no cover - assignment implies reachability
            raise ModelError(f"no route from {g.node_ids[k]!r} to "
                             f"{g.node_ids[dest]!r}")
        paths.append(found[0])
        if found[1]:
            backed.add(k)
    if stats is not None:
        stats["routes_reused"] = stats.get("routes_reused", 0) + reused
    return tuple(paths), frozenset(backed)


def _used_vulnerable(net: Network, paths: Mapping[str, Sequence[str]],
                     ) -> tuple[str, ...]:
    used = {aid for path in paths.values() for aid in path
            if net.arcs[aid].vulnerable}
    return tuple(sorted(used))


def _forced(net: Network, units: Sequence[PurchaseUnit],
            fixings: FixedUpgrades | None,
            ) -> tuple[list[PurchaseUnit], list[PurchaseUnit], int,
                       frozenset[str]]:
    """(the units holding an arc of ``fixings.forced_y``, the other units,
    in ``units`` order, the forced units' cost in cents, the arcs shut
    before any other unit is bought)."""
    arcs = frozenset(fixings.forced_y) if fixings else frozenset()
    forced = [u for u in units if not arcs.isdisjoint(u.arc_ids)]
    rest = [u for u in units if arcs.isdisjoint(u.arc_ids)]
    return (forced, rest, sum(u.cost_cents for u in forced),
            net.vulnerable_ids - {a for u in forced for a in u.arc_ids})


# -- brute-force oracle -------------------------------------------------------


@dataclass(frozen=True)
class OracleLimits:
    max_vulnerable: int = 20
    max_origins: int = 8
    max_destinations: int = 4


def brute_force_oracle(instance: ProblemInstance,
                       limits: OracleLimits | None = None,
                       mask: Mapping[str, frozenset[str]] | None = None,
                       fixings: FixedUpgrades | None = None) -> Solution:
    """Exhaustive reference solve: every affordable upgrade set, every
    capacity-feasible assignment.  Exact and deterministic, exponential.
    ``mask`` (origin id -> arc ids) adds to each origin's closed set.  It
    enumerates in node and arc numbers, which follow sorted-id order, so
    ties break by id; ids appear only in the returned `Solution`.  Where
    plans tie exactly, it may report another one than `solve_exact`."""
    limits = limits or OracleLimits()
    mask = mask or {}
    net = instance.network
    origins = net.origins()
    dests = net.destinations()
    units = purchase_units(net, instance.spec.segment_coupling)
    if len(units) > limits.max_vulnerable:
        raise OracleScaleError(
            f"oracle scale: {len(units)} purchase units > {limits.max_vulnerable}")
    if len(origins) > limits.max_origins:
        raise OracleScaleError(
            f"oracle scale: {len(origins)} origins > {limits.max_origins}")
    if len(dests) > limits.max_destinations:
        raise OracleScaleError(
            f"oracle scale: {len(dests)} destinations > {limits.max_destinations}")

    budget_cents = cents(instance.budget)
    forced_units, free_units, forced_cost, shut_ids = _forced(net, units,
                                                              fixings)
    g = net.index()
    shut = g.arcs_of(shut_ids)
    unit_arcs = [g.arcs_of(u.arc_ids) for u in free_units]
    masks = [g.arcs_of(mask.get(o.id, ())) for o in origins]
    caps = dict(zip(g.dests, (d.capacity for d in dests)))

    best: tuple[float, tuple[str, ...], tuple[int, ...]] | None = None
    best_closed: frozenset[int] | None = None
    saw_connected = False
    evaluated = 0

    for r in range(len(free_units) + 1):
        for combo in itertools.combinations(range(len(free_units)), r):
            cost = forced_cost + sum(free_units[i].cost_cents for i in combo)
            if cost > budget_cents:
                continue
            evaluated += 1
            closed = shut - {a for i in combo for a in unit_arcs[i]}
            unit_key = tuple(sorted([free_units[i].id for i in combo]
                                    + [u.id for u in forced_units]))
            cands = _candidate_lists(g, closed, masks)
            if cands is None:
                continue
            saw_connected = True
            for picks in itertools.product(*cands):
                load: dict[int, float] = {}
                for o, (_, d) in zip(origins, picks):
                    load[d] = load.get(d, 0.0) + o.residents
                if any(not capacity_fits(v, caps[d]) for d, v in load.items()):
                    continue
                obj = sum(o.weight * t for o, (t, _) in zip(origins, picks))
                key = (obj, unit_key, tuple(d for _, d in picks))
                if (best is None or obj < best[0] - DIST_TOL
                        or (abs(obj - best[0]) <= DIST_TOL
                            and key[1:] < best[1:])):
                    best = key
                    best_closed = closed
    if best is None or best_closed is None:
        status = (SolveStatus.INFEASIBLE if saw_connected
                  else SolveStatus.BUDGET_DISCONNECTED)
        return Solution(status=status, stats={"subsets_evaluated": evaluated})
    assignment: dict[str, str] = {}
    paths: dict[str, tuple[str, ...]] = {}
    for o, k, dest, extra in zip(origins, g.origins, best[2], masks):
        closed = best_closed | extra
        walk = g.canonical_walk(
            k, dest, closed, g.dijkstra((dest,), closed, reverse=True)[0])[0]
        assignment[o.id] = g.node_ids[dest]
        paths[o.id] = tuple(g.arc_ids[a] for a in walk)
    return Solution(
        status=SolveStatus.OPTIMAL, objective=best[0], best_bound=best[0],
        gap=0.0, upgrades=_used_vulnerable(net, paths),
        assignment=assignment, paths=paths,
        stats={"subsets_evaluated": evaluated})


# -- branch and bound ---------------------------------------------------------

#: relative float slack of the connection-bound test, toward not pruning
_BOUND_RTOL = 1e-9


def _arc_prices(net: Network, units: Iterable[PurchaseUnit]) -> dict[str, float]:
    """Cents per arc: a unit's price split over a spanning forest of its arcs.

    A forest of paths toward the facilities leaves each node by one arc at
    most and has no cycle, so it rides at most m(u) = (nodes touched −
    components) arcs of unit u, and pays at most u's price.  m(u) is 1 for
    one arc or a two-way pair, 2 for a segment laid over a 2-arc chain.
    """
    prices: dict[str, float] = {}
    for u in units:
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            while x in parent:
                x = parent[x]
            return x

        m = 0
        for aid in u.arc_ids:
            tail, head = find(net.arcs[aid].tail), find(net.arcs[aid].head)
            if tail != head:
                parent[tail] = head
                m += 1
        prices.update(dict.fromkeys(u.arc_ids, u.cost_cents / max(m, 1)))
    return prices


def _flood_back(g: GraphIndex, reached: set[int], starts: Iterable[int],
                closed: AbstractSet[int], reduced: Mapping[int, float],
                ) -> None:
    """Add to ``reached`` every node that reaches one of ``starts`` backward
    over open zero-cost arcs: arcs outside ``closed`` whose ``reduced``
    cost is 0 or absent.  Nodes and arcs are numbers on ``g``."""
    inc = g.inc
    stack = list(starts)
    while stack:
        for a, tail, _ in inc[stack.pop()]:
            if (tail not in reached and a not in closed
                    and not reduced.get(a)):
                reached.add(tail)
                stack.append(tail)


def _rooted(g: GraphIndex, dests: Sequence[int],
            prices: Mapping[int, float]) -> frozenset[int]:
    """The nodes that reach a facility over arcs without a price: the
    `_flood_back` from the facilities with every priced arc closed.

    In a solve those are the arcs outside the shut set, which no node
    closes, so one flood serves every `_connection_bound` call."""
    rooted = set(dests)
    _flood_back(g, rooted, dests, prices.keys(), {})
    return frozenset(rooted)


def _connection_bound(g: GraphIndex, origins: Sequence[int],
                      prices: Mapping[int, float],
                      free: AbstractSet[int], closed: AbstractSet[int],
                      rooted: AbstractSet[int]) -> float:
    """Cents that must be spent, outside ``free``, for every origin to reach
    some facility; ``inf`` exactly when no purchase connects everyone.

    Wong's dual ascent for the directed Steiner problem (Math. Programming
    28, 1984), the origins as terminals and every facility as one root.
    Nodes and arcs are numbers on ``g``.  Arcs in ``closed`` are absent; an
    arc's reduced cost starts at its ``prices`` entry (`_arc_prices`), or 0
    on safe and ``free`` arcs.  Each origin in ``origins`` (the network's
    origins, in id order) grows the set it reaches over zero-cost arcs until
    that set holds a node known to reach a facility.  While it does not,
    the least reduced cost on the arcs leaving the set is added to the
    bound and taken off each of them.  An arc stays in the cut from the
    moment its tail joins the set until its head does, so the ascent only
    records, per node, the bound raised so far when it joined, and settles
    every reduced cost once the origin connects.

    The ascent starts from the nodes that reach a facility over zero-cost
    open arcs: ``rooted``, `_rooted`'s flood over the unpriced arcs (valid
    while ``closed`` holds none of them), extended by `_flood_back` over the
    priced arcs open at no cost here (``free`` ones, and those priced at
    0).  Each connected origin's path joins that set the same way.
    """
    tail, head, out = g.tail, g.head, g.out
    reduced: dict[int, float] = {}
    zero: list[int] = []    # priced arcs open at no cost
    for a, p in prices.items():
        if a in closed:
            continue
        if p > 0 and a not in free:
            reduced[a] = p
        else:
            zero.append(a)

    rooted = set(rooted)
    start = []
    for a in zero:
        if head[a] in rooted and tail[a] not in rooted:
            rooted.add(tail[a])
            start.append(tail[a])
    _flood_back(g, rooted, start, closed, reduced)
    bound = 0.0
    for origin in origins:
        if origin in rooted:
            continue
        joined = {origin: 0.0}      # node -> raise when it joined the set
        via: dict[int, int] = {}    # node -> arc it joined by
        leaving: list[tuple[float, int]] = []  # (cost + raise at entry, arc)
        frontier = [origin]
        raised = 0.0
        hit = None
        while hit is None:
            while frontier and hit is None:
                for a, v, _ in out[frontier.pop()]:
                    if v in joined or a in closed:
                        continue
                    cost = reduced.get(a, 0.0)
                    if cost > 0:
                        heapq.heappush(leaving, (cost + raised, a))
                        continue
                    joined[v], via[v] = raised, a
                    if v in rooted:
                        hit = v
                        break
                    frontier.append(v)
            if hit is not None:
                break
            while leaving and head[leaving[0][1]] in joined:
                heapq.heappop(leaving)
            if not leaving:
                return math.inf
            raised, a = heapq.heappop(leaving)
            v = head[a]
            reduced[a] = 0.0
            joined[v], via[v] = raised, a
            if v in rooted:
                hit = v
            else:
                frontier.append(v)
        bound += raised
        for node, entered in joined.items():
            for a, v, _ in out[node]:
                cost = reduced.get(a)
                cut = joined.get(v, raised) - entered
                if cost and cut > 0:  # in the cut for that much of the raise
                    rest = cost - cut
                    reduced[a] = rest if rest > _BOUND_RTOL * cost else 0.0
        path = []   # back from the hit to the origin, now all rooted
        node = hit
        while node != origin:
            node = tail[via[node]]
            path.append(node)
        rooted.update(path)
        _flood_back(g, rooted, path, closed, reduced)
    return bound


#: the key of the nearest-facility table among a node's tables (a
#: facility's own table is keyed by its number, never negative)
_NEAREST = -1

#: a node's full tables by key and the nearest-facility table's owners (None
#: on per-facility tables), or (None, None) where that table is contested
_Tables = tuple[dict[int, list[float]] | None, list[int] | None]


class _Delta(NamedTuple):
    """A searched node's tables, as the labels that differ from its
    parent's.  A table is keyed by its facility's number, or by `_NEAREST`
    for the nearest-facility table, whose owners sit in ``owners`` (None on
    per-facility tables).  ``moved`` maps a key to the labels
    ``GraphIndex.close_arcs`` or ``close_nearest`` moved, ``inf`` for a
    node cut off, a table where nothing moved left out, and ``owners``
    holds the owners that changed.  A node whose tables were searched
    afresh holds them whole, owners included."""

    parent: _Delta | None
    moved: dict[int, Any]
    owners: dict[int, int] | list[int] | None = None

    def tables(self) -> _Tables:
        """The full tables and owners: the root's, with every delta on the
        way down applied."""
        chain = []
        delta = self
        while delta.parent is not None:
            chain.append(delta)
            delta = delta.parent
        tables = {key: list(t) for key, t in delta.moved.items()}
        owner = None if delta.owners is None else list(delta.owners)
        for step in reversed(chain):
            for key, labels in step.moved.items():
                table = tables[key]
                for v, t in labels.items():
                    table[v] = t
            if owner is not None:
                for v, d in step.owners.items():
                    owner[v] = d
        return tables, owner


def _units(bits: int) -> list[int]:
    """The unit numbers in a bit set (bit u is unit u), lowest first."""
    return [u for u, b in enumerate(reversed(bin(bits))) if b == "1"]


class _Node:
    """A B&B node: the units it fixes in (committed) and out (banned), as
    bit sets of unit numbers (`_Setup`), their cost, its bound, and its
    bound solve: its tables as a `_Delta`, its shut arcs, its relaxed
    assignment and routes (in origin order), the origins whose route walk
    backed out of a dead end, and its score, which maps the number of each
    undecided unit on those routes to the resident weight riding it.  Only
    the delta outlives the node's expansion.  Its solve is kept in node and
    arc numbers of the network's `GraphIndex`."""

    __slots__ = ("committed", "banned", "cost", "bound", "delta", "closed",
                 "assignment", "paths", "backed", "score")

    def __init__(self, committed: int, banned: int, cost: int,
                 closed: frozenset[int]) -> None:
        self.committed = committed
        self.banned = banned
        self.cost = cost
        self.bound = math.inf
        self.delta: _Delta | None = None  # set when its tables are built
        self.closed = closed
        self.assignment: dict[int, int] = {}
        self.paths: tuple[tuple[int, ...], ...] = ()
        self.backed: frozenset[int] = frozenset()
        self.score: dict[int, float] = {}


class _Plan(NamedTuple):
    """A B&B incumbent in numbers; its routes are in origin order."""

    objective: float
    upgrades: tuple[int, ...]      # the vulnerable arcs ridden, sorted
    assignment: dict[int, int]
    paths: tuple[tuple[int, ...], ...]


class _Setup:
    """What a solve derives from its network, segment coupling and fixings
    alone, whatever its budget: the network's full repair bill in dollars
    (``b_hat``, as `with_network` gives it), the forced units' cost in
    cents, and the undecided units, numbered 0..U-1 in id order:
    ``units[u]`` is unit u, ``cost[u]`` its cents and ``unit_arcs[u]`` its
    arc numbers, and ``arc_unit`` maps each of those arcs to its unit's
    number.  Every vulnerable arc lies in one unit, so the undecided units'
    arcs are the arcs shut before any of them is bought.

    The connection bound's arc prices (by arc number) and its `_rooted`
    flood are built by the first bound taken.  ``bounds`` keeps every
    bound taken, keyed by two bit sets of units: the committed ones, and
    the ones neither committed nor affordable.  Those two fix the bound's
    free and closed arcs, and ints keep the entries small on long solves,
    where a bound seldom repeats."""

    __slots__ = ("b_hat", "base_cost", "units", "cost", "unit_arcs",
                 "arc_unit", "prices", "rooted", "bounds")

    def __init__(self, net: Network, coupled: bool,
                 fixings: FixedUpgrades | None) -> None:
        g = net.index()
        units = purchase_units(net, coupled)   # in id order
        _, self.units, self.base_cost, _ = _forced(net, units, fixings)
        # every unit holds a vulnerable arc: `total_vulnerable_cost`'s sum
        self.b_hat = sum(u.cost_cents for u in units) / 100
        self.cost = [u.cost_cents for u in self.units]
        self.unit_arcs = [g.arcs_of(u.arc_ids) for u in self.units]
        self.arc_unit = {a: u for u, arcs in enumerate(self.unit_arcs)
                         for a in arcs}
        self.prices: dict[int, float] | None = None
        self.rooted: frozenset[int] = frozenset()
        self.bounds: dict[tuple[int, int], float] = {}


class SolveMemo:
    """What solves on one network derive from that network alone, whatever
    their budget.  A `PrunedNetwork` carries one (``memo``), and
    `solve_pipeline` hands it to every `solve_exact` on that pruning, so
    it lives as long as the pruning.

    * ``assignments``: every finished exact assignment search, keyed by
      each origin's time to each facility (``inf`` where it cannot reach
      it), packed in item order.  The network fixes the capacities and the
      items, so the key fixes the answer.  A search the deadline stops
      stores nothing.
    * ``setups``: each solve's `_Setup`, with the connection bounds its
      solves took, keyed by (segment coupling, fixings).
    * ``forced``: the network's forced exits (`forced_exits`), which
      `solve_pipeline` fixes at every budget, once it has found them.
    """

    __slots__ = ("network", "assignments", "setups", "forced")

    def __init__(self, network: Network) -> None:
        self.network = network
        self.assignments: dict[bytes, tuple[float, dict[int, int]] | None] = {}
        self.setups: dict[tuple[bool, FixedUpgrades | None], _Setup] = {}
        self.forced: FixedUpgrades | None = None

    def setup(self, coupled: bool, fixings: FixedUpgrades | None) -> _Setup:
        """The set-up of a solve under ``fixings``, built on first use."""
        key = (coupled, fixings)
        found = self.setups.get(key)
        if found is None:
            found = self.setups[key] = _Setup(self.network, coupled, fixings)
        return found


def solve_exact(instance: ProblemInstance,
                fixings: FixedUpgrades | None = None,
                options: SolveOptions | None = None,
                memo: SolveMemo | None = None) -> Solution:
    """Exact best-first branch-and-bound over purchase units.

    The undecided units are numbered in id order once (`_Setup`), as arcs
    are, so a tie by number is a tie by id.  A node fixes some units in
    (committed) and some out (banned), each a bit set (bit u is unit u).
    Opening it (``open_node``) gives its remaining budget, the undecided
    units that each fit that budget and the arcs left shut when those and
    the committed units are bought.  When the affordable units together cost
    more than the remaining budget, `_connection_bound` prices what every
    origin still needs to reach a facility (committed units free, banned and
    unaffordable ones closed); a price above the remaining budget kills the
    node before any search, so at the root it is the whole proof of
    `BudgetDisconnected`.  Otherwise the bound can only be ``inf`` where the
    relaxation's own tables show a stranded origin, and it is skipped.  The
    node's bound is the capacity-feasible assignment cost when every
    undecided unit that still fits the remaining budget is optimistically
    treated as purchased: distances are relaxed, capacities are not, so the
    bound stays tight on capacity-bound instances.  A node whose relaxed
    routes ride undecided units that fit the remaining budget together is
    closed by rounding: buying them attains the bound, so that plan is
    offered as incumbent.  Every plan, a validated warm start's included,
    passes one test (``record``): it is kept if its objective is lower, or
    ties with a lexicographically smaller used-upgrade set.  It sees only
    the plans the search offers, so `brute_force_oracle` agrees on status
    and objective, not always on which tied plan is reported.  Every other
    node branches on the undecided unit with the largest rider weight on
    the relaxed shortest paths (its ``score``) × unit cost, ties by id: the
    unit that moves the bound most on both children.  An include child that
    shuts the same arcs as its parent has the parent's relaxation, bit for
    bit, so after its own connection test it shares the parent's solve and
    bound, its score less the branch unit, without a search
    (``relaxations_inherited``).

    If the root stays open, the probe follows its bound solve, before its
    cut test: the node that bans every undecided unit.  Its routes ride
    none, so it closes by rounding whenever its assignment exists, and
    offers the plan over the roads open before any undecided unit is
    bought.  Every later incumbent comes from rounding: best-first with
    valid bounds expands every node whose bound is below the optimum
    whatever incumbent it holds, so the probe matters only to what a
    time-limited or ``gap_tol`` run reports.  If the search ends
    without an incumbent, a depth-first walk over the undecided units in id
    order, include first, decides between `Infeasible` and
    `BudgetDisconnected`.  It opens its nodes as the B&B does, and its one
    test is the same connection bound, always taken: 0 means the committed
    units connect everyone, and a bound above the remaining budget kills
    the subtree.  It keeps its own stack, so any number of units fits.  A
    root that the connection bound already refuted is `BudgetDisconnected`
    without the walk, whose first test would refute it again.

    Every origin rides a shortest path over the open arcs, so a node's
    distances are reverse tables over the arcs not shut: every vulnerable
    arc the relaxation does not treat as bought.  The node solve runs on
    the network's index (``net.index()``): tables, shut sets, assignments
    and routes hold node and arc numbers, and so does the incumbent: ids
    are made only in the returned `Solution` (``finish``), and read only
    from a warm start, once it validates.  A child shuts every arc its
    parent does, so it repairs its parent's tables over the arcs it newly
    shuts (``GraphIndex.close_arcs``, ``tables_repaired``), and a node that
    inherits its parent's relaxation needs none.  An open node keeps only
    what its repair moved, linked to its parent's record (`_Delta`); full
    tables are rebuilt from that chain for the node being expanded and
    handed to both its children.  Those tables give every origin's
    candidate list, and the routes that score a node, and that a rounding
    closure offers, are read off them; a child keeps each parent route that
    stays canonical (`_node_routes`, ``routes_reused``).  A child's
    assignment search starts from its parent's assignment, re-priced on its
    own lists; a search at a node searched afresh builds the priced-regret
    assignment.  Every connection bound walks the origins in id order.

    One table rule holds at every node.  A node first holds one
    nearest-facility table: the root and the probe search it
    (``GraphIndex.nearest_times``), and a child of a node that holds one
    repairs it (``GraphIndex.close_nearest``).  It answers when no two
    facilities contest it (a near tie the kernel's tolerance settles by
    which offer came first) and every origin fits at its owner in item
    order, the exact search's first test (`_fits_in_order`): the bound is
    then that assignment's cost, and each route is walked on that table.
    Where it cannot answer, the node searches one table per facility
    afresh (``GraphIndex.facility_times``), keeps no assignment or route of
    its parent's, and its subtree keeps per-facility tables
    (``nearest_fallbacks``).

    What the solve derives from its network alone, whatever the budget,
    sits in ``memo`` (`SolveMemo`), which `solve_pipeline` hands over from
    the pruning (``PrunedNetwork.memo``), so later solves on that pruning
    reuse it; without one the solve starts a fresh memo, which goes when
    it returns.  The memo keeps every finished exact assignment search,
    keyed by each origin's time to each facility, and one held there is
    not run again (``assignments_reused``); a search the deadline stops
    keeps nothing.  It keeps the solve's set-up (`_Setup`), keyed by
    segment coupling and ``fixings``: the purchase units, numbered, the
    forced ones' cost, and the connection bound's arc prices
    and its flood over the arcs no node closes (`_rooted`), built by the
    first bound taken.  With the set-up go the connection bounds taken,
    keyed by the committed units and the units neither committed nor
    affordable; the cut test against a node's remaining budget is made
    afresh at every node.  A memo of another network is a ``ValueError``.
    Per-origin masks and valid inequalities only tighten the 0-1 model; a
    route-based search never needs them.  Determinism: each node is one
    `_Node` record, numbered in creation order, and the heap holds (bound,
    number, node).

    The clock is read against ``options.time_limit_s`` between nodes of
    both searches and inside every assignment search; on expiry the result
    is `TimeLimit` with the incumbent (if any) and the least bound of the
    subtrees left open, the interrupted node's parent included (the
    root's, while its probe runs).  Every
    result is built by ``finish``, whose bound is capped by the incumbent's
    objective and sets the gap.  Stats count B&B nodes
    (``nodes_explored``), ``incumbent_updates`` (an accepted warm start
    included), ``rounding_closures`` (the probe included, when it finds a
    plan), ``connection_cuts`` (nodes of either search the connection bound
    refuted), ``relaxations_inherited`` (include children that took their
    parent's relaxation), ``tables_repaired`` (the other children that were
    not cut: their tables were repaired from their parent's, or searched
    afresh where a nearest table could not answer), ``routes_reused``,
    ``assignments_reused`` and ``assignment_nodes`` (search nodes over
    every exact bound solve, the probe's included; none runs where a
    nearest table answers, so 0 when every node's does);
    ``wall_time_assignment_s``
    is the time spent in those searches (kept, like ``wall_time_s``, out of
    the deterministic JSON).  A warm start that validates is marked
    ``warm_start``; one that fails validation is dropped and its report
    kept in ``warm_start_rejected``.
    """
    options = options or SolveOptions()
    start = time.perf_counter()
    deadline = start + options.time_limit_s
    net = instance.network
    g = net.index()
    origins = net.origins()
    dests = g.dests
    caps = {d: net.nodes[g.node_ids[d]].capacity for d in dests}
    budget_cents = cents(instance.budget)
    if memo is None:
        memo = SolveMemo(net)
    elif memo.network is not net:
        raise ValueError("memo= belongs to a different network")
    setup = memo.setup(instance.spec.segment_coupling, fixings)
    # the forced units are committed at every node
    base_cost = setup.base_cost
    stats: dict[str, Any] = {"nodes_explored": 0, "incumbent_updates": 0,
                             "rounding_closures": 0, "connection_cuts": 0,
                             "relaxations_inherited": 0,
                             "tables_repaired": 0, "routes_reused": 0,
                             "assignments_reused": 0, "nearest_fallbacks": 0,
                             "assignment_nodes": 0,
                             "wall_time_assignment_s": 0.0}
    incumbent: _Plan | None = None
    # origins (as numbers) in id order, and in the assignment's item order
    origin_nos = g.origins
    weights = [o.weight for o in origins]
    gap_items = [(g.node_no[o.id], o.residents, o.weight) for o in
                 sorted(origins, key=lambda o: (-o.residents, o.id))]
    node_ids, arc_ids = g.node_ids, g.arc_ids
    vulnerable = g.arcs_of(net.vulnerable_ids)

    def finish(status: SolveStatus, bound: float | None = None) -> Solution:
        """The result: the incumbent (if any), in ids, under ``status``, its
        bound capped by the objective, and the gap between the two."""
        sol = Solution(status=status, best_bound=bound, stats=dict(stats))
        if incumbent is not None:
            sol.objective = obj = incumbent.objective
            sol.upgrades = tuple(arc_ids[a] for a in incumbent.upgrades)
            sol.assignment = {node_ids[k]: node_ids[d]
                              for k, d in incumbent.assignment.items()}
            sol.paths = {node_ids[k]: tuple(arc_ids[a] for a in path)
                         for k, path in zip(origin_nos, incumbent.paths)}
            if bound is not None:
                sol.best_bound = min(bound, obj)
                sol.gap = (obj - sol.best_bound) / max(abs(obj), 1e-12)
        sol.stats["wall_time_s"] = time.perf_counter() - start
        return sol

    if base_cost > budget_cents:
        # the forced exits alone blow the budget: no affordable set connects
        return finish(SolveStatus.BUDGET_DISCONNECTED)

    unit_cost, unit_arcs = setup.cost, setup.unit_arcs
    arc_unit = setup.arc_unit
    every = (1 << len(unit_cost)) - 1

    def open_node(committed: int, banned: int, cost: int,
                  ) -> tuple[int, int, int, frozenset[int]]:
        """(remaining budget, the undecided units that each fit it, their
        total cost, the arcs shut when those and the committed units are
        bought: the arcs of every other undecided unit)."""
        remaining = budget_cents - cost
        afford = spend = 0
        for u in _units(every & ~(committed | banned)):
            if unit_cost[u] <= remaining:
                afford |= 1 << u
                spend += unit_cost[u]
        return remaining, afford, spend, frozenset([
            a for u in _units(every & ~(committed | afford))
            for a in unit_arcs[u]])

    def connection(committed: int, afford: int, remaining: int,
                   closed: frozenset[int]) -> float | None:
        """The node's connection bound, or None (a counted cut) when it
        proves the remaining budget short.  A bound taken before on the
        memo's set-up, with the same committed and closed units, is not
        taken again."""
        key = (committed, every & ~(committed | afford))
        bound = setup.bounds.get(key)
        if bound is None:
            if setup.prices is None:
                setup.prices = {g.arc_no[aid]: p for aid, p in
                                _arc_prices(net, setup.units).items()}
                setup.rooted = _rooted(g, dests, setup.prices)
            bought = frozenset(a for u in _units(committed)
                               for a in unit_arcs[u])
            bound = setup.bounds[key] = _connection_bound(
                g, origin_nos, setup.prices, bought, closed, setup.rooted)
        if bound - remaining > _BOUND_RTOL * max(1.0, remaining):
            stats["connection_cuts"] += 1
            return None
        return bound

    def record(obj: float, assignment: dict[int, int],
               paths: tuple[tuple[int, ...], ...]) -> None:
        """Keep a plan if it beats the incumbent, or ties it with a
        lexicographically smaller upgrade set (arc numbers follow id order)."""
        nonlocal incumbent
        upgrades = tuple(sorted({a for path in paths for a in path
                                 if a in vulnerable}))
        if incumbent is not None and (
                obj > incumbent.objective + DIST_TOL
                or (abs(obj - incumbent.objective) <= DIST_TOL
                    and upgrades >= incumbent.upgrades)):
            return
        incumbent = _Plan(obj, upgrades, assignment, paths)
        stats["incumbent_updates"] += 1

    solved = memo.assignments

    def assign(tables: Mapping[int, Sequence[float]],
               hint: Mapping[int, int] | None = None,
               ) -> tuple[float, dict[int, int]] | None:
        """The exact capacitated assignment over facility tables; None if
        some origin is cut off or the capacities cannot host everyone.  A
        search the memo holds is not run again; the memo holds no origin
        that is cut off, so its key is looked up before the origins are
        ranked."""
        key = array("d", [tables[d][k] for k, _, _ in gap_items
                          for d in dests]).tobytes()
        if key in solved:
            stats["assignments_reused"] += 1
            return solved[key]
        items = []
        for k, h, w in gap_items:
            ranking = g.facility_ranking(tables, k)
            if not ranking:
                return None
            items.append((k, h, w, ranking))
        solved[key] = _assignment_exact(items, caps, deadline, stats, hint)
        return solved[key]

    def nearest(minutes: Sequence[float], owner: Sequence[int],
                ) -> tuple[float, dict[int, int]] | None:
        """The assignment on a nearest-facility table that reaches every
        origin: every origin at its owner, if that fits the capacities in
        item order, as `_assignment_exact` first tries (`_fits_in_order`);
        None if it overfills a facility."""
        bound = _fits_in_order([(h, w, minutes[k], owner[k])
                                for k, h, w in gap_items], caps)
        return None if bound is None else (
            bound, {k: owner[k] for k, _, _ in gap_items})

    # warm start: accept anything Solution-shaped that validates cleanly
    if options.warm_start is not None:
        ws = options.warm_start
        report = validate_solution(instance, ws)
        if report.ok:
            record(report.objective,
                   {k: g.node_no[ws.assignment[node_ids[k]]]
                    for k in origin_nos},
                   tuple(tuple(g.arc_no[aid] for aid in ws.paths[node_ids[k]])
                         for k in origin_nos))
            stats["warm_start"] = True
        else:
            stats["warm_start_rejected"] = str(report)

    def beats_incumbent(bound: float) -> bool:
        if incumbent is None:
            return True
        gap_allow = options.gap_tol * max(abs(incumbent.objective), 1e-12)
        return bound < incumbent.objective - max(DIST_TOL, gap_allow)

    def search(node: _Node, near: bool) -> _Tables:
        """A node's tables searched afresh and held whole in ``node.delta``:
        with ``near`` the nearest-facility table and its owners, else one
        table per facility; (None, None) if the nearest one is contested."""
        if near:
            found = g.nearest_times(node.closed)
            if found is None:
                return None, None
            tables, owner = {_NEAREST: found[0]}, found[1]
        else:
            tables, owner = g.facility_times(node.closed), None
        node.delta = _Delta(None, tables, owner)
        return tables, owner

    def repair(parent: _Node, parent_tables: _Tables, node: _Node,
               ) -> tuple[_Tables, set[int]]:
        """A child's tables and owners, repaired from its parent's over the
        arcs it newly shuts (recorded in ``node.delta``), and the keys of
        the tables where a label fell; (None, None) for the tables if the
        nearest-facility table's repair is contested."""
        tables, owner = parent_tables
        new = node.closed - parent.closed
        if owner is None:
            changes = {d: g.close_arcs(tables[d], (d,), new, parent.closed)
                       for d in dests}
            owners = None
        else:
            found = g.close_nearest(tables[_NEAREST], owner, new,
                                    parent.closed)
            if found is None:
                return (None, None), set()
            changes, owners = {_NEAREST: found[0]}, found[1]
            if owners:
                owner = list(owner)
                for v, d in owners.items():
                    owner[v] = d
        node.delta = _Delta(parent.delta, {
            key: moved for key, moved in changes.items() if moved}, owners)
        repaired = dict(tables)
        fell: set[int] = set()
        for key, moved in node.delta.moved.items():
            old = tables[key]
            table = repaired[key] = list(old)
            for v, t in moved.items():
                if t < old[v]:
                    fell.add(key)
                table[v] = t
        return (repaired, owner), fell

    def evaluate(committed: int, banned: int, cost: int,
                 parent: _Node | None = None,
                 parent_tables: _Tables | None = None,
                 ) -> _Node | None:
        """Bound one node; None if it is dead or closed by rounding.

        Closed by rounding: the undecided units its relaxed routes ride
        cost no more than the remaining budget together, so buying them
        attains the bound, and that plan is offered as incumbent.

        A child (``parent`` given, with its full tables and owners) shuts
        every arc its parent does.  One that shuts no more, which only an
        include child can (a ban shuts the branch unit, which the parent's
        routes ride), has the same tables, assignment and routes, so it
        shares the parent's solve and bound, its score less the units it
        commits.  It cannot close by rounding: the parent's score cost more
        than the parent's remaining budget, and the branch unit lowers both
        sides by its own cost.  Any other child repairs the parent's
        tables and keeps the parent's routes that stay canonical
        (`_node_routes`); on per-facility tables its assignment search
        starts from the parent's assignment.  A node without a parent
        searches the nearest-facility table, and one that cannot answer
        searches one table per facility, by the solve's one table rule.
        """
        remaining, afford, spend, closed = open_node(committed, banned, cost)
        if (spend > remaining
                and connection(committed, afford, remaining, closed) is None):
            return None  # no affordable completion connects everyone
        if parent is not None and parent.closed == closed:
            stats["relaxations_inherited"] += 1
            node = copy.copy(parent)
            node.committed, node.cost = committed, cost
            node.score = {u: w for u, w in parent.score.items()
                          if not committed >> u & 1}
            return node
        node = _Node(committed, banned, cost, closed)
        if parent is None:
            repaired = search(node, True), set()
        else:
            stats["tables_repaired"] += 1
            repaired = repair(parent, parent_tables, node)
        (tables, owner), fell = repaired
        if owner is not None:
            if -1 in map(owner.__getitem__, origin_nos):
                return None  # the relaxation strands an origin
            found = nearest(tables[_NEAREST], owner)
        if tables is None or (owner is not None and found is None):
            # the nearest table is contested or overfills: it cannot answer
            stats["nearest_fallbacks"] += 1
            (tables, owner), fell = search(node, False), set()
            parent = None
        if owner is None:
            found = assign(tables, parent and parent.assignment)
        if found is None:
            return None  # the relaxation strands an origin or overfills
        node.bound, node.assignment = found
        node.paths, node.backed = _node_routes(
            g, origin_nos, node, (tables, owner), parent, fell, stats)
        for w, path in zip(weights, node.paths):
            for a in path:
                u = arc_unit.get(a)
                if u is not None and not committed >> u & 1:
                    node.score[u] = node.score.get(u, 0.0) + w
        if sum(map(unit_cost.__getitem__, node.score)) <= remaining:
            stats["rounding_closures"] += 1
            record(node.bound, node.assignment, node.paths)
            return None
        return node

    def connectable() -> bool:
        """Does any affordable purchase set reconnect every origin?"""
        # (committed, banned, cost); an include child is pushed after its
        # exclude sibling, so it is searched first
        stack = [(0, 0, base_cost)]
        while stack:
            if time.perf_counter() > deadline:
                raise _DeadlinePassed
            committed, banned, cost = stack.pop()
            remaining, afford, _, closed = open_node(committed, banned, cost)
            bound = connection(committed, afford, remaining, closed)
            if bound == 0:
                return True
            if bound is not None:
                u = _units(afford)[0]   # the first by id
                stack.append((committed, banned | 1 << u, cost))
                stack.append((committed | 1 << u, banned, cost + unit_cost[u]))
        return False

    counter = itertools.count()
    heap: list[tuple[float, int, _Node]] = []
    cut_floor = math.inf   # least bound the incumbent cut

    def push(node: _Node | None) -> None:
        """Queue an open node, unless the incumbent already cuts it."""
        nonlocal cut_floor
        if node is None:
            return
        if beats_incumbent(node.bound):
            heapq.heappush(heap, (node.bound, next(counter), node))
        else:
            cut_floor = min(cut_floor, node.bound)

    expanding: float | None = None   # bound of the subtree being split
    try:
        root = evaluate(0, 0, base_cost)
        # the only node cut so far is the root: refuted, it needs no walk
        root_refuted = stats["connection_cuts"] > 0
        if root is not None:
            # the probe: the node that bans every undecided unit rides none,
            # so it closes by rounding whenever its assignment exists
            expanding = root.bound   # the open tree's, until it is queued
            evaluate(0, every, base_cost)
        push(root)
        while heap:
            if time.perf_counter() > deadline:
                raise _DeadlinePassed
            bound, _, node = heapq.heappop(heap)
            stats["nodes_explored"] += 1
            if not beats_incumbent(bound):
                cut_floor = min(cut_floor, bound)  # every open node is >= this
                break
            expanding = bound
            # rider weight x unit cost: the unit moving the bound most on
            # both children, ties to the smaller number, so the smaller id
            branch = min(node.score, key=lambda u: (
                -node.score[u] * unit_cost[u], u))
            tables = node.delta.tables()
            push(evaluate(node.committed | 1 << branch, node.banned,
                          node.cost + unit_cost[branch], node, tables))
            push(evaluate(node.committed, node.banned | 1 << branch,
                          node.cost, node, tables))
            expanding = None
        if incumbent is None:
            # pruned subtrees might hide an affordable connecting set; decide
            # it exactly so the Infeasible / BudgetDisconnected split matches
            # the oracle
            return finish(SolveStatus.INFEASIBLE
                          if not root_refuted and connectable()
                          else SolveStatus.BUDGET_DISCONNECTED)
    except _DeadlinePassed:
        open_bounds = [entry[0] for entry in heap]
        if expanding is not None:
            open_bounds.append(expanding)  # its children were cut short
        return finish(SolveStatus.TIME_LIMIT, min(open_bounds, default=None))
    # subtrees discarded on tolerance leave only the least of them proven
    return finish(SolveStatus.OPTIMAL, cut_floor if options.gap_tol > 0
                  else incumbent.objective)


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    tag: str
    message: str


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation]
    objective: float | None

    def __str__(self) -> str:
        if self.ok:
            return f"valid (objective {self.objective})"
        return "; ".join(f"[{v.tag}] {v.message}" for v in self.violations)


def validate_solution(instance: ProblemInstance, solution) -> ValidationReport:
    """Check a Solution-shaped object against the instance's constraints.

    Tags mirror the model rows: budget knapsack (5), origin dispatch (2),
    arrival (3), path contiguity (4), vulnerable usage needs upgrade (6),
    no idle upgrades (7), facility capacity (8), plus objective recomputation.
    """
    net = instance.network
    violations: list[Violation] = []
    upgrades = set(getattr(solution, "upgrades", ()) or ())
    for aid in sorted(upgrades):
        arc = net.arcs.get(aid)
        if arc is None:
            violations.append(Violation("upgrade", f"unknown arc {aid!r}"))
        elif not arc.vulnerable:
            violations.append(Violation("upgrade",
                                        f"arc {aid!r} is not vulnerable"))
    spend = upgrade_cost_cents(net, (a for a in upgrades if a in net.arcs),
                               instance.spec.segment_coupling)
    if spend > cents(instance.budget):
        violations.append(Violation(
            "budget(5)", f"spent {spend / 100:.2f} > budget {instance.budget:.2f}"))

    assignment = dict(getattr(solution, "assignment", {}) or {})
    paths = {k: tuple(v) for k, v in (getattr(solution, "paths", {}) or {}).items()}
    recomputed = 0.0
    used: set[str] = set()
    load: dict[str, float] = {}
    for origin in net.origins():
        k = origin.id
        dest = assignment.get(k)
        if dest is None:
            violations.append(Violation("flow(2)", f"origin {k!r} unassigned"))
            continue
        if dest not in net.nodes or net.nodes[dest].kind is not NodeKind.DESTINATION:
            violations.append(Violation("flow(3)",
                                        f"{k!r} assigned to non-facility {dest!r}"))
            continue
        path = paths.get(k)
        if not path:
            violations.append(Violation("flow(2)", f"origin {k!r} has no route"))
            continue
        pos = k
        minutes = 0.0
        broken = False
        for aid in path:
            arc = net.arcs.get(aid)
            if arc is None or arc.tail != pos:
                violations.append(Violation(
                    "flow(4)", f"route of {k!r} breaks at {aid!r}"))
                broken = True
                break
            if arc.vulnerable:
                used.add(aid)
                if aid not in upgrades:
                    violations.append(Violation(
                        "link(6)", f"{k!r} rides vulnerable {aid!r} without upgrade"))
            minutes += arc.travel_time
            pos = arc.head
        if broken:
            continue
        if pos != dest:
            violations.append(Violation(
                "flow(3)", f"route of {k!r} ends at {pos!r}, not {dest!r}"))
            continue
        recomputed += origin.weight * minutes
        load[dest] = load.get(dest, 0.0) + origin.residents
    for dest, v in sorted(load.items()):
        cap = net.nodes[dest].capacity
        if not capacity_fits(v, cap):
            violations.append(Violation(
                "capacity(8)", f"facility {dest!r} load {v:g} > capacity {cap:g}"))
    idle = upgrades - used
    for aid in sorted(idle):
        violations.append(Violation("use(7)", f"upgrade {aid!r} unused"))
    declared = getattr(solution, "objective", None)
    if declared is not None and not violations:
        if abs(declared - recomputed) > 1e-9 * max(1.0, abs(recomputed)):
            violations.append(Violation(
                "objective",
                f"declared {declared!r} != recomputed {recomputed!r}"))
    ok = not violations
    return ValidationReport(ok=ok, violations=violations,
                            objective=recomputed if ok else None)


# -- 0-1 model / LP export ------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str                   # "<=", ">=", "="
    rhs: float


@dataclass
class MipModel:
    name: str
    objective: tuple[tuple[float, str], ...]
    objective_constant: float
    constraints: list[Constraint]
    binaries: tuple[str, ...]
    x_var: dict[tuple[str, str], str]       # (origin, arc) -> var name
    y_var: dict[str, str]                   # purchase unit -> var name

    def counts(self) -> dict[str, int]:
        return {"x": len(self.x_var), "y": len(self.y_var),
                "constraints": len(self.constraints)}


_SANITIZE = re.compile(r"[^A-Za-z0-9_]")


def _clean(s: str) -> str:
    return _SANITIZE.sub("_", s)


def build_model(instance: ProblemInstance,
                mask: Mapping[str, frozenset[str]] | None = None,
                fixings: FixedUpgrades | None = None,
                cuts: Cuts | None = None) -> MipModel:
    """Materialize the 0-1 program (route vars per origin/arc, buy vars per
    purchase unit, dispatch/arrival/conservation rows, budget knapsack,
    ride-needs-upgrade links, no-idle-upgrade rows, capacities, plus optional
    cuts).  Forced variables are substituted out into constants, and no
    route variable is made for an arc in ``mask`` (origin id -> arc ids)."""
    net = instance.network
    origins = net.origins()
    dests = {d.id for d in net.destinations()}
    mask = mask or {}
    fixings = fixings or FixedUpgrades()
    units = purchase_units(net, instance.spec.segment_coupling)
    unit_of_arc = {aid: u for u in units for aid in u.arc_ids}
    forced, _, forced_cost, _ = _forced(net, units, fixings)
    forced_units = {u.id for u in forced}
    forced_x = set(fixings.forced_x)
    for (k, aid) in forced_x:
        if aid in mask.get(k, ()):
            raise ModelError(
                f"inconsistent fixing: forced route ({k!r}, {aid!r}) is masked")

    # variable names: x_{origin}_{tail}_{head}; parallel arcs get __2 suffixes
    x_var: dict[tuple[str, str], str] = {}
    arc_ids = list(net.arcs)
    arc_name: dict[str, str] = {}
    seen: dict[str, int] = {}
    for aid in arc_ids:
        a = net.arcs[aid]
        base = f"{_clean(a.tail)}_{_clean(a.head)}"
        n = seen.get(base, 0) + 1
        seen[base] = n
        arc_name[aid] = base if n == 1 else f"{base}__{n}"

    for o in origins:
        for aid in arc_ids:
            if aid in mask.get(o.id, ()) or (o.id, aid) in forced_x:
                continue
            x_var[(o.id, aid)] = f"x_{_clean(o.id)}_{arc_name[aid]}"

    y_var: dict[str, str] = {}
    seen_y: dict[str, int] = {}
    for u in units:
        if u.id in forced_units:
            continue
        if instance.spec.segment_coupling:
            base = f"y_s_{_clean(u.id)}"
        else:
            arc = net.arcs[u.arc_ids[0]]
            base = f"y_{_clean(arc.tail)}_{_clean(arc.head)}"
        n = seen_y.get(base, 0) + 1
        seen_y[base] = n
        y_var[u.id] = base if n == 1 else f"{base}__{n}"

    def split(entries: Iterable[tuple[float, str, str]],
              ) -> tuple[tuple[tuple[float, str], ...], float]:
        """A row's terms coef·x[k, arc] for (coef, k, arc) in ``entries``,
        and the constant that forced routes among them add (masked ones
        add nothing)."""
        terms: list[tuple[float, str]] = []
        fixed = 0.0
        for coef, k, aid in entries:
            if (k, aid) in forced_x:
                fixed += coef
            elif (k, aid) in x_var:
                terms.append((coef, x_var[(k, aid)]))
        return tuple(terms), fixed

    ends = {nid: (net.in_arcs(nid), net.out_arcs(nid)) for nid in net.nodes}

    def flow(k: str, node: str, scale: float = 1.0,
             ) -> list[tuple[float, str, str]]:
        """(in - out) entries for commodity k at node, times ``scale``."""
        ins, outs = ends[node]
        return ([(scale, k, aid) for aid in ins]
                + [(-scale, k, aid) for aid in outs])

    objective, constant = split((o.weight * net.arcs[aid].travel_time, o.id,
                                 aid) for o in origins for aid in arc_ids)
    constraints: list[Constraint] = []

    def add_row(name: str, terms: tuple[tuple[float, str], ...], sense: str,
                rhs: float) -> None:
        """Append a row; substitution can empty one out, then it must hold."""
        if terms:
            constraints.append(Constraint(name, terms, sense, rhs))
            return
        satisfied = (abs(rhs) <= 1e-9 if sense == "=" else
                     rhs >= -1e-9 if sense == "<=" else rhs <= 1e-9)
        if not satisfied:
            raise ModelError(
                f"fixings make row {name!r} unsatisfiable: 0 {sense} {rhs:g}")

    for o in origins:
        k = o.id
        terms, fixed = split(flow(k, k))
        add_row(f"flow2_{_clean(k)}", terms, "=", -1.0 - fixed)
        for j in sorted(dests):
            terms, fixed = split(flow(k, j))
            add_row(f"flow3_{_clean(k)}_{_clean(j)}", terms, ">=", 0.0 - fixed)
        for j in sorted(net.nodes):
            if j in dests or j == k:
                continue
            terms, fixed = split(flow(k, j))
            add_row(f"flow4_{_clean(k)}_{_clean(j)}", terms, "=", 0.0 - fixed)

    knap_terms = tuple((u.cost_cents / 100.0, y_var[u.id])
                       for u in units if u.id in y_var)
    knap_rhs = instance.budget - forced_cost / 100.0
    add_row("knap5", knap_terms, "<=", knap_rhs)

    for o in origins:
        k = o.id
        for u in units:
            for aid in u.arc_ids:
                if (k, aid) not in x_var:
                    continue
                if u.id in forced_units:
                    continue  # y == 1: link row is vacuous
                constraints.append(Constraint(
                    f"link6_{_clean(k)}_{arc_name[aid]}",
                    ((1.0, x_var[(k, aid)]), (-1.0, y_var[u.id])), "<=", 0.0))

    for u in units:
        if u.id in forced_units:
            continue  # a forced unit always has its forced route using it
        name = (f"use7_s_{_clean(u.id)}" if instance.spec.segment_coupling
                else f"use7_{arc_name[u.arc_ids[0]]}")
        terms, fixed = split((-1.0, o.id, aid)
                             for aid in u.arc_ids for o in origins)
        add_row(name, ((1.0, y_var[u.id]),) + terms, "<=", 0.0 - fixed)

    for j in sorted(dests):
        terms, fixed = split(entry for o in origins
                             for entry in flow(o.id, j, o.residents))
        add_row(f"cap8_{_clean(j)}", terms, "<=",
                net.nodes[j].capacity - fixed)

    if cuts is not None:
        for idx, (a_ij, a_ih, a_jh) in enumerate(cuts.triangle):
            if not all(a in net.arcs for a in (a_ij, a_ih, a_jh)):
                continue  # harvested before a later prune removed one
            for o in origins:
                terms = tuple((1.0, x_var[(o.id, a)])
                              for a in (a_ij, a_ih, a_jh)
                              if (o.id, a) in x_var)
                if len(terms) < 2:
                    continue
                constraints.append(Constraint(
                    f"tri11_{_clean(o.id)}_{idx}", terms, "<=", 1.0))
        for k in cuts.exit_origins:
            if k not in net.nodes:
                continue
            unit_ids = {unit_of_arc[aid].id for aid in net.out_arcs(k)
                        if net.arcs[aid].vulnerable}
            if unit_ids & forced_units:
                continue  # already satisfied by a forced purchase
            terms = tuple((1.0, y_var[uid]) for uid in sorted(unit_ids)
                          if uid in y_var)
            if terms:
                constraints.append(Constraint(f"exit12_{_clean(k)}", terms,
                                              ">=", 1.0))

    binaries = tuple(sorted(x_var.values())) + tuple(
        y_var[u.id] for u in units if u.id in y_var)
    return MipModel(
        name=f"floodmit_{len(origins)}o_{len(units)}u",
        objective=tuple(objective), objective_constant=constant,
        constraints=constraints, binaries=binaries, x_var=x_var, y_var=y_var)


def _coef(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".12g")


def _terms_str(terms: Iterable[tuple[float, str]]) -> str:
    parts: list[str] = []
    for coef, var in terms:
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = var if mag == 1 else f"{_coef(mag)} {var}"
        if not parts:
            parts.append(body if sign == "+" else f"- {body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def export_lp(model: MipModel, path: str | Path | None = None) -> str:
    """Serialize the model in LP format (deterministic bytes)."""
    lines = [f"\\ {model.name}", "Minimize"]
    obj = _terms_str(model.objective)
    if model.objective_constant:
        obj = f"{obj} + {_coef(model.objective_constant)}" if obj \
            else _coef(model.objective_constant)
    lines.append(f" obj: {obj or '0'}")
    lines.append("Subject To")
    for c in model.constraints:
        sense = {"<=": "<=", ">=": ">=", "=": "="}[c.sense]
        lines.append(f" {c.name}: {_terms_str(c.terms)} {sense} {_coef(c.rhs)}")
    lines.append("Binary")
    for var in model.binaries:
        lines.append(f" {var}")
    lines.append("End")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


# -- generalized assignment embedding ---------------------------------------


def gap_to_rnfmp(sizes: Sequence[float], capacities: Sequence[float],
                 costs: Sequence[Sequence[float]]) -> ProblemInstance:
    """Embed a generalized assignment problem as a zero-budget instance.

    Job i becomes an origin with that many residents (weight 1), agent j a
    facility with its capacity, and each (i, j) pair a direct never-flooded
    road whose travel time is the assignment cost.  With no vulnerable roads
    and budget 0, solving the instance solves the GAP.
    """
    if not sizes or not capacities:
        raise ModelError("GAP needs at least one job and one agent")
    if len(costs) != len(sizes) or any(len(row) != len(capacities)
                                       for row in costs):
        raise ModelError("cost matrix shape mismatch")
    if any(c < 0 for row in costs for c in row):
        raise ModelError("negative assignment cost")
    nodes = []
    width_j = len(str(len(sizes) - 1))
    width_a = len(str(len(capacities) - 1))
    for i, h in enumerate(sizes):
        nodes.append(RoadNode(f"j{i:0{width_j}d}", NodeKind.ORIGIN,
                              residents=float(h), weight=1.0))
    for j, cap in enumerate(capacities):
        nodes.append(RoadNode(f"a{j:0{width_a}d}", NodeKind.DESTINATION,
                              capacity=float(cap)))
    arcs = []
    for i in range(len(sizes)):
        for j in range(len(capacities)):
            arcs.append(RoadArc(f"g{i:0{width_j}d}_{j:0{width_a}d}",
                                f"j{i:0{width_j}d}", f"a{j:0{width_a}d}",
                                float(costs[i][j])))
    net = Network(nodes, arcs)
    spec = InstanceSpec(p=0.0, budget_fraction=0.0, weight_policy="uniform")
    return ProblemInstance(network=net, budget=0.0, b_hat=0.0, spec=spec,
                           provenance={"source": "gap", "log": []})
