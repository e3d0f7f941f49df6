"""Variable fixing and masking that provably keeps the optimum.

Three reductions, all derived from path structure:

* ``forced_exits`` — an origin whose every outgoing road is vulnerable must
  upgrade one of them; with a single exit the purchase is forced outright
  (budget charged, weighted hop time folded into the objective constant),
  otherwise the disjunction becomes a cut over the exit upgrades.
* ``distance_dominated`` — for an origin that can already reach every
  facility on never-flooded roads, any arc lying beyond its worst-case
  non-flooded trip can never appear on one of its optimal routes.
* ``component_mask`` — arcs inside an articulation-point side pocket that
  contains no facility are unusable for any origin outside the pocket.  The
  pockets come from ``net.cut_nodes``, whose one search also gives the
  pockets joined to nothing, and ``net.bare_sides``: the side-component
  finder that pruning's technique 1 also uses, with "is not a destination"
  as the bare-node test.

A mask maps an origin id to the frozenset of arc ids its routes may not
use, and leaves out an origin when nothing is blocked for it: one more
closed set per origin, in ids because masks are outputs (a search takes
it as arc numbers, ``GraphIndex.arcs_of``).

Fixings feed the model builder, the brute-force oracle and the exact solver;
the solve pipeline runs ``forced_exits`` alone, on the pruned network, as it
reads nothing but the network.  Masks feed only the model
builder and the oracle (``standard_reductions`` builds fixings and masks
together, for ``export-lp``), and exit cuts only the model builder: the
solver routes every origin on a shortest path, which never uses a masked
arc.  Applying them never changes the optimal objective (tested against
brute force).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .ingest import ProblemInstance
from .net import (DIST_TOL, Network, NodeKind, bare_sides, cut_nodes,
                  undirected_adjacency)


@dataclass(frozen=True)
class SpTables:
    """Per-facility reverse tables on the network's index, as built by
    ``GraphIndex.facility_times``: ``{facility number: list by node
    number}``, ``inf`` where a node cannot reach the facility.

    ``flooded[d][k]`` is the time from node k to facility d on never-vulnerable
    arcs only; ``upgraded[d][k]`` assumes every vulnerable arc is passable.
    """

    flooded: Mapping[int, Sequence[float]]
    upgraded: Mapping[int, Sequence[float]]


def compute_sp_tables(instance: ProblemInstance) -> SpTables:
    net = instance.network
    g = net.index()
    return SpTables(flooded=g.facility_times(g.arcs_of(net.vulnerable_ids)),
                    upgraded=g.facility_times())


@dataclass(frozen=True)
class FixedUpgrades:
    """Output of the forced-exit reduction.

    It carries no prices: the solver and the model builder charge the forced
    arcs by purchase unit, as they charge every other purchase.
    """

    forced_y: frozenset[str] = frozenset()
    forced_x: frozenset[tuple[str, str]] = frozenset()  # (origin, arc)
    exit_vi_origins: tuple[str, ...] = ()


@dataclass(frozen=True)
class Cuts:
    """Optional valid inequalities handed to the model builder."""

    triangle: tuple[tuple[str, str, str], ...] = ()   # (arc ij, arc ih, arc jh)
    exit_origins: tuple[str, ...] = ()


def forced_exits(net: Network) -> FixedUpgrades:
    """Origins whose every exit is vulnerable: fix single exits, cut the rest."""
    forced_y: set[str] = set()
    forced_x: set[tuple[str, str]] = set()
    exit_origins: list[str] = []
    for origin in net.origins():
        out_ids = net.out_arcs(origin.id)
        if not out_ids:
            continue
        arcs = [net.arcs[a] for a in out_ids]
        if not all(a.vulnerable for a in arcs):
            continue
        if len(arcs) == 1:
            arc = arcs[0]
            forced_y.add(arc.id)
            forced_x.add((origin.id, arc.id))
        else:
            exit_origins.append(origin.id)
    return FixedUpgrades(
        forced_y=frozenset(forced_y), forced_x=frozenset(forced_x),
        exit_vi_origins=tuple(exit_origins))


def distance_dominated(instance: ProblemInstance,
                       ) -> dict[str, frozenset[str]]:
    """Mask the arcs beyond each origin's worst flooded trip.

    Only applies to origins that reach *every* destination without upgrades
    (on never-vulnerable arcs, one reverse search per facility); for those,
    an optimal route never grows past that guaranteed bound, so an arc whose
    entry already exceeds it (strictly) is unusable.  Only those origins
    need a forward search, for the time to each arc's tail.
    """
    net = instance.network
    g = net.index()
    flooded = g.facility_times(g.arcs_of(net.vulnerable_ids)).values()
    arcs = list(zip(g.arc_ids, g.tail, g.minutes))
    mask: dict[str, frozenset[str]] = {}
    for k in g.origins:
        bound = max((t[k] for t in flooded), default=math.inf)
        if not math.isfinite(bound):
            continue
        reach = g.dijkstra((k,))[0]
        blocked = frozenset(aid for aid, tail, minutes in arcs
                            if reach[tail] + minutes > bound + DIST_TOL)
        if blocked:
            mask[g.node_ids[k]] = blocked
    return mask


def component_mask(instance: ProblemInstance) -> dict[str, frozenset[str]]:
    """Mask side-pocket arcs for origins outside the pocket.

    For an articulation point v and a component of the network minus v that
    holds no destination, a route starting outside the pocket would have to
    re-cross v to leave it — never optimal, so those route variables go.
    Minus v, those components are v's bare sides and every destination-free
    component of the whole network that does not hold v.
    """
    net = instance.network

    def bare(n: str) -> bool:
        return net.nodes[n].kind is not NodeKind.DESTINATION

    origin_ids = [o.id for o in net.origins()]
    blocked: dict[str, set[str]] = {}
    adj = undirected_adjacency(net)
    cuts, detached = cut_nodes(adj, bare)
    for v in cuts:
        for comp in (bare_sides(adj.__getitem__, v, bare)
                     + [c for c in detached if v not in c]):
            arcs = [a for n in comp for a in net.out_arcs(n)
                    if net.arcs[a].head in comp]
            for k in origin_ids:
                if k not in comp:
                    blocked.setdefault(k, set()).update(arcs)
    return {k: frozenset(arcs) for k, arcs in blocked.items() if arcs}


def standard_reductions(instance: ProblemInstance,
                        ) -> tuple[FixedUpgrades, dict[str, frozenset[str]]]:
    """The full reduction bundle: forced exits + both masks, united per
    origin.  Each reduction derives what it needs from ``instance``."""
    mask = distance_dominated(instance)
    for k, arcs in component_mask(instance).items():
        mask[k] = mask.get(k, frozenset()) | arcs
    return forced_exits(instance.network), mask
