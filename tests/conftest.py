"""Shared fixtures: small hand-checkable instances used across the suite,
and a plain Dijkstra on ids to judge the search kernel by."""
from __future__ import annotations

import heapq
import math

from floodmit.ingest import InstanceSpec, ProblemInstance
from floodmit.net import DIST_TOL, Network, NodeKind, RoadArc, RoadNode


def plain_dijkstra(net, sources, closed=frozenset(), reverse=False,
                   labels=None):
    """A plain Dijkstra on ids, for reference: a ``(time, id)`` heap over
    ``net.arcs``, the kernel's ``< best - DIST_TOL`` rule, and the seeded
    form's ``labels``.  Returns the settled times in settling order,
    unreached nodes absent.  It shares no code with ``GraphIndex``."""
    ends = {nid: [] for nid in net.nodes}  # the arcs to follow, in id order
    for aid, arc in net.arcs.items():
        ends[arc.head if reverse else arc.tail].append(aid)
    best = dict(labels) if labels is not None else dict.fromkeys(sources, 0.0)
    heap = [(best[s], s) for s in set(sources)]
    heapq.heapify(heap)
    settled = {}
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        for aid in ends[u]:
            if aid in closed:
                continue
            arc = net.arcs[aid]
            v = arc.tail if reverse else arc.head
            if d + arc.travel_time < best.get(v, math.inf) - DIST_TOL:
                best[v] = d + arc.travel_time
                heapq.heappush(heap, (best[v], v))
    return settled


def canonical_route(net, source, target, closed=frozenset()):
    """``GraphIndex.canonical_walk`` from ``source`` to ``target`` over the
    arcs not in ``closed``, read off a fresh reverse search from the
    target, with ids in and out: (arc ids, whether it backed out of a dead
    end), or None if ``source`` cannot reach ``target``."""
    g = net.index()
    s, t = g.nodes_of((source, target))
    shut = g.arcs_of(closed)
    found = g.canonical_walk(s, t, shut,
                             g.dijkstra((t,), shut, reverse=True)[0])
    if found is None:
        return None
    return tuple(g.arc_ids[a] for a in found[0]), found[1]


def build_instance(nodes, arcs, budget, b_hat, **spec_kw):
    spec_kw.setdefault("p", 1.0)
    spec_kw.setdefault("budget_fraction", budget / b_hat if b_hat else 0.0)
    spec = InstanceSpec(**spec_kw)
    return ProblemInstance(network=Network(nodes, arcs), budget=float(budget),
                           b_hat=float(b_hat), spec=spec,
                           provenance={"source": "test", "log": []})


def f1_instance(budget: float, d1_beds: float = 12.0) -> ProblemInstance:
    """Two origins, two capacity-limited shelters, one shared transfer node.

    o1 (10 residents) -> t1 -> {d1 via washed-out a2, d2 dry};
    o2 (5 residents)  -> {d1 via washed-out a4, d2 dry}.
    d1 holds 12, so both origins never fit there together.  With
    ``d1_beds=15`` they do, so the relaxed plan rides both washed-out arcs
    ($4 + $5) and any budget below $9 must branch.
    """
    nodes = [
        RoadNode("o1", NodeKind.ORIGIN, residents=10.0, weight=10.0),
        RoadNode("o2", NodeKind.ORIGIN, residents=5.0, weight=5.0),
        RoadNode("t1", NodeKind.TRANSSHIPMENT),
        RoadNode("d1", NodeKind.DESTINATION, capacity=d1_beds),
        RoadNode("d2", NodeKind.DESTINATION, capacity=20.0),
    ]
    arcs = [
        RoadArc("a1", "o1", "t1", 2.0),
        RoadArc("a2", "t1", "d1", 3.0, vulnerable=True, mitigation_cost=4.0),
        RoadArc("a3", "t1", "d2", 5.0),
        RoadArc("a4", "o2", "d1", 1.0, vulnerable=True, mitigation_cost=5.0),
        RoadArc("a5", "o2", "d2", 6.0),
    ]
    return build_instance(nodes, arcs, budget, 9.0)


def bridge_instance(coupled: bool) -> ProblemInstance:
    """Two origins that must cross the same bridge in opposite directions.

    Separately the crossings cost 6 + 4 > budget 6; as one coupled segment
    they cost max(6, 4) = 6.  Capacities pin the assignment: dw (5 beds)
    only fits o2, de (7 beds) only fits o1.
    """
    nodes = [RoadNode("o1", NodeKind.ORIGIN, residents=7.0, weight=7.0),
             RoadNode("o2", NodeKind.ORIGIN, residents=5.0, weight=5.0),
             RoadNode("m", NodeKind.TRANSSHIPMENT),
             RoadNode("dw", NodeKind.DESTINATION, capacity=5.0),
             RoadNode("de", NodeKind.DESTINATION, capacity=7.0)]
    arcs = [RoadArc("w1", "o1", "m", 2.0),
            RoadArc("w2", "m", "dw", 1.0),
            RoadArc("w3", "o2", "de", 1.0),
            RoadArc("e", "m", "de", 2.0, vulnerable=True, mitigation_cost=6.0,
                    segment_id="bridge"),
            RoadArc("er", "de", "m", 2.0, vulnerable=True, mitigation_cost=4.0,
                    segment_id="bridge")]
    return build_instance(nodes, arcs, 6.0, 10.0, budget_fraction=0.6,
                          segment_coupling=coupled)


def forced_exit_instance() -> ProblemInstance:
    """One origin whose only way out is a single washed-out arc."""
    nodes = [RoadNode("k", NodeKind.ORIGIN, residents=3.0, weight=3.0),
             RoadNode("v", NodeKind.TRANSSHIPMENT),
             RoadNode("t", NodeKind.TRANSSHIPMENT),
             RoadNode("n", NodeKind.TRANSSHIPMENT),
             RoadNode("d", NodeKind.DESTINATION, capacity=5.0)]
    arcs = [RoadArc("kv", "k", "v", 1.0, vulnerable=True, mitigation_cost=4.0),
            RoadArc("vt", "v", "t", 1.0),
            RoadArc("tn", "t", "n", 1.0),
            RoadArc("nd", "n", "d", 1.0)]
    return build_instance(nodes, arcs, 4.0, 4.0, budget_fraction=1.0)


def stranded_instance(budget: float = 0.0) -> ProblemInstance:
    """Origin behind a washed-out arc it cannot afford to repair."""
    nodes = [RoadNode("o", NodeKind.ORIGIN, residents=2.0, weight=2.0),
             RoadNode("d", NodeKind.DESTINATION, capacity=9.0)]
    arcs = [RoadArc("v", "o", "d", 1.0, vulnerable=True, mitigation_cost=7.0)]
    return build_instance(nodes, arcs, budget, 7.0)


def overfull_instance() -> ProblemInstance:
    """Connectivity is fine; the only shelter is simply too small."""
    nodes = [RoadNode("o", NodeKind.ORIGIN, residents=10.0, weight=10.0),
             RoadNode("d", NodeKind.DESTINATION, capacity=4.0)]
    arcs = [RoadArc("od", "o", "d", 1.0)]
    return build_instance(nodes, arcs, 0.0, 0.0, budget_fraction=0.0)
